package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"trustmap/internal/tn"
	"trustmap/internal/workload"
)

// TestResolveObjectZeroAllocs is the hard gate on the columnar hot path:
// once the value dictionary and the worker arena are warm, resolving an
// object must not allocate at all.
func TestResolveObjectZeroAllocs(t *testing.T) {
	n := workload.PowerLaw(rand.New(rand.NewSource(42)), 1000, 3, 0.1, []tn.Value{"v", "w", "u", "z"})
	bin := tn.Binarize(n)
	c, err := Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	c.ensureSupports()
	beliefs := make(map[int]tn.Value)
	for _, r := range c.Roots() {
		beliefs[r] = tn.Value(fmt.Sprintf("v%d", r%4))
	}
	s := c.getScratch()
	defer c.putScratch(s)
	dst := make([]int32, len(c.supports))
	if err := c.resolveObject(s, "warm", beliefs, dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.resolveObject(s, "steady", beliefs, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state resolveObject allocates %.1f times per object, want 0", allocs)
	}
}

// TestValueDict exercises the interning dictionary directly: values and
// sets of them.
func TestValueDict(t *testing.T) {
	d := newValueDict()
	a := d.id("fish")
	if d.id("fish") != a {
		t.Error("re-interning must return the same id")
	}
	b := d.id("jar")
	if a == b {
		t.Error("distinct values must get distinct ids")
	}
	if d.vals[a] != "fish" || d.vals[b] != "jar" {
		t.Errorf("value column mismatch: %v", d.vals)
	}

	z := d.id("aa") // interned after "fish": sets must sort by value, not id
	set := func(ids ...int32) int32 { return d.setID(appendSetKey(nil, ids), ids) }
	both, one := set(a, z), set(a)
	if set(a, z) != both || set(a) != one {
		t.Error("re-interning a set must return the same set id")
	}
	if both == one {
		t.Error("distinct sets must get distinct set ids")
	}
	snap := d.setTable()
	for i := 0; i < 100; i++ { // outgrow the set table's backing array
		set(d.id(tn.Value(fmt.Sprintf("x%d", i))))
	}
	if got := snap[both]; len(got) != 2 || got[0] != "aa" || got[1] != "fish" {
		t.Errorf("snapshot set %d = %v after later appends, want [aa fish]", both, got)
	}
	if got := snap[one]; len(got) != 1 || got[0] != "fish" {
		t.Errorf("snapshot set %d = %v after later appends, want [fish]", one, got)
	}
	if len(d.setTable()) != len(snap)+100 {
		t.Errorf("set table holds %d sets, want %d", len(d.setTable()), len(snap)+100)
	}
}

// TestResolveConcurrentSetIDs runs two Resolves of one batch at once on a
// freshly compiled artifact, so both intern into a cold set table
// concurrently (the point under -race): equal sets must get equal ids
// across both results, and both must answer as a one-worker Resolve does.
func TestResolveConcurrentSetIDs(t *testing.T) {
	bin := dedupNet(t)
	roots := liveRootsOf(bin)
	c, err := Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	objs := make(map[string]map[int]tn.Value, 300)
	for i := 0; i < 300; i++ {
		bs := make(map[int]tn.Value, len(roots))
		for _, r := range roots {
			bs[r] = tn.Value(fmt.Sprintf("v%d", rng.Intn(6)))
		}
		objs[fmt.Sprintf("obj%03d", i)] = bs
	}
	ctx := context.Background()
	opts := []Options{{Workers: 4}, {Workers: 4, DisableDedup: true}}
	got := make([]*BulkResult, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i, o := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = c.Resolve(ctx, objs, o)
		}()
	}
	wg.Wait()
	want, err := c.Resolve(ctx, objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	idOf := make(map[string]int32)
	for i, r := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for _, ids := range r.poss {
			for _, id := range ids {
				k := fmt.Sprint(r.sets[id])
				if prev, ok := idOf[k]; !ok {
					idOf[k] = id
				} else if prev != id {
					t.Fatalf("set %s has ids %d and %d", k, prev, id)
				}
			}
		}
		assertSameResults(t, fmt.Sprintf("%+v vs workers=1", opts[i]), bin, r, want)
	}
	if len(idOf) < 2 {
		t.Fatalf("batch interned %d distinct sets, want a conflict mix", len(idOf))
	}
}

// TestResolveSharedSetsAcrossObjects checks that recurring conflict
// patterns share one interned set and that sets are value-sorted even
// when the interning order differs from the lexicographic order.
func TestResolveSharedSetsAcrossObjects(t *testing.T) {
	n := tn.New()
	x1, x2 := n.AddUser("x1"), n.AddUser("x2")
	x3, x4 := n.AddUser("x3"), n.AddUser("x4")
	n.AddMapping(x2, x1, 100)
	n.AddMapping(x3, x1, 50)
	n.AddMapping(x1, x2, 80)
	n.AddMapping(x4, x2, 40)
	n.SetExplicit(x3, "seed")
	n.SetExplicit(x4, "seed")
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	// "zz" is interned before "aa": sorting by id would be wrong.
	objs := map[string]map[int]tn.Value{
		"o1": {x3: "zz", x4: "aa"},
		"o2": {x3: "zz", x4: "aa"},
		"o3": {x3: "aa", x4: "zz"}, // same set, opposite assignment
	}
	r, err := c.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"o1", "o2", "o3"} {
		got := r.Possible(x1, k)
		if len(got) != 2 || got[0] != "aa" || got[1] != "zz" {
			t.Fatalf("poss(x1, %s)=%v want [aa zz] (lexicographic)", k, got)
		}
	}
	// Same id set, same set id: the slices must be shared, not merely equal.
	if &r.Possible(x1, "o1")[0] != &r.Possible(x1, "o3")[0] {
		t.Error("recurring id set must share one interned set")
	}
}

// TestBulkResultLookupSentinels covers the explicit failure modes of
// result lookups.
func TestBulkResultLookupSentinels(t *testing.T) {
	n := tn.New()
	r := n.AddUser("r")
	a := n.AddUser("a")
	b := n.AddUser("b") // unreachable
	n.SetExplicit(r, "seed")
	n.AddMapping(r, a, 2)
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Resolve(context.Background(), map[string]map[int]tn.Value{"k": {r: "v"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Lookup(a, "missing"); err != ErrUnknownObject {
		t.Errorf("unknown object: err=%v want ErrUnknownObject", err)
	}
	if _, err := res.Lookup(-1, "k"); err != ErrOutOfRange {
		t.Errorf("negative node: err=%v want ErrOutOfRange", err)
	}
	if _, err := res.Lookup(99, "k"); err != ErrOutOfRange {
		t.Errorf("out-of-range node: err=%v want ErrOutOfRange", err)
	}
	if poss, err := res.Lookup(b, "k"); err != nil || poss != nil {
		t.Errorf("unreachable node: poss=%v err=%v want empty, nil", poss, err)
	}
	if poss, err := res.Lookup(a, "k"); err != nil || len(poss) != 1 || poss[0] != "v" {
		t.Errorf("lookup(a)=%v,%v want [v]", poss, err)
	}
}

// BenchmarkResolveObjectSteadyState measures the raw per-object hot path
// with a warm arena: the zero-allocation columnar gather.
func BenchmarkResolveObjectSteadyState(b *testing.B) {
	n := workload.PowerLaw(rand.New(rand.NewSource(42)), 1000, 3, 0.1, []tn.Value{"v", "w", "u", "z"})
	bin := tn.Binarize(n)
	c, err := Compile(bin)
	if err != nil {
		b.Fatal(err)
	}
	c.ensureSupports()
	beliefs := make(map[int]tn.Value)
	for _, r := range c.Roots() {
		beliefs[r] = tn.Value(fmt.Sprintf("v%d", r%4))
	}
	s := c.getScratch()
	defer c.putScratch(s)
	dst := make([]int32, len(c.supports))
	if err := c.resolveObject(s, "warm", beliefs, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.resolveObject(s, "steady", beliefs, dst); err != nil {
			b.Fatal(err)
		}
	}
}
