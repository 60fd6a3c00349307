package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"trustmap/internal/tn"
	"trustmap/internal/workload"
)

// dedupNet builds a mid-size binarized power-law network for dedup tests.
func dedupNet(t testing.TB) *tn.Network {
	t.Helper()
	n := workload.PowerLaw(rand.New(rand.NewSource(77)), 300, 3, 0.1, []tn.Value{"v", "w", "u", "z"})
	return tn.Binarize(n)
}

// liveRootsOf lists the explicit-belief users.
func liveRootsOf(n *tn.Network) []int {
	var roots []int
	for x := 0; x < n.NumUsers(); x++ {
		if n.HasExplicit(x) {
			roots = append(roots, x)
		}
	}
	return roots
}

// assertSameResults requires byte-identical poss for every node and object.
func assertSameResults(t *testing.T, label string, n *tn.Network, a, b *BulkResult) {
	t.Helper()
	for _, k := range a.Keys() {
		for x := 0; x < n.NumUsers(); x++ {
			got, want := a.Possible(x, k), b.Possible(x, k)
			if len(got) != len(want) {
				t.Fatalf("%s: poss(%s, %s): %v vs %v", label, n.Name(x), k, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: poss(%s, %s): %v vs %v", label, n.Name(x), k, got, want)
				}
			}
		}
	}
}

// TestDedupClusteredBatch: objects repeating few signatures resolve each
// signature once, and dedup-on equals dedup-off.
func TestDedupClusteredBatch(t *testing.T) {
	bin := dedupNet(t)
	roots := liveRootsOf(bin)
	c, err := Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	protos := workload.BulkObjects(rand.New(rand.NewSource(3)), roots, 7)
	keys := workload.ObjectKeys(protos)
	for i, k := range keys { // force the prototypes pairwise distinct
		protos[k][roots[0]] = tn.Value(fmt.Sprintf("proto%d", i))
	}
	objs := make(map[string]map[int]tn.Value, 100)
	for i := 0; i < 100; i++ {
		objs[fmt.Sprintf("obj%03d", i)] = protos[keys[i%len(keys)]]
	}
	for _, workers := range []int{1, 4} {
		on, err := c.Resolve(context.Background(), objs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		off, err := c.Resolve(context.Background(), objs, Options{Workers: workers, DisableDedup: true})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("clustered/workers=%d", workers), bin, on, off)
		st := on.Dedup()
		if st.Objects != 100 || st.DistinctSignatures != len(keys) {
			t.Fatalf("workers=%d: stats=%+v want 100 objects, %d signatures", workers, st, len(keys))
		}
	}
	// A later batch repeating the signatures resolves them again, to the
	// same answers.
	first, err := c.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "clustered/second-batch", bin, again, first)
	if st := again.Dedup(); st.DistinctSignatures != len(keys) {
		t.Fatalf("second batch: stats=%+v want %d signatures", st, len(keys))
	}
}

// TestDedupAllDistinctAdversarial: every object carries a unique signature,
// so dedup degenerates to per-object resolution — results must still match
// dedup-off and the stats must report zero sharing.
func TestDedupAllDistinctAdversarial(t *testing.T) {
	bin := dedupNet(t)
	roots := liveRootsOf(bin)
	c, err := Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	objs := make(map[string]map[int]tn.Value, 60)
	for i := 0; i < 60; i++ {
		bs := make(map[int]tn.Value, len(roots))
		for _, r := range roots {
			bs[r] = "shared"
		}
		bs[roots[i%len(roots)]] = tn.Value(fmt.Sprintf("unique%d", i)) // one root diverges per object
		objs[fmt.Sprintf("obj%03d", i)] = bs
	}
	on, err := c.Resolve(context.Background(), objs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	off, err := c.Resolve(context.Background(), objs, Options{Workers: 2, DisableDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "alldistinct", bin, on, off)
	if st := on.Dedup(); st.DistinctSignatures != 60 {
		t.Fatalf("adversarial batch deduplicated: %+v", st)
	}
}

// TestDedupBailOutOnAdversarialBatch: past the probe window an almost-all-
// distinct batch stops grouping and resolves the tail directly; results
// still match dedup-off and the stats stay consistent.
func TestDedupBailOutOnAdversarialBatch(t *testing.T) {
	bin := dedupNet(t)
	roots := liveRootsOf(bin)
	c, err := Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	const nObj = dedupProbeWindow + 200
	objs := make(map[string]map[int]tn.Value, nObj)
	for i := 0; i < nObj; i++ {
		bs := make(map[int]tn.Value, len(roots))
		for _, r := range roots {
			bs[r] = "shared"
		}
		bs[roots[0]] = tn.Value(fmt.Sprintf("uniq%d", i))
		objs[fmt.Sprintf("obj%04d", i)] = bs
	}
	on, err := c.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	off, err := c.Resolve(context.Background(), objs, Options{Workers: 1, DisableDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "bailout", bin, on, off)
	st := on.Dedup()
	if st.DistinctSignatures != nObj {
		t.Fatalf("stats=%+v want %d distinct signatures (groups + direct)", st, nObj)
	}
}

// TestResolveAcrossApply: a value-only batch keeps the artifact and its
// answers, and a structural mutation produces a successor whose answers
// reflect the mutated network; each call resolves its one signature anew.
func TestResolveAcrossApply(t *testing.T) {
	n := tn.New()
	r1, r2 := n.AddUser("r1"), n.AddUser("r2")
	a, b := n.AddUser("a"), n.AddUser("b")
	n.SetExplicit(r1, "seed")
	n.SetExplicit(r2, "seed")
	n.AddMapping(r1, a, 2)
	n.AddMapping(r2, a, 1)
	n.AddMapping(a, b, 2)
	n.EnableJournal()
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	objs := map[string]map[int]tn.Value{
		"k1": {r1: "x", r2: "y"},
		"k2": {r1: "x", r2: "y"},
	}
	res, err := c.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Possible(b, "k1"); len(got) != 1 || got[0] != "x" {
		t.Fatalf("poss(b) = %v, want [x] via preferred edge", got)
	}
	if st := res.Dedup(); st.Objects != 2 || st.DistinctSignatures != 1 {
		t.Fatalf("warmup stats: %+v", st)
	}

	// Value-only mutation: same artifact, same answers.
	n.SetExplicit(r1, "seed2")
	same, _, err := c.Apply(n.DrainJournal(), ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if same != c {
		t.Fatal("value-only batch must return the base artifact")
	}
	res, err = same.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Dedup(); st.Objects != 2 || st.DistinctSignatures != 1 {
		t.Fatalf("value-only successor stats: %+v", st)
	}
	if got := res.Possible(b, "k1"); len(got) != 1 || got[0] != "x" {
		t.Fatalf("value-only successor poss(b) = %v, want [x]", got)
	}

	// Structural mutation: a's preferred edge flips to r2 — an answer
	// carried over from the old plan would be wrong.
	if !n.RemoveMapping(r1, a) {
		t.Fatal("mapping r1 -> a missing")
	}
	next, _, err := c.Apply(n.DrainJournal(), ApplyOptions{MaxDirtyFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err = next.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Dedup(); st.Objects != 2 || st.DistinctSignatures != 1 {
		t.Fatalf("structural successor stats: %+v", st)
	}
	if got := res.Possible(b, "k1"); len(got) != 1 || got[0] != "y" {
		t.Fatalf("post-mutation poss(b) = %v, want [y]", got)
	}
}

// countdownCtx reports cancellation after its Err has been consulted n
// times: a deterministic way to abort Resolve mid-scan.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestResolveAbortedMidScan aborts single-worker resolves at every possible
// cancellation point and asserts the partial-result contract: the call
// reports ErrResolveAborted, every resolved object is correct and complete,
// and every dropped object is reported by Lookup with the sentinel instead
// of silently empty slices.
func TestResolveAbortedMidScan(t *testing.T) {
	bin := dedupNet(t)
	roots := liveRootsOf(bin)
	c, err := Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	objs := workload.BulkObjects(rand.New(rand.NewSource(4)), roots, 12)
	full, err := c.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	probe := bin.UserID("site9")
	for _, disable := range []bool{false, true} {
		for budget := 0; ; budget++ {
			ctx := &countdownCtx{Context: context.Background(), left: budget}
			r, err := c.Resolve(ctx, objs, Options{Workers: 1, DisableDedup: disable})
			if err == nil {
				break // budget outlasted the scan: complete result
			}
			if !errors.Is(err, ErrResolveAborted) {
				t.Fatalf("budget=%d: err=%v want ErrResolveAborted", budget, err)
			}
			if r == nil {
				t.Fatalf("budget=%d: aborted resolve must return the partial result", budget)
			}
			for _, k := range r.Keys() {
				poss, err := r.Lookup(probe, k)
				switch {
				case errors.Is(err, ErrResolveAborted): // dropped: explicit sentinel
				case err == nil:
					want := full.Possible(probe, k)
					if len(poss) != len(want) {
						t.Fatalf("budget=%d obj %s: partial %v vs full %v", budget, k, poss, want)
					}
					for i := range poss {
						if poss[i] != want[i] {
							t.Fatalf("budget=%d obj %s: partial %v vs full %v", budget, k, poss, want)
						}
					}
				default:
					t.Fatalf("budget=%d obj %s: unexpected error %v", budget, k, err)
				}
			}
			if budget > 10000 {
				t.Fatal("scan never completed under a growing budget")
			}
		}
	}
}

// TestDedupSharesResultRows: objects with equal signatures share the whole
// per-support row by pointer, the mechanism that makes clustered batches
// sublinear in objects.
func TestDedupSharesResultRows(t *testing.T) {
	n := tn.New()
	r1, r2 := n.AddUser("r1"), n.AddUser("r2")
	a := n.AddUser("a")
	n.SetExplicit(r1, "seed")
	n.SetExplicit(r2, "seed")
	n.AddMapping(r1, a, 1)
	n.AddMapping(r2, a, 1) // tie: a floods from both roots
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	objs := map[string]map[int]tn.Value{
		"k1": {r1: "x", r2: "y"},
		"k2": {r1: "x", r2: "y"},
		"k3": {r1: "y", r2: "x"},
	}
	r, err := c.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := r.Possible(a, "k1"), r.Possible(a, "k2")
	if &p1[0] != &p2[0] {
		t.Error("equal signatures must share the canonical result row")
	}
	if st := r.Dedup(); st.DistinctSignatures != 2 {
		t.Errorf("stats=%+v want 2 distinct signatures", st)
	}
	if got := r.Possible(a, "k3"); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("poss(a, k3)=%v want [x y]", got)
	}
}
