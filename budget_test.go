package trustmap

// Counted performance budgets. The paper's performance results are
// complexity claims (Algorithm 1 is PTIME, quasi-linear on the Figure 8
// data sets, quadratic only on nested SCCs), and a count pins those where
// a wall-clock reading on a small shared host cannot. Each budget is a
// constant, exact where the count is deterministic and a ceiling where
// the runtime adds jitter; the comment above it names the commit that
// last moved it. A change that moves a count moves the constant in the
// same commit, so the diff shows the cost. `go test -run Budget .` runs
// them all; `go run ./benchmark` times the serving layers end to end.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"trustmap/internal/bench"
	"trustmap/internal/engine"
	"trustmap/internal/tn"
	"trustmap/internal/workload"
)

// TestWALBytesBudget pins the framed WAL bytes each op class appends, on
// a fresh durable store with no fsync. The record encoding is the only
// thing that should move these; a binary WAL encoding would lower all of
// them together.
func TestWALBytesBudget(t *testing.T) {
	ctx := context.Background()
	st := mustOpenStore(t, t.TempDir(), WithDurability(DurabilityOff))
	defer st.Close()
	ignoreOK := func(_ bool, err error) error { return err }
	// Last moved: measured at db37d05 (JSON WAL records).
	for _, op := range []struct {
		name  string
		do    func() error
		bytes uint64
	}{
		{"SetDefault(bob,fish)", func() error { return st.SetDefault(ctx, "bob", "fish") }, 94},
		{"SetTrust(alice,bob,10)", func() error { return st.SetTrust(ctx, "alice", "bob", 10) }, 113},
		{"PutObject(obj001,{bob:fish,carol:cow})", func() error {
			return st.PutObject(ctx, "obj001", map[string]string{"bob": "fish", "carol": "cow"})
		}, 123},
		{"PutBelief(bob,obj001,knot)", func() error { return st.PutBelief(ctx, "bob", "obj001", "knot") }, 112},
		{"DeleteBelief(bob,obj001)", func() error { return ignoreOK(st.DeleteBelief(ctx, "bob", "obj001")) }, 100},
		{"DeleteObject(obj001)", func() error { return ignoreOK(st.DeleteObject(ctx, "obj001")) }, 87},
		{"RemoveTrust(alice,bob)", func() error { return ignoreOK(st.RemoveTrust(ctx, "alice", "bob")) }, 102},
		{"DeleteDefault(bob)", func() error { return st.DeleteDefault(ctx, "bob") }, 82},
	} {
		before := st.Durability().WALBytes
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if got := st.Durability().WALBytes - before; got != op.bytes {
			t.Errorf("%s appended %d WAL bytes, budget %d", op.name, got, op.bytes)
		}
	}

	// Snapshot bytes on the same store: a fixed header plus a per-object
	// term, so 100 more objects cost 100 × 55 B.
	// Last moved: measured at db37d05 (JSON snapshot encoding).
	put := 0
	for _, c := range []struct {
		objects int
		bytes   int
	}{{100, 5_631}, {200, 11_131}} {
		for ; put < c.objects; put++ {
			if err := st.PutObject(ctx, fmt.Sprintf("obj%03d", put), map[string]string{"bob": "fish", "carol": "cow"}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		raw, _, ok, err := st.SnapshotBlob()
		if err != nil || !ok {
			t.Fatalf("SnapshotBlob: ok=%v err=%v", ok, err)
		}
		if len(raw) != c.bytes {
			t.Errorf("snapshot of %d objects is %d bytes, budget %d", c.objects, len(raw), c.bytes)
		}
	}
}

// allocatedBytes reports the heap bytes f allocates, started from a
// collected heap so an earlier test's garbage cannot be charged to f.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCompileApplyBytesBudget ceilings the bytes a full Compile (plan
// plus root supports) and a journaled one-edge Apply allocate on the
// tiered power-law network at three sizes. Each is charged the minimum
// over three identical fresh trials, so a runtime allocation in the middle
// of one trial cannot fail it, and the ceilings sit 10% above the
// measured value, which also covers the race build (about 5% more on
// Compile). Compile is linear in what it plans: each Step-2 round runs
// Tarjan over one component's members on reused scratch, where a pass
// over the whole graph per flood round would blow the n=4000 ceiling more
// than a hundredfold. An Apply costs what it dirties: it copies the pages
// its region writes and the page directories, so 16× the users may cost
// at most twice the bytes.
func TestCompileApplyBytesBudget(t *testing.T) {
	// Last moved: measured on 21c4227, paged copy-on-write plan tables.
	// Compile spread over six runs was 260 656–261 200 B at n=250,
	// 1 037 808–1 037 904 B at n=1000 and 4 297 632–4 298 080 B at
	// n=4000; Apply measured 10 360 B, 10 984 B and 13 576 B in every run.
	var applies []uint64
	for _, c := range []struct {
		users          int
		compile, apply uint64
	}{
		{250, 261_200 * 11 / 10, 10_360 * 11 / 10},
		{1000, 1_037_904 * 11 / 10, 10_984 * 11 / 10},
		{4000, 4_298_080 * 11 / 10, 13_576 * 11 / 10},
	} {
		compile, apply := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for trial := 0; trial < 3; trial++ {
			n := tn.Binarize(workload.PowerLawTiered(rand.New(rand.NewSource(1)), c.users, 3, 3, 0.1, []tn.Value{"a", "b", "c"}))
			n.EnableJournal()
			var cn *engine.CompiledNetwork
			compile = min(compile, allocatedBytes(func() {
				var err error
				if cn, err = engine.Compile(n); err != nil {
					t.Fatal(err)
				}
				cn.Stats() // forces root-support derivation
			}))
			parent, child, _ := bench.LeafEdge(n)
			n.RemoveMapping(parent, child)
			delta := n.DrainJournal()
			apply = min(apply, allocatedBytes(func() {
				if _, _, err := cn.Apply(delta, engine.ApplyOptions{}); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if compile > c.compile {
			t.Errorf("n=%d: Compile+Stats allocated %d B, budget %d", c.users, compile, c.compile)
		}
		if apply > c.apply {
			t.Errorf("n=%d: one-edge Apply allocated %d B, budget %d", c.users, apply, c.apply)
		}
		applies = append(applies, apply)
	}
	if first, last := applies[0], applies[len(applies)-1]; last > 2*first {
		t.Errorf("one-edge Apply allocated %d B at n=4000 against %d B at n=250: more than twice", last, first)
	}
}

// churnEdge is one trust mapping a churn test re-prioritises.
type churnEdge struct {
	truster, trusted string
	prio, other      int // the mapping's priority and the truster's other parent's
}

// churnStore returns an in-memory store over the tiered power-law network
// PowerLawTiered(1500, 2, 3, 0.1) and the mappings whose re-prioritisation
// the store splices incrementally: the truster holds no default belief
// (no Binarize cascade), has two parents, and its forward closure is under
// 5 % of the network (the engine recompiles above 25 %).
func churnStore(t *testing.T) (*Store, []churnEdge) {
	t.Helper()
	w := workload.PowerLawTiered(rand.New(rand.NewSource(1)), 1500, 2, 3, 0.1, []tn.Value{"a", "b", "c"})
	st, err := (&Network{inner: w, constraints: make(map[int][]string)}).NewStore(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	g := w.Graph()
	var edges []churnEdge
	for x := 0; x < w.NumUsers(); x++ {
		if w.HasExplicit(x) || len(w.In(x)) != 2 {
			continue
		}
		if reach := g.Reachable([]int{x}, nil); countTrue(reach)*20 >= w.NumUsers() {
			continue
		}
		m, o := w.In(x)[0], w.In(x)[1]
		edges = append(edges, churnEdge{w.Name(x), w.Name(m.Parent), m.Priority, o.Priority})
	}
	if len(edges) < 64 {
		t.Fatalf("only %d re-prioritisable mappings", len(edges))
	}
	return st, edges
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// reprioritise moves e to the other side of the truster's other parent,
// which changes the truster's preferred parent, and requires the store to
// splice the write incrementally.
func (e *churnEdge) reprioritise(t *testing.T, st *Store) {
	t.Helper()
	if e.prio > e.other {
		e.prio = e.other - 1
	} else {
		e.prio = e.other + 1
	}
	before := st.Stats().IncrementalApplies
	if err := st.SetTrust(context.Background(), e.truster, e.trusted, e.prio); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().IncrementalApplies - before; got != 1 {
		t.Fatalf("SetTrust(%s, %s, %d) made %d incremental applies, want 1", e.truster, e.trusted, e.prio, got)
	}
}

// TestSpineWriteBytesBudget ceilings the mean bytes one incremental trust
// write allocates end to end in the store (re-encoding, Apply and the
// epoch publication) on the trust-churn benchmark's network size: an
// update should cost what it dirties, not a copy of every per-node table.
func TestSpineWriteBytesBudget(t *testing.T) {
	st, edges := churnStore(t)
	const writes = 400
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < writes; i++ {
		e := &edges[i%len(edges)]
		runtime.ReadMemStats(&before)
		e.reprioritise(t, st)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	const budget = 72 << 10
	if mean := total / writes; mean > budget {
		t.Errorf("incremental SetTrust allocated %d B on average, budget %d", mean, budget)
	}
}

// TestCachedObjectBytesBudget ceilings the live heap one cached
// resolution costs on the serve-read benchmark's world: the tiered
// power-law network PowerLawTiered(4000, 2, 3, 0.1) over four values and
// 5 000 objects with three root beliefs each, every object read once by
// ResolveObject, so every object's record keeps one resolution. The
// figure is the live-heap growth over the reads divided by the objects.
func TestCachedObjectBytesBudget(t *testing.T) {
	ctx := context.Background()
	st, beliefs := serveReadWorld(t)
	const objects = 5000
	for i := 0; i < objects; i++ {
		if err := st.PutObject(ctx, fmt.Sprintf("obj%06d", i), beliefs()); err != nil {
			t.Fatal(err)
		}
	}
	base := liveHeap()
	for i := 0; i < objects; i++ {
		if _, err := st.ResolveObject(ctx, fmt.Sprintf("obj%06d", i)); err != nil {
			t.Fatal(err)
		}
	}
	perObject := (int64(liveHeap()) - int64(base)) / objects
	runtime.KeepAlive(st)
	if misses := st.Stats().CacheMisses; misses != objects {
		t.Fatalf("%d cache misses, want one per object (%d)", misses, objects)
	}
	// Last moved: 9261190, one immutable record per stored object in
	// place of a cache entry sharing its whole batch. Measured 3 271–
	// 3 273 B over four runs at its parent 8df3184 and 2 689–2 690 B over
	// four runs at 9261190. Before that: 16 383 B at 31c515c (a
	// []tn.Value header per support), 3 400–3 402 B at 21d27f1 (one
	// interned set id per support).
	const budget = 3 << 10 // below the parent's 3 272 B
	if perObject > budget {
		t.Errorf("a cached object costs %d B of live heap, budget %d", perObject, budget)
	}
	t.Logf("%d B of live heap per cached object", perObject)
}

// serveReadWorld returns an empty-object store over the serve-read
// benchmark's network, PowerLawTiered(4000, 2, 3, 0.1) over four values
// (393 roots), and a seeded source of object beliefs: three random roots,
// each with a random value.
func serveReadWorld(t *testing.T) (*Store, func() map[string]string) {
	t.Helper()
	vals := []tn.Value{"v0", "v1", "v2", "v3"}
	w := workload.PowerLawTiered(rand.New(rand.NewSource(1)), 4000, 2, 3, 0.1, vals)
	st, err := (&Network{inner: w, constraints: make(map[int][]string)}).NewStore(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var roots []string
	for x := 0; x < w.NumUsers(); x++ {
		if w.HasExplicit(x) {
			roots = append(roots, w.Name(x))
		}
	}
	rng := rand.New(rand.NewSource(2))
	return st, func() map[string]string {
		beliefs := make(map[string]string, 3)
		for len(beliefs) < 3 {
			beliefs[roots[rng.Intn(len(roots))]] = string(vals[rng.Intn(len(vals))])
		}
		return beliefs
	}
}

// TestAdhocResolveRetainsNothing ceilings the live heap that ad-hoc
// Store.Resolve calls leave behind on the serve-read benchmark's world:
// their results are not stored, so after a warm-up (value interning and
// scratch pools) 2 000 more calls over random root beliefs must not grow
// the live heap.
func TestAdhocResolveRetainsNothing(t *testing.T) {
	ctx := context.Background()
	st, beliefs := serveReadWorld(t)
	resolve := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := st.Resolve(ctx, beliefs()); err != nil {
				t.Fatal(err)
			}
		}
	}
	resolve(100)
	base := liveHeap()
	const calls = 2000
	resolve(calls)
	grown := int64(liveHeap()) - int64(base)
	runtime.KeepAlive(st)
	// Last moved: 09f19d4, no cross-batch signature cache. Its parent
	// 5bbb24d kept a cache entry per distinct call: 8.84 MB over the
	// 2 000 calls. Four runs at 09f19d4 shrank the heap by 48–52 KB.
	const budget = 64 << 10
	if grown > budget {
		t.Errorf("%d ad-hoc resolves grew the live heap by %d B, budget %d", calls, grown, budget)
	}
	t.Logf("%d ad-hoc resolves grew the live heap by %d B", calls, grown)
}

// liveHeap reports the live heap after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLiveHeapAfterChurnBudget runs trust writes, each followed by a
// point read of a different stored object, and requires the live heap to
// grow by less than two compiled artifacts: a record resolved at a
// superseded epoch must not keep that epoch's artifact reachable.
func TestLiveHeapAfterChurnBudget(t *testing.T) {
	ctx := context.Background()
	st, edges := churnStore(t)
	const objects = 64
	var roots []string
	for x := 0; x < st.net.NumUsers(); x++ {
		if st.net.HasExplicit(x) {
			roots = append(roots, st.net.Name(x))
		}
	}
	for i := 0; i < objects; i++ {
		beliefs := map[string]string{}
		for j := 0; j < 3; j++ {
			beliefs[roots[(3*i+j)%len(roots)]] = fmt.Sprintf("v%d", (i+j)%4)
		}
		if err := st.PutObject(ctx, fmt.Sprintf("obj%03d", i), beliefs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.ResolveAll(ctx); err != nil {
		t.Fatal(err)
	}

	// One artifact: a fresh compile of the store's binarized network, with
	// its root supports, held live.
	st.wmu.Lock()
	bin := st.bin.Clone()
	st.wmu.Unlock()
	base := liveHeap()
	artifact, err := engine.Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	artifact.Stats()
	one := liveHeap() - base
	runtime.KeepAlive(artifact)
	artifact, bin = nil, nil

	base = liveHeap()
	for i := 0; i < objects; i++ {
		edges[i].reprioritise(t, st)
		if _, err := st.ResolveObject(ctx, fmt.Sprintf("obj%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	grown := int64(liveHeap()) - int64(base)
	runtime.KeepAlive(st)
	if grown > 2*int64(one) {
		t.Errorf("%d writes and reads grew the live heap by %d B, budget 2 artifacts (2 × %d B)", objects, grown, one)
	}
}
