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
// tiered power-law network at three sizes. The ceilings sit 10% above the
// measured value, which spans the runtime's run-to-run spread. Compile is
// linear in what it plans: each Step-2 round runs Tarjan over one
// component's members on reused scratch, so 4× the users costs about 4.4×
// the bytes. A Tarjan pass over the whole graph per flood round would
// blow the n=4000 ceiling more than a hundredfold.
func TestCompileApplyBytesBudget(t *testing.T) {
	// Last moved: measured on 0d04d3a plus the member-list Tarjan
	// (graph.SCCOf) in planInto and Apply. Compile spread over twelve
	// runs was 315 872–321 472 B at n=250, 1 388 960–1 394 928 B at n=1000
	// and 6 314 032–6 319 520 B at n=4000; Apply measured 106 912 B,
	// 421 856 B and 1 664 256 B (one run 112 416 B at n=250).
	for _, c := range []struct {
		users          int
		compile, apply uint64
	}{
		{250, 321_472 * 11 / 10, 106_912 * 11 / 10},
		{1000, 1_394_928 * 11 / 10, 421_856 * 11 / 10},
		{4000, 6_319_520 * 11 / 10, 1_664_256 * 11 / 10},
	} {
		n := tn.Binarize(workload.PowerLawTiered(rand.New(rand.NewSource(1)), c.users, 3, 3, 0.1, []tn.Value{"a", "b", "c"}))
		n.EnableJournal()
		var cn *engine.CompiledNetwork
		if got := allocatedBytes(func() {
			var err error
			if cn, err = engine.Compile(n); err != nil {
				t.Fatal(err)
			}
			cn.Stats() // forces root-support derivation
		}); got > c.compile {
			t.Errorf("n=%d: Compile+Stats allocated %d B, budget %d", c.users, got, c.compile)
		}

		parent, child, _ := bench.LeafEdge(n)
		n.RemoveMapping(parent, child)
		delta := n.DrainJournal()
		if got := allocatedBytes(func() {
			if _, _, err := cn.Apply(delta, engine.ApplyOptions{}); err != nil {
				t.Fatal(err)
			}
		}); got > c.apply {
			t.Errorf("n=%d: one-edge Apply allocated %d B, budget %d", c.users, got, c.apply)
		}
	}
}
