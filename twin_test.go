package trustmap

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// Twin tests: how the store keeps its binarized twin in step with its
// network (twin.go), observed through the plan-maintenance counters.

// twinClassificationDigest is the FNV-64a digest of the per-op
// classification TestTwinClassificationDigest records.
const twinClassificationDigest = 0x74cae9572ba2a751

// TestTwinClassificationDigest pins how the store classifies every
// trust-network mutation of a fixed seeded stream: after each op it
// hashes the op kind, whether the op took effect, and the Compiles,
// IncrementalApplies, ValueOnlyUpdates, FullRecompiles and Epoch
// counters. The networks have in-degree 0–5 (so cascaded trusters occur)
// and one extra root; the ops are add, remove and update trust plus
// set-belief. A change to how the twin is maintained must leave the
// digest alone: it proves the engine is asked for the same calls — an
// incremental apply, a value-only update or a full rebuild — op for op.
func TestTwinClassificationDigest(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(37))
	h := fnv.New64a()
	name := func(i int) string { return fmt.Sprintf("u%d", i) }
	const nUsers = 7
	for round := 0; round < 40; round++ {
		n := New()
		for i := 0; i < nUsers; i++ {
			n.AddUser(name(i))
		}
		for x := 0; x < nUsers; x++ {
			for _, p := range rng.Perm(nUsers)[:rng.Intn(6)] {
				if p != x {
					n.AddTrust(name(x), name(p), 1+rng.Intn(5))
				}
			}
		}
		n.SetBelief(name(rng.Intn(nUsers)), "v0")
		opts := []StoreOption{WithExtraRoots(name(rng.Intn(nUsers)))}
		if round%2 == 1 {
			opts = append(opts, WithMaxDirtyFraction(1))
		}
		s, err := n.NewStore(opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			kind, a, b, prio := rng.Intn(4), name(rng.Intn(nUsers)), name(rng.Intn(nUsers)), 1+rng.Intn(5)
			var ok bool
			switch kind {
			case 0:
				ok = a != b && txAddTrust(s, a, b, prio) == nil
			case 1:
				ok, err = s.RemoveTrust(ctx, a, b)
			case 2:
				ok, err = txUpdateTrust(s, a, b, prio)
			case 3:
				err = s.SetDefault(ctx, a, fmt.Sprintf("v%d", prio%3))
				ok = err == nil
			}
			if err != nil {
				t.Fatalf("round %d op %d: %v", round, i, err)
			}
			st := s.Stats()
			fmt.Fprintf(h, "%d %t %d %d %d %d %d\n", kind, ok,
				st.Compiles, st.IncrementalApplies, st.ValueOnlyUpdates, st.FullRecompiles, st.Epoch)
		}
	}
	if got := h.Sum64(); got != twinClassificationDigest {
		t.Fatalf("classification digest %#x, want %#x", got, uint64(twinClassificationDigest))
	}
}

// TestTwinRevokedHoistedBelief runs twinWedge on a durable store: a
// belief hoisted onto its helper, the mapping that forced the hoist
// revoked, then the belief revoked. The helper must stop carrying the
// belief, or every later resolve misses a belief for the helper as a
// root. The store must resolve like a fresh compile right after the ops
// and again after a reopen that replays them from the WAL — with no
// checkpoint in between, since recompiling a snapshot would hide a twin
// that replay rebuilds wrong.
func TestTwinRevokedHoistedBelief(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := mustOpenStore(t, dir, WithDurability(DurabilityAlways), WithMaxDirtyFraction(1))
	if err := s.SetDefault(ctx, "u1", "v0"); err != nil {
		t.Fatal(err)
	}
	for _, op := range twinWedge {
		a, b := fmt.Sprintf("u%d", op.a), fmt.Sprintf("u%d", op.b)
		var err error
		switch op.kind {
		case 0:
			err = s.SetTrust(ctx, a, b, op.prio)
		case 1:
			_, err = s.RemoveTrust(ctx, a, b)
		case 3:
			err = s.SetDefault(ctx, a, "v1")
		case 4:
			err = s.DeleteDefault(ctx, a)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	objects := map[string]map[string]string{"o1": {"u1": "v1"}, "o2": {"u1": "v2"}}
	check := func(label string, s *Store) {
		t.Helper()
		r, err := s.Resolve(ctx, nil)
		if err != nil {
			t.Fatalf("%s: resolve: %v", label, err)
		}
		if v, ok := r.Certain("u0"); ok {
			t.Fatalf("%s: cert(u0)=%q, want none: u0 trusts nobody and believes nothing", label, v)
		}
		assertMatchesFresh(t, label, s, objects)
	}
	check("after the ops", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpenStore(t, dir, WithDurability(DurabilityAlways), WithMaxDirtyFraction(1))
	defer r.Close()
	check("after replay", r)
}

// TestTwinTrustOpSharesRootTables checks that a trust mutation that
// moves no belief carrier publishes an epoch sharing the previous
// epoch's root tables instead of copying them, while one that hoists a
// belief publishes fresh ones.
func TestTwinTrustOpSharesRootTables(t *testing.T) {
	n := New()
	n.AddTrust("a", "b", 1)
	n.SetBelief("b", "v")
	s, err := n.NewStore(WithMaxDirtyFraction(1))
	if err != nil {
		t.Fatal(err)
	}
	roots := func() uintptr {
		e := s.pub.Acquire()
		defer e.Release()
		return reflect.ValueOf(e.Value().rootNode).Pointer()
	}
	first, epoch := roots(), s.Epoch()
	if err := txAddTrust(s, "a", "c", 2); err != nil { // a holds no belief
		t.Fatal(err)
	}
	if s.Epoch() == epoch || roots() != first {
		t.Fatalf("epoch %d -> %d, root table shared %v: want a new epoch sharing the root table", epoch, s.Epoch(), roots() == first)
	}
	if err := txAddTrust(s, "b", "c", 2); err != nil { // hoists b's belief
		t.Fatal(err)
	}
	if roots() == first {
		t.Fatal("hoisting b's belief kept the old root table")
	}
}
