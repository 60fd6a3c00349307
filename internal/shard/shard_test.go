package shard

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"trustmap"
	"trustmap/internal/tn"
	"trustmap/internal/workload"
	"trustmap/wire"
)

// world is one deterministic internal/workload scenario in wire terms:
// the spine as a mutate batch, the stored objects as name-keyed beliefs.
type world struct {
	spine   []wire.Op
	users   []string
	objects map[string]map[string]string
	keys    []string // sorted
}

func newWorld() world {
	rng := rand.New(rand.NewSource(7))
	src := workload.PowerLaw(rng, 60, 2, 0.15, []tn.Value{"fish", "knot", "cow"})
	var w world
	var roots []int
	for x := 0; x < src.NumUsers(); x++ {
		w.users = append(w.users, src.Name(x))
		for _, m := range src.In(x) {
			w.spine = append(w.spine, wire.Op{Op: wire.OpAddTrust, Truster: src.Name(x), Trusted: src.Name(m.Parent), Priority: m.Priority})
		}
		if src.HasExplicit(x) {
			roots = append(roots, x)
			w.spine = append(w.spine, wire.Op{Op: wire.OpSetBelief, User: src.Name(x), Value: string(src.Explicit(x))})
		}
	}
	objs := workload.BulkObjects(rng, roots, 40)
	w.keys = workload.ObjectKeys(objs)
	w.objects = make(map[string]map[string]string, len(objs))
	for k, bs := range objs {
		m := make(map[string]string, len(bs))
		for id, v := range bs {
			m[src.Name(id)] = string(v)
		}
		w.objects[k] = m
	}
	return w
}

// seed loads the world through the Backend surface, so a Router takes
// its broadcast and routing paths.
func (w world) seed(t *testing.T, b Backend) {
	t.Helper()
	if applied, err := b.Mutate(w.spine); err != nil || applied != len(w.spine) {
		t.Fatalf("seeding spine: applied %d of %d: %v", applied, len(w.spine), err)
	}
	for _, k := range w.keys {
		if err := b.PutObject(context.Background(), k, w.objects[k]); err != nil {
			t.Fatalf("PutObject(%s): %v", k, err)
		}
	}
}

func memRouter(t *testing.T, shards int) *Router {
	t.Helper()
	stores := make([]*trustmap.Store, shards)
	for i := range stores {
		st, err := trustmap.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	rt, err := NewRouter(stores)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// cell is one (user, object) answer, comparable across backends.
type cell struct {
	possible []string
	certain  string
	unknown  bool
}

func cellOf(possible []string, certain string, err error) cell {
	return cell{possible: possible, certain: certain, unknown: err != nil}
}

func (c cell) equal(o cell) bool {
	return c.certain == o.certain && c.unknown == o.unknown && slices.Equal(c.possible, o.possible)
}

// rowKeys lists the rows' object keys in row order.
func rowKeys(rows []trustmap.ObjectRow) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = row.Object
	}
	return keys
}

// TestBackendsAgreeCellByCell is the in-package parity check: one store,
// a 1-shard router, and a 4-shard router seeded with the same world must
// answer Resolve, BulkResolve, ResolveObject, and Objects identically,
// and the routers' merged ResolveAll rows must match them cell by cell.
func TestBackendsAgreeCellByCell(t *testing.T) {
	w := newWorld()
	st, err := trustmap.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	backends := []struct {
		name string
		b    Backend
	}{
		{"single", NewSingleStore(st)},
		{"router-1", memRouter(t, 1)},
		{"router-4", memRouter(t, 4)},
	}
	for _, be := range backends {
		w.seed(t, be.b)
	}
	ctx := context.Background()
	ref := backends[0]
	refBulk, err := ref.b.BulkResolve(ctx, w.objects)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowKeys(refBulk); !slices.Equal(got, w.keys) {
		t.Fatalf("single: BulkResolve keys %v, want %v", got, w.keys)
	}
	for _, be := range backends[1:] {
		if got, want := be.b.Objects(), ref.b.Objects(); !slices.Equal(got, want) || !slices.Equal(got, w.keys) {
			t.Fatalf("%s: Objects() = %v, want %v", be.name, got, want)
		}
		bulk, err := be.b.BulkResolve(ctx, w.objects)
		if err != nil {
			t.Fatalf("%s: BulkResolve: %v", be.name, err)
		}
		if got := rowKeys(bulk); !slices.Equal(got, w.keys) {
			t.Fatalf("%s: BulkResolve keys %v, want %v", be.name, got, w.keys)
		}
		all, err := be.b.(*Router).ResolveAll(ctx)
		if err != nil {
			t.Fatalf("%s: ResolveAll: %v", be.name, err)
		}
		if got := rowKeys(all); !slices.Equal(got, w.keys) {
			t.Fatalf("%s: ResolveAll keys %v, want %v", be.name, got, w.keys)
		}
		for i, k := range w.keys {
			row, err := be.b.ResolveObject(ctx, k)
			if err != nil {
				t.Fatalf("%s: ResolveObject(%s): %v", be.name, k, err)
			}
			refRow, err := ref.b.ResolveObject(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			adhoc, err := be.b.Resolve(ctx, w.objects[k])
			if err != nil {
				t.Fatalf("%s: Resolve(%s): %v", be.name, k, err)
			}
			for _, u := range append([]string{"ghost"}, w.users...) {
				want := cellOf(refRow.Lookup(u))
				for via, got := range map[string]cell{
					"ResolveObject": cellOf(row.Lookup(u)),
					"Resolve":       cellOf(adhoc.Lookup(u)),
					"BulkResolve":   cellOf(bulk[i].Lookup(u)),
					"ResolveAll":    cellOf(all[i].Lookup(u)),
				} {
					if !got.equal(want) {
						t.Fatalf("%s: %s(%s, %s) = %+v, single store says %+v", be.name, via, u, k, got, want)
					}
				}
			}
		}
	}
}

// TestPoisonIsSticky forces a root broadcast to fail and checks the
// router's poison contract: every mutator answers the same error wrapping
// trustmap.ErrPoisoned from then on, while reads keep serving.
func TestPoisonIsSticky(t *testing.T) {
	w := newWorld()
	rt := memRouter(t, 4)
	w.seed(t, rt)
	ctx := context.Background()
	key := w.keys[0]

	// AddRoots refuses the empty name on the first non-owner shard: the
	// broadcast fails midway, exactly the divergence poison guards.
	poison := rt.broadcastRoots(ctx, rt.Owner(key), []string{""})
	if !errors.Is(poison, trustmap.ErrPoisoned) {
		t.Fatalf("forced broadcast failure: err=%v, want ErrPoisoned", poison)
	}

	_, mutateErr := rt.Mutate([]wire.Op{{Op: wire.OpSetTrust, Truster: "site1", Trusted: "site0", Priority: 3}})
	_, delObjErr := rt.DeleteObject(ctx, key)
	_, delBeliefErr := rt.DeleteBelief(ctx, "site0", key)
	for name, err := range map[string]error{
		"Mutate":       mutateErr,
		"PutObject":    rt.PutObject(ctx, key, w.objects[key]),
		"DeleteObject": delObjErr,
		"PutBelief":    rt.PutBelief(ctx, "site0", key, "fish"),
		"DeleteBelief": delBeliefErr,
	} {
		if err == nil || err.Error() != poison.Error() || !errors.Is(err, trustmap.ErrPoisoned) {
			t.Errorf("%s after poison: err=%v, want %v", name, err, poison)
		}
	}

	if got := rt.Objects(); !slices.Equal(got, w.keys) {
		t.Errorf("Objects() after poison = %v, want %v", got, w.keys)
	}
	if _, err := rt.ResolveObject(ctx, key); err != nil {
		t.Errorf("ResolveObject after poison: %v", err)
	}
	if _, err := rt.Resolve(ctx, w.objects[key]); err != nil {
		t.Errorf("Resolve after poison: %v", err)
	}
	if _, err := rt.BulkResolve(ctx, w.objects); err != nil {
		t.Errorf("BulkResolve after poison: %v", err)
	}
	rows := 0
	for _, err := range rt.Resolved(ctx) {
		if err != nil {
			t.Fatalf("Resolved after poison: %v", err)
		}
		rows++
	}
	if rows != len(w.keys) {
		t.Errorf("Resolved after poison streamed %d rows, want %d", rows, len(w.keys))
	}
}

// cancelAfterFirstCheck is a request context that is cancelled between
// its first Err check and its second: the owning shard admits the write,
// then the client goes away before the root broadcast runs.
type cancelAfterFirstCheck struct {
	context.Context
	checks atomic.Int32
}

func (c *cancelAfterFirstCheck) Err() error {
	if c.checks.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestCancelledRoutedWriteDoesNotPoison pins that a request cancelled
// after its owner's write committed still completes the root broadcast:
// the write is durable on the owner, so the other shards must register
// its roots whatever the client does, and a cancellation is no evidence
// that the root sets diverged.
func TestCancelledRoutedWriteDoesNotPoison(t *testing.T) {
	w := newWorld()
	rt := memRouter(t, 4)
	w.seed(t, rt)
	key := w.keys[0]
	bg := context.Background()

	if err := rt.PutBelief(&cancelAfterFirstCheck{Context: bg}, "site0", key, "fish"); err != nil {
		t.Fatalf("PutBelief cancelled after admission: %v", err)
	}
	if got, _ := rt.Object(key); got["site0"] != "fish" {
		t.Fatalf("owner's write did not land: %v", got)
	}
	beliefs := map[string]string{"site0": "knot", "site1": "cow"}
	if err := rt.PutObject(&cancelAfterFirstCheck{Context: bg}, "fresh", beliefs); err != nil {
		t.Fatalf("PutObject cancelled after admission: %v", err)
	}
	if ok, err := rt.DeleteObject(bg, key); err != nil || !ok {
		t.Fatalf("DeleteObject after the cancelled writes: ok=%v err=%v", ok, err)
	}
	if _, err := rt.Mutate([]wire.Op{{Op: wire.OpSetTrust, Truster: "site1", Trusted: "site0", Priority: 3}}); err != nil {
		t.Fatalf("Mutate after the cancelled writes: %v", err)
	}
}
