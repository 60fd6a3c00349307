package trustmap_test

// Cluster-level tests for internal/shard over real
// stores. These live in the external test package: the root-dir
// white-box tests (store_test.go) are package trustmap and cannot
// import internal/shard without a cycle through the public API.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"trustmap"
	"trustmap/internal/shard"
	"trustmap/wire"
)

// newCluster builds a router over n fresh in-memory shards seeded with
// one shared spine: three defaulted roots and a small trust graph.
func newCluster(t testing.TB, n int) *shard.Router {
	t.Helper()
	stores := make([]*trustmap.Store, n)
	for i := range stores {
		st, err := trustmap.NewStore()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		stores[i] = st
	}
	rt, err := shard.NewRouter(stores)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(func() { rt.Close() })
	ops := []wire.Op{
		{Op: wire.OpSetBelief, User: "alice", Value: "fish"},
		{Op: wire.OpSetBelief, User: "bob", Value: "cow"},
		{Op: wire.OpSetBelief, User: "carol", Value: "jar"},
		{Op: wire.OpSetTrust, Truster: "dave", Trusted: "alice", Priority: 1},
		{Op: wire.OpSetTrust, Truster: "dave", Trusted: "bob", Priority: 1},
	}
	if _, err := rt.Mutate(ops); err != nil {
		t.Fatalf("spine: %v", err)
	}
	return rt
}

// putKeys stores n objects through the router, spread across shards by
// ownership, each carrying one alice belief. Returns the sorted keys.
func putKeys(t testing.TB, rt *shard.Router, n int) []string {
	t.Helper()
	ctx := context.Background()
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("obj%04d", i)
		if err := rt.PutObject(ctx, key, map[string]string{"alice": "fish"}); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// TestClusterResolvedMergeOrder is the scatter-gather determinism test:
// Resolved over a cluster must stream rows in globally sorted key order
// — a k-way merge of the shards' disjoint sorted streams — with every
// row pinned to its own shard's epoch, even while concurrent writers
// keep bumping other shards' epochs mid-stream. Ordering is driven by
// keys, never by the racing epochs, so the merge order is deterministic.
func TestClusterResolvedMergeOrder(t *testing.T) {
	const shards = 4
	rt := newCluster(t, shards)
	keys := putKeys(t, rt, 60)
	ctx := context.Background()

	// Concurrent writers churn objects in a disjoint key space for the
	// whole duration of the streamed reads below: the merge must stay
	// sorted and each row must stay on its pinned per-shard epoch.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("churn%03d", i%50)
			if err := rt.PutBelief(ctx, "bob", key, "cow"); err != nil {
				t.Errorf("churn put: %v", err)
				return
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	for round := 0; round < 5; round++ {
		// Pin each shard's epoch at stream start: rows from shard i must
		// carry an epoch >= that pin (their shard's snapshot), and the
		// stream must visit at least the pre-churn keys in sorted order.
		pinned := make([]uint64, shards)
		for i := range pinned {
			pinned[i] = rt.Shard(i).Epoch()
		}
		var got []string
		epochs := make(map[int]uint64) // shard -> the one epoch its rows carried
		for row, err := range rt.Resolved(ctx) {
			if err != nil {
				t.Fatalf("round %d: stream error: %v", round, err)
			}
			if n := len(got); n > 0 && row.Object <= got[n-1] {
				t.Fatalf("round %d: %q streamed after %q: merge not globally sorted", round, row.Object, got[n-1])
			}
			got = append(got, row.Object)
			o := rt.Owner(row.Object)
			if e, ok := epochs[o]; ok && e != row.Epoch() {
				t.Fatalf("round %d: shard %d rows carry epochs %d and %d: not pinned per shard", round, o, e, row.Epoch())
			}
			epochs[o] = row.Epoch()
			if row.Epoch() < pinned[o] {
				t.Fatalf("round %d: shard %d row at epoch %d, pinned at least %d", round, o, row.Epoch(), pinned[o])
			}
		}
		// The stable keys must all appear (churn keys may interleave).
		set := make(map[string]bool, len(got))
		for _, k := range got {
			set[k] = true
		}
		for _, k := range keys {
			if !set[k] {
				t.Fatalf("round %d: stream missed stable key %q", round, k)
			}
		}
	}
}

// TestClusterReadYourWrites checks the aggregate epoch bound: after any
// routed write returns, a read of that object — and the cluster-wide
// Epoch() — must observe it.
func TestClusterReadYourWrites(t *testing.T) {
	rt := newCluster(t, 3)
	ctx := context.Background()
	before := rt.Epoch()
	if err := rt.PutObject(ctx, "ryw", map[string]string{"alice": "knot"}); err != nil {
		t.Fatalf("put: %v", err)
	}
	row, err := rt.ResolveObject(ctx, "ryw")
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if poss, _, err := row.Lookup("alice"); err != nil || len(poss) != 1 || poss[0] != "knot" {
		t.Fatalf("alice on ryw = (%v, %v), want [knot]", poss, err)
	}
	if after := rt.Epoch(); after < before {
		t.Fatalf("cluster epoch went backwards: %d -> %d", before, after)
	}
}

// TestClusterRejectsEmptyUser is the regression test for one malformed
// request poisoning a whole cluster: an object write naming the empty
// user used to be applied on the owner shard ("" became a user and a plan
// root there), fail the AddRoots broadcast on the next shard, and poison
// the router for every later write. The public mutators now reject it
// before anything is applied.
func TestClusterRejectsEmptyUser(t *testing.T) {
	rt := newCluster(t, 4)
	ctx := context.Background()
	if err := rt.PutObject(ctx, "k", map[string]string{"": "x"}); err == nil || errors.Is(err, trustmap.ErrPoisoned) {
		t.Fatalf("PutObject with an empty user: err=%v, want a plain rejection", err)
	}
	if err := rt.PutBelief(ctx, "", "k", "x"); err == nil || errors.Is(err, trustmap.ErrPoisoned) {
		t.Fatalf("PutBelief with an empty user: err=%v, want a plain rejection", err)
	}
	if err := rt.PutObject(ctx, "k", map[string]string{"alice": "knot"}); err != nil {
		t.Fatalf("valid write after the rejected ones: %v", err)
	}
	if _, ok := rt.Object("k"); !ok {
		t.Error("valid write did not land")
	}
	for i := 0; i < rt.Shards(); i++ {
		if slices.Contains(rt.Shard(i).Users(), "") {
			t.Errorf("shard %d lists the empty user", i)
		}
	}
}
