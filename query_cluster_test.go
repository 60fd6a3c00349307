package trustmap_test

// Cluster-level query tests: a query over a 4-shard cluster must answer
// exactly what the same data answers on one store (rows via the merged
// stream, aggregates via scatter-gathered partials), and abandoning a
// query mid-merge — context cancellation included — must release every
// pinned shard epoch. Benchmarks hold the greedy planner to the naive
// one on selective workloads.

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"trustmap/internal/query"
	"trustmap/internal/shard"
	"trustmap/wire"
)

// putVaried stores n objects with a rotating belief mix — agreements,
// overrides, and conflicts — so query answers are non-trivial. The same
// call against two clusters produces identical logical content.
func putVaried(t testing.TB, rt *shard.Router, n int) {
	t.Helper()
	ctx := context.Background()
	mixes := []map[string]string{
		{"alice": "fish"},
		{"alice": "fish", "bob": "cow"},
		{"bob": "knot", "carol": "jar"},
		{"alice": "cow", "bob": "cow", "carol": "cow"},
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("obj%04d", i)
		if err := rt.PutObject(ctx, key, mixes[i%len(mixes)]); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
}

// putDistinct stores n objects whose root beliefs all name the object,
// so no two objects share a possible set: leaving out the object column,
// no (object, user) row repeats another.
func putDistinct(t testing.TB, rt *shard.Router, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("obj%04d", i)
		if err := rt.PutObject(ctx, key, map[string]string{"alice": key + "a", "bob": key + "b", "carol": key + "c"}); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
}

// clusterQueries is the single-vs-cluster parity query list.
func clusterQueries() []wire.Query {
	return []wire.Query{
		// Row scan over the merged stream.
		{Where: []wire.Predicate{{Col: "disagrees", Op: wire.PredEq}}},
		// Key pushdown routed to one shard.
		{Where: []wire.Predicate{{Col: "object", Op: wire.PredEq, Value: "obj0007"}}},
		// Grouped aggregate: scatter-gathered partials, merged in global
		// key order.
		{
			GroupBy: []string{"object"},
			Aggs:    []wire.Aggregate{{Fn: wire.AggCount, As: "n"}, {Fn: wire.AggRate, Of: "disagrees", As: "dissent"}},
			Having:  []wire.Predicate{{Col: "dissent", Op: wire.PredGt, Value: 0}},
		},
		// Per-user acceptance rate across every shard's objects.
		{
			GroupBy: []string{"user"},
			Aggs:    []wire.Aggregate{{Fn: wire.AggRate, Of: "agrees", As: "acceptance"}, {Fn: wire.AggCount, As: "n"}},
			OrderBy: []wire.OrderKey{{Col: "acceptance", Desc: true}, {Col: "user"}},
		},
		// Global aggregate with min/max (exact partial merging).
		{Aggs: []wire.Aggregate{
			{Fn: wire.AggCount},
			{Fn: wire.AggSum, Of: "possible_count"},
			{Fn: wire.AggMin, Of: "certain"},
			{Fn: wire.AggMax, Of: "possible_count"},
		}},
		// Self-join over the merged stream.
		{
			Where: []wire.Predicate{
				{Col: "user", Op: wire.PredEq, Value: "alice"},
				{Col: "r_certain", Op: wire.PredNe, ColB: "certain"},
				{Col: "r_has_certain", Op: wire.PredEq},
			},
			Join: &wire.Join{On: []string{"object"}, Where: []wire.Predicate{{Col: "has_certain", Op: wire.PredEq}}},
		},
		// Order + limit over rows.
		{
			Select:  []string{"object", "user", "possible_count"},
			OrderBy: []wire.OrderKey{{Col: "possible_count", Desc: true}, {Col: "object"}, {Col: "user"}},
			Limit:   13,
		},
	}
}

// TestClusterQueryParity: identical data on one store and on a 4-shard
// cluster must answer every query identically — the scatter-gather
// decomposition and the merged-stream row path are both invisible.
func TestClusterQueryParity(t *testing.T) {
	single := newCluster(t, 1)
	cluster := newCluster(t, 4)
	putVaried(t, single, 40)
	putVaried(t, cluster, 40)
	ctx := context.Background()

	for i, q := range clusterQueries() {
		t.Run(fmt.Sprintf("q%02d", i), func(t *testing.T) {
			want, err := single.Query(ctx, q)
			if err != nil {
				t.Fatalf("single: %v", err)
			}
			got, err := cluster.Query(ctx, q)
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			if !reflect.DeepEqual(got.Columns, want.Columns) {
				t.Fatalf("columns: cluster %v, single %v", got.Columns, want.Columns)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("rows: cluster %d, single %d", len(got.Rows), len(want.Rows))
			}
			for r := range got.Rows {
				if !reflect.DeepEqual(got.Rows[r], want.Rows[r]) {
					t.Fatalf("row %d: cluster %v, single %v", r, got.Rows[r], want.Rows[r])
				}
			}
			if len(q.Aggs) > 0 && got.Stats.ShardPartials != 4 {
				t.Fatalf("aggregate ran %d shard partials, want 4", got.Stats.ShardPartials)
			}
		})
	}
}

// reclaimState reads each shard's (epoch, reclaimed) counters at a
// quiescent point.
func reclaimState(rt *shard.Router) (epochs, reclaimed []uint64) {
	for i := 0; i < rt.Shards(); i++ {
		st := rt.Shard(i).Stats()
		epochs = append(epochs, st.Epoch)
		reclaimed = append(reclaimed, st.EpochsReclaimed)
	}
	return
}

// TestClusterQueryCancellationReleasesEpochs: abandoning the merged
// stream mid-flight — by context cancellation or by an early stop — must
// release every shard's pinned epoch. The check is exact: across a
// quiescent window each shard reclaims precisely as many epochs as it
// retires, so one leaked pin shows up as a reclaim deficit after the
// next mutation. Run under -race by make race.
func TestClusterQueryCancellationReleasesEpochs(t *testing.T) {
	rt := newCluster(t, 4)
	putVaried(t, rt, 240)
	beforeEpochs, beforeReclaimed := reclaimState(rt)

	// Cancel mid-merge while consuming the raw multi-shard stream: every
	// shard has pinned its epoch by the first row.
	ctx, cancel := context.WithCancel(context.Background())
	rows := 0
	for _, err := range rt.Resolved(ctx) {
		if err != nil {
			break
		}
		rows++
		if rows == 5 {
			cancel()
		}
	}
	cancel()
	if rows < 5 {
		t.Fatalf("stream ended after %d rows, before the cancellation point", rows)
	}

	// Cancel a full-scan row query mid-execution.
	qctx, qcancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := rt.Query(qctx, wire.Query{Where: []wire.Predicate{{Col: "has_belief", Op: wire.PredEq}}})
		done <- err
	}()
	time.Sleep(300 * time.Microsecond)
	qcancel()
	<-done // either outcome is legal; the pins must drain regardless

	// Cancel a scatter-gathered aggregate mid-partial.
	actx, acancel := context.WithCancel(context.Background())
	go func() {
		_, err := rt.Query(actx, wire.Query{
			GroupBy: []string{"user"},
			Aggs:    []wire.Aggregate{{Fn: wire.AggCount}},
		})
		done <- err
	}()
	time.Sleep(300 * time.Microsecond)
	acancel()
	<-done

	// An early-stopped limit query abandons the merge the same way.
	limited, err := rt.Query(context.Background(), wire.Query{Limit: 3})
	if err != nil {
		t.Fatalf("limit query: %v", err)
	}
	if len(limited.Rows) != 3 {
		t.Fatalf("limit query answered %d rows, want 3", len(limited.Rows))
	}

	// Retire the epochs every abandoned read pinned: one broadcast
	// publication per shard. With every pin released, each shard reclaims
	// exactly as many epochs as it retired; a leaked pin would leave a
	// deficit that never heals.
	if _, err := rt.Mutate([]wire.Op{{Op: wire.OpSetBelief, User: "carol", Value: "knot"}}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	afterEpochs, afterReclaimed := reclaimState(rt)
	for i := range afterEpochs {
		retired := afterEpochs[i] - beforeEpochs[i]
		reclaimed := afterReclaimed[i] - beforeReclaimed[i]
		if retired == 0 {
			t.Fatalf("shard %d: no publication between measurements", i)
		}
		if reclaimed != retired {
			t.Fatalf("shard %d: retired %d epochs but reclaimed %d — an abandoned query leaked a pin",
				i, retired, reclaimed)
		}
	}
}

// BenchmarkQuery: the greedy planner against the naive one on a
// selective pattern (key pushdown vs full scan — greedy must never be
// slower), a full-scan grouped aggregate where the plans coincide, the
// same aggregate over objects whose rows never repeat, and the 4-shard
// scatter-gather paths.
func BenchmarkQuery(b *testing.B) {
	selective := wire.Query{Where: []wire.Predicate{
		{Col: "possible_count", Op: wire.PredGe, Value: 1},
		{Col: "object", Op: wire.PredEq, Value: "obj0100"},
		{Col: "user", Op: wire.PredEq, Value: "dave"},
	}}
	fullscan := wire.Query{
		GroupBy: []string{"user"},
		Aggs:    []wire.Aggregate{{Fn: wire.AggCount, As: "n"}, {Fn: wire.AggRate, Of: "agrees", As: "acceptance"}},
	}
	const objects = 512
	ctx := context.Background()

	single := newCluster(b, 1)
	putVaried(b, single, objects)
	cluster := newCluster(b, 4)
	putVaried(b, cluster, objects)
	distinct := newCluster(b, 1)
	putDistinct(b, distinct, objects)

	runPlan := func(b *testing.B, site query.Site, p *query.Plan, wantRows int) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := query.Run(ctx, site, p)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != wantRows {
				b.Fatalf("answered %d rows, want %d", len(res.Rows), wantRows)
			}
		}
	}

	greedySel, err := query.Compile(selective)
	if err != nil {
		b.Fatal(err)
	}
	naiveSel, err := query.CompileNaive(selective)
	if err != nil {
		b.Fatal(err)
	}
	greedyFull, err := query.Compile(fullscan)
	if err != nil {
		b.Fatal(err)
	}
	naiveFull, err := query.CompileNaive(fullscan)
	if err != nil {
		b.Fatal(err)
	}
	users := len(single.Users())

	b.Run(fmt.Sprintf("selective/greedy/objects=%d", objects), func(b *testing.B) {
		runPlan(b, single.Shard(0), greedySel, 1)
	})
	b.Run(fmt.Sprintf("selective/naive/objects=%d", objects), func(b *testing.B) {
		runPlan(b, single.Shard(0), naiveSel, 1)
	})
	b.Run(fmt.Sprintf("fullscan/greedy/objects=%d", objects), func(b *testing.B) {
		runPlan(b, single.Shard(0), greedyFull, users)
	})
	b.Run(fmt.Sprintf("fullscan/naive/objects=%d", objects), func(b *testing.B) {
		runPlan(b, single.Shard(0), naiveFull, users)
	})
	b.Run(fmt.Sprintf("fullscan/distinct/objects=%d", objects), func(b *testing.B) {
		runPlan(b, distinct.Shard(0), greedyFull, users)
	})
	b.Run(fmt.Sprintf("cluster4/selective/objects=%d", objects), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := cluster.Query(ctx, selective)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("answered %d rows, want 1", len(res.Rows))
			}
		}
	})
	b.Run(fmt.Sprintf("cluster4/aggregate/objects=%d", objects), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := cluster.Query(ctx, fullscan)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != users {
				b.Fatalf("answered %d groups, want %d", len(res.Rows), users)
			}
		}
	})
}
