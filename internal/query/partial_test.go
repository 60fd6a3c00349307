package query_test

// Tests of the partial-aggregation seam: a grouped query answers the
// same whether one RunPartial scans the whole store or several scan
// disjoint key partitions whose partials Finalize merges, and its answer
// is pinned by digest across changes to how RunPartial folds rows.

import (
	"context"
	"fmt"
	"hash/fnv"
	"iter"
	"testing"

	"trustmap"
	"trustmap/internal/query"
	"trustmap/wire"
)

// keyPartition is partition i of n of a store, as a Site: the store's
// Resolved stream and point lookups restricted to the keys that
// wire.ShardOwner places in partition i, like one shard of a cluster.
type keyPartition struct {
	*trustmap.Store
	i, n int
}

func (s keyPartition) Resolved(ctx context.Context) iter.Seq2[trustmap.ObjectRow, error] {
	return func(yield func(trustmap.ObjectRow, error) bool) {
		for row, err := range s.Store.Resolved(ctx) {
			if err == nil && wire.ShardOwner(row.Object, s.n) != s.i {
				continue
			}
			if !yield(row, err) {
				return
			}
		}
	}
}

func (s keyPartition) ResolveObject(ctx context.Context, key string) (trustmap.ObjectRow, error) {
	if wire.ShardOwner(key, s.n) != s.i {
		return trustmap.ObjectRow{}, fmt.Errorf("%w: %q", trustmap.ErrUnknownObject, key)
	}
	return s.Store.ResolveObject(ctx, key)
}

// runPartitioned runs an aggregate plan as n key partitions of st and
// merges their partials with Finalize, the way a cluster scatters it.
func runPartitioned(ctx context.Context, st *trustmap.Store, p *query.Plan, n int) (*query.Result, error) {
	parts := make([]*query.Partial, n)
	for i := range parts {
		part, err := query.RunPartial(ctx, keyPartition{st, i, n}, p)
		if err != nil {
			return nil, err
		}
		parts[i] = part
	}
	return query.Finalize(parts, p)
}

// resultDigest is FNV-64a over a result's columns, its rows (each value
// with its dynamic type), and the rows scanned and groups formed.
func resultDigest(res *query.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%q\n", res.Columns)
	for _, r := range res.Rows {
		for _, v := range r {
			fmt.Fprintf(h, "%T:%v|", v, v)
		}
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "scanned=%d groups=%d", res.Stats.RowsScanned, res.Stats.Groups)
	return h.Sum64()
}

// TestGroupedScanDigest pins the answers of grouped scans on the fuzz
// fixture, both through Run and as three merged key partitions. The
// first five group by user alone or not at all, so their group key is a
// function of the scanned user, and the fifth reads the object column,
// so it folds row by row; the last three group by something else.
func TestGroupedScanDigest(t *testing.T) {
	st, users, _, _ := fuzzFixture(t)
	countRate := []wire.Aggregate{{Fn: wire.AggCount, As: "n"}, {Fn: wire.AggRate, Of: "agrees", As: "acceptance"}}
	byUser := []string{"user"}
	cases := []struct {
		name string
		q    wire.Query
		want uint64
	}{
		{"group by user", wire.Query{GroupBy: byUser, Aggs: countRate}, 0x9153028f0680cdf2},
		{"global", wire.Query{Aggs: []wire.Aggregate{
			{Fn: wire.AggCount, As: "n"}, {Fn: wire.AggRate, Of: "agrees", As: "acceptance"}, {Fn: wire.AggMin, Of: "certain", As: "least"},
		}}, 0x9ade8dc84369b20c},
		{"group by user under a user pushdown", wire.Query{
			Where:   []wire.Predicate{{Col: "user", Op: wire.PredIn, Values: []any{users[0], users[3], users[7], "nobody"}}},
			GroupBy: byUser, Aggs: countRate,
		}, 0xc72706a9b9569d8a},
		{"group by user behind a filter", wire.Query{
			Where:   []wire.Predicate{{Col: "has_belief", Op: wire.PredEq, Value: true}},
			GroupBy: byUser, Aggs: countRate,
		}, 0xd78ae5c1a452e169},
		{"group by user reading object", wire.Query{GroupBy: byUser, Aggs: append([]wire.Aggregate{{Fn: wire.AggMin, Of: "object", As: "first"}}, countRate...)}, 0xbb824d8cbbaffe84},
		{"group by user and certain", wire.Query{GroupBy: []string{"user", "certain"}, Aggs: countRate}, 0x10ed3261b1359365},
		{"group by object", wire.Query{GroupBy: []string{"object"}, Aggs: countRate}, 0xd2bf46d614d83a73},
		{"join grouped by user", wire.Query{
			Join:    &wire.Join{On: []string{"object"}},
			GroupBy: byUser, Aggs: []wire.Aggregate{{Fn: wire.AggCount, As: "n"}, {Fn: wire.AggRate, Of: "r_agrees", As: "partner_acceptance"}},
		}, 0xb12571ef958305d8},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan, err := query.Compile(c.q)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := query.Run(ctx, st, plan)
			if err != nil {
				t.Fatal(err)
			}
			merged, err := runPartitioned(ctx, st, plan, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(whole); got != c.want {
				t.Errorf("Run digest %#x, want %#x (%d rows, %d scanned)", got, c.want, len(whole.Rows), whole.Stats.RowsScanned)
			}
			if got := resultDigest(merged); got != c.want {
				t.Errorf("3-partition digest %#x, want %#x (%d rows, %d scanned)", got, c.want, len(merged.Rows), merged.Stats.RowsScanned)
			}
		})
	}
}

// TestGroupedScanProbesOncePerGroup: a scan grouped by user alone, or
// not grouped, probes its group map at most once per scanned user in
// each RunPartial, however many objects it folds, also when it reads the
// object column and so folds row by row; a scan grouped by anything else
// probes at most once per distinct row it folds.
func TestGroupedScanProbesOncePerGroup(t *testing.T) {
	st, users, _, _ := fuzzFixture(t)
	count := []wire.Aggregate{{Fn: wire.AggCount, As: "n"}}
	pushed := []any{users[1], users[4], users[9]}
	sites := []query.Site{st, keyPartition{st, 0, 3}, keyPartition{st, 1, 3}, keyPartition{st, 2, 3}}
	ctx := context.Background()
	probe := func(t *testing.T, site query.Site, q wire.Query) (probes int, res *query.Result) {
		t.Helper()
		plan, err := query.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		part, probes, err := query.PartialProbes(ctx, site, plan)
		if err != nil {
			t.Fatal(err)
		}
		res, err = query.Finalize([]*query.Partial{part}, plan)
		if err != nil {
			t.Fatal(err)
		}
		return probes, res
	}
	for _, c := range []struct {
		name    string
		q       wire.Query
		scanned int // users each RunPartial scans
	}{
		{"group by user", wire.Query{GroupBy: []string{"user"}, Aggs: count}, len(users)},
		{"global", wire.Query{Aggs: count}, len(users)},
		{"group by user reading object", wire.Query{
			GroupBy: []string{"user"}, Aggs: append([]wire.Aggregate{{Fn: wire.AggMin, Of: "object", As: "first"}}, count...),
		}, len(users)},
		{"group by user under a user pushdown", wire.Query{
			Where:   []wire.Predicate{{Col: "user", Op: wire.PredIn, Values: pushed}},
			GroupBy: []string{"user"}, Aggs: count,
		}, len(pushed)},
	} {
		t.Run(c.name, func(t *testing.T) {
			for i, site := range sites {
				probes, res := probe(t, site, c.q)
				if res.Stats.RowsScanned == 0 {
					t.Fatalf("site %d scanned no rows: the fixture does not exercise the scan", i)
				}
				if probes > c.scanned {
					t.Errorf("site %d: %d probes for %d rows scanned, want at most one per scanned user (%d)",
						i, probes, res.Stats.RowsScanned, c.scanned)
				}
			}
		})
	}
	t.Run("group by certain", func(t *testing.T) {
		_, _, _, rows := fuzzFixture(t)
		for i, site := range sites {
			keep := func(string) bool { return true }
			if kp, ok := site.(keyPartition); ok {
				keep = func(object string) bool { return wire.ShardOwner(object, kp.n) == kp.i }
			}
			distinct := distinctRows(rows, keep)
			probes, res := probe(t, site, wire.Query{GroupBy: []string{"certain"}, Aggs: count})
			if probes > distinct {
				t.Errorf("site %d: %d probes for %d distinct rows (%d scanned), want at most one per distinct row", i, probes, distinct, res.Stats.RowsScanned)
			}
			if site == query.Site(st) && uint64(probes) >= res.Stats.RowsScanned {
				t.Errorf("whole store: %d probes for %d rows scanned, want fewer", probes, res.Stats.RowsScanned)
			}
		}
	})
}
