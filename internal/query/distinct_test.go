package query_test

// Tests on a relation whose rows repeat: objects copy a few belief maps,
// so leaving out the object column most (object, user) rows coincide.
// The answers are pinned by digest, so a change to how aggregate scans
// fold those rows cannot move them. Also on relations whose rows hardly
// repeat, where a scan must not keep a distinct row per scanned row.

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"trustmap"
	"trustmap/internal/query"
	"trustmap/internal/tn"
	"trustmap/internal/workload"
	"trustmap/wire"
)

// repeatSite lazily builds the repeated-belief fixture, materialized once.
var repeatSite struct {
	once  sync.Once
	st    *trustmap.Store
	users []string
	keys  []string
	rows  []orow
}

// repeatFixture is a small power-law community whose 60 objects each copy
// one of five belief maps. Every map states beliefs for about half of the
// roots, and some of those restate the root's network default, so a
// root's row with and without a stated belief resolves to the same set.
func repeatFixture(t testing.TB) (*trustmap.Store, []string, []string, []orow) {
	repeatSite.once.Do(func() {
		domain := []tn.Value{"fish", "knot", "cow", "jar"}
		rng := rand.New(rand.NewSource(23))
		src := workload.PowerLawTiered(rng, 30, 2, 3, 0.3, domain)
		st, err := facadeFromTN(src).NewStore(trustmap.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		var roots []int
		for x := 0; x < src.NumUsers(); x++ {
			if src.HasExplicit(x) {
				roots = append(roots, x)
			}
		}
		protos := make([]map[string]string, 5)
		for i := range protos {
			protos[i] = map[string]string{}
			for _, x := range roots {
				switch rng.Intn(4) {
				case 0:
					protos[i][src.Name(x)] = string(src.Explicit(x)) // the default, stated
				case 1:
					protos[i][src.Name(x)] = string(domain[rng.Intn(len(domain))])
				}
			}
		}
		ctx := context.Background()
		for i := 0; i < 60; i++ {
			if err := st.PutObject(ctx, fmt.Sprintf("rep%03d", i), protos[rng.Intn(len(protos))]); err != nil {
				t.Fatal(err)
			}
		}
		repeatSite.st = st
		repeatSite.users = append([]string{}, st.Users()...)
		sort.Strings(repeatSite.users)
		repeatSite.keys = st.Objects()
		repeatSite.rows = materialize(t, st)
	})
	return repeatSite.st, repeatSite.users, repeatSite.keys, repeatSite.rows
}

// unrepeatedStore builds a store over a small power-law community whose
// objects state a belief for every root. Each value names its object, so
// no two objects share a possible set and, leaving out the object
// column, no row repeats another; with copies set, every other object
// instead copies one of three belief maps over the fuzz domain.
func unrepeatedStore(t testing.TB, users, objects int, copies bool) *trustmap.Store {
	t.Helper()
	domain := []tn.Value{"fish", "knot", "cow", "jar"}
	rng := rand.New(rand.NewSource(31))
	src := workload.PowerLaw(rng, users, 2, 0.3, domain)
	st, err := facadeFromTN(src).NewStore(trustmap.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var roots []string
	for x := 0; x < src.NumUsers(); x++ {
		if src.HasExplicit(x) {
			roots = append(roots, src.Name(x))
		}
	}
	protos := make([]map[string]string, 3)
	for i := range protos {
		protos[i] = map[string]string{}
		for _, r := range roots {
			protos[i][r] = string(domain[rng.Intn(len(domain))])
		}
	}
	ctx := context.Background()
	for i := 0; i < objects; i++ {
		key := fmt.Sprintf("uni%03d", i)
		beliefs := map[string]string{}
		if copies && i%2 == 1 {
			beliefs = protos[rng.Intn(len(protos))]
		} else {
			for _, r := range roots {
				beliefs[r] = fmt.Sprintf("%s/%d", key, rng.Intn(3))
			}
		}
		if err := st.PutObject(ctx, key, beliefs); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// mixedSite lazily builds the half-repeated fixture, materialized once.
var mixedSite struct {
	once  sync.Once
	st    *trustmap.Store
	users []string
	keys  []string
	rows  []orow
}

// mixedFixture is an unrepeatedStore of 30 users and 60 objects, half of
// them copies: rows repeat too rarely for a distinct-row scan to keep
// counting past its window, but often enough that the rows it counted
// there stand for several rows each.
func mixedFixture(t testing.TB) (*trustmap.Store, []string, []string, []orow) {
	mixedSite.once.Do(func() {
		st := unrepeatedStore(t, 30, 60, true)
		mixedSite.st = st
		mixedSite.users = append([]string{}, st.Users()...)
		sort.Strings(mixedSite.users)
		mixedSite.keys = st.Objects()
		mixedSite.rows = materialize(t, st)
	})
	return mixedSite.st, mixedSite.users, mixedSite.keys, mixedSite.rows
}

// TestDistinctRowDigest pins aggregate answers on the repeated-belief
// fixture, through Run and as three merged key partitions: every
// aggregate over the columns a distinct row fixes, filters on them, and
// group keys other than the user.
func TestDistinctRowDigest(t *testing.T) {
	st, users, keys, _ := repeatFixture(t)
	count := []wire.Aggregate{{Fn: wire.AggCount, As: "n"}}
	countRate := []wire.Aggregate{{Fn: wire.AggCount, As: "n"}, {Fn: wire.AggRate, Of: "agrees", As: "acceptance"}}
	cases := []struct {
		name string
		q    wire.Query
		want uint64
	}{
		{"possible_count aggregates by user", wire.Query{GroupBy: []string{"user"}, Aggs: []wire.Aggregate{
			{Fn: wire.AggSum, Of: "possible_count", As: "sum"}, {Fn: wire.AggAvg, Of: "possible_count", As: "avg"},
			{Fn: wire.AggMin, Of: "possible_count", As: "min"}, {Fn: wire.AggMax, Of: "possible_count", As: "max"},
		}}, 0x30408b7d768ca9d3},
		{"certain and belief extremes by user", wire.Query{GroupBy: []string{"user"}, Aggs: []wire.Aggregate{
			{Fn: wire.AggMin, Of: "certain", As: "min_c"}, {Fn: wire.AggMax, Of: "certain", As: "max_c"},
			{Fn: wire.AggMin, Of: "belief", As: "min_b"}, {Fn: wire.AggMax, Of: "belief", As: "max_b"},
		}}, 0x1bf5e3d3f48689e2},
		{"count of conflicted", wire.Query{
			Where: []wire.Predicate{{Col: "conflicted", Op: wire.PredEq}}, GroupBy: []string{"user"}, Aggs: count,
		}, 0x453299fc3fc1bc6d},
		{"count of has_belief", wire.Query{
			Where: []wire.Predicate{{Col: "has_belief", Op: wire.PredEq, Value: true}}, GroupBy: []string{"user"}, Aggs: count,
		}, 0xc3e41644f232d745},
		{"count by certain prefix", wire.Query{
			Where: []wire.Predicate{{Col: "certain", Op: wire.PredPrefix, Value: "f"}}, GroupBy: []string{"user"}, Aggs: count,
		}, 0xa4f96ed379505ebc},
		{"count by possible contains", wire.Query{
			Where: []wire.Predicate{{Col: "possible", Op: wire.PredContains, Value: "knot"}}, GroupBy: []string{"user"}, Aggs: count,
		}, 0xc2c66f601531c76f},
		{"group by certain", wire.Query{GroupBy: []string{"certain"}, Aggs: countRate}, 0xb4a56b9e3a53fd37},
		{"group by has_belief", wire.Query{GroupBy: []string{"has_belief"}, Aggs: countRate}, 0x2153f1a4b36155c},
		{"group by user and agrees", wire.Query{GroupBy: []string{"user", "agrees"}, Aggs: []wire.Aggregate{
			{Fn: wire.AggCount, As: "n"}, {Fn: wire.AggSum, Of: "possible_count", As: "sum"},
		}}, 0x986dcc2d09818178},
		{"global", wire.Query{Aggs: []wire.Aggregate{
			{Fn: wire.AggCount, As: "n"}, {Fn: wire.AggRate, Of: "disagrees", As: "rejected"},
			{Fn: wire.AggAvg, Of: "conflicted", As: "conflict"}, {Fn: wire.AggMax, Of: "belief", As: "top"},
		}}, 0xbb0f810f8c3ac213},
		{"key pushdown", wire.Query{
			Where:   []wire.Predicate{{Col: "object", Op: wire.PredIn, Values: []any{keys[0], keys[7], keys[21], keys[len(keys)-1], "absent"}}},
			GroupBy: []string{"certain"}, Aggs: countRate,
		}, 0xa30208f3b28462},
		{"user pushdown", wire.Query{
			Where:   []wire.Predicate{{Col: "user", Op: wire.PredIn, Values: []any{users[0], users[5], users[11], "nobody"}}},
			GroupBy: []string{"user", "belief"}, Aggs: countRate,
		}, 0x89146eea9cf4e3c6},
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
			if len(whole.Rows) == 0 {
				t.Fatal("no rows: the case does not exercise the fixture")
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

// distinctRows counts the distinct rows of a materialized relation once
// the object column is left out, over the objects keep admits.
func distinctRows(rows []orow, keep func(object string) bool) int {
	seen := map[string]bool{}
	for _, r := range rows {
		if keep(r["object"].(string)) {
			seen[fmt.Sprintf("%q %q %v %q", r["user"], r["possible"], r["has_belief"], r["belief"])] = true
		}
	}
	return len(seen)
}

// TestAggregateFoldsOncePerDistinctRow: on the repeated-belief fixture a
// scan grouped by user folds each distinct row once, not each of the
// (object, user) rows it scans.
func TestAggregateFoldsOncePerDistinctRow(t *testing.T) {
	st, _, _, rows := repeatFixture(t)
	plan, err := query.Compile(wire.Query{
		GroupBy: []string{"user"},
		Aggs:    []wire.Aggregate{{Fn: wire.AggCount, As: "n"}, {Fn: wire.AggRate, Of: "agrees", As: "acceptance"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	part, folds, err := query.PartialFolds(context.Background(), st, plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := query.Finalize([]*query.Partial{part}, plan)
	if err != nil {
		t.Fatal(err)
	}
	scanned := int(res.Stats.RowsScanned)
	distinct := distinctRows(rows, func(string) bool { return true })
	if scanned != len(rows) {
		t.Fatalf("scanned %d rows, the relation has %d", scanned, len(rows))
	}
	if folds > distinct || folds > scanned/10 {
		t.Errorf("%d folds for %d rows scanned (%d distinct), want at most one per distinct row and at most %d",
			folds, scanned, distinct, scanned/10)
	}
}

// twoStores is one Site over two stores with disjoint keys whose stream
// is the key-ordered merge of theirs, the way a cluster router's is: a
// scan over it reads rows of two snapshots whose equal set ids may stand
// for different sets.
type twoStores [2]*trustmap.Store

func (s twoStores) Resolved(ctx context.Context) iter.Seq2[trustmap.ObjectRow, error] {
	return func(yield func(trustmap.ObjectRow, error) bool) {
		var rows []trustmap.ObjectRow
		for _, st := range s {
			for row, err := range st.Resolved(ctx) {
				if err != nil {
					yield(trustmap.ObjectRow{}, err)
					return
				}
				rows = append(rows, row)
			}
		}
		slices.SortFunc(rows, func(a, b trustmap.ObjectRow) int { return strings.Compare(a.Object, b.Object) })
		for _, row := range rows {
			if !yield(row, nil) {
				return
			}
		}
	}
}

func (s twoStores) ResolveObject(ctx context.Context, key string) (trustmap.ObjectRow, error) {
	row, err := s[0].ResolveObject(ctx, key)
	if errors.Is(err, trustmap.ErrUnknownObject) {
		return s[1].ResolveObject(ctx, key)
	}
	return row, err
}

func (s twoStores) Users() []string {
	users := append(append([]string{}, s[0].Users()...), s[1].Users()...)
	sort.Strings(users)
	return slices.Compact(users)
}

func (s twoStores) Epoch() uint64 { return s[0].Epoch() }

// TestDistinctRowsPerSnapshot: a scan whose stream interleaves two
// snapshots keeps their distinct rows apart, and answers as the oracle
// does over both relations.
func TestDistinctRowsPerSnapshot(t *testing.T) {
	a, _, _, aRows := fuzzFixture(t)
	b, _, _, bRows := repeatFixture(t)
	site := twoStores{a, b}
	rows := append(append([]orow{}, aRows...), bRows...)
	slices.SortStableFunc(rows, func(x, y orow) int { return strings.Compare(x["object"].(string), y["object"].(string)) })
	ctx := context.Background()
	for _, q := range []wire.Query{
		{GroupBy: []string{"certain"}, Aggs: []wire.Aggregate{{Fn: wire.AggCount, As: "n"}}},
		{GroupBy: []string{"user", "certain"}, Aggs: []wire.Aggregate{{Fn: wire.AggCount, As: "n"}, {Fn: wire.AggRate, Of: "agrees", As: "r"}}},
		{GroupBy: []string{"user"}, Aggs: []wire.Aggregate{{Fn: wire.AggSum, Of: "possible_count", As: "s"}, {Fn: wire.AggMax, Of: "certain", As: "m"}}},
	} {
		plan, err := query.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := query.Run(ctx, site, plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, want := oracleRun(rows, q); !rowsEqual(res.Rows, want) {
			t.Errorf("%+v diverges from the oracle:\n got  %v\n want %v", q, res.Rows, want)
		}
	}
}

// TestUnrepeatedRowsFoldRowByRow: a scan whose rows hardly repeat stops
// counting distinct rows after its window and folds the rest row by row,
// so what it allocates follows the objects it scans, not the rows.
func TestUnrepeatedRowsFoldRowByRow(t *testing.T) {
	plan, err := query.Compile(wire.Query{
		GroupBy: []string{"user"},
		Aggs:    []wire.Aggregate{{Fn: wire.AggCount, As: "n"}, {Fn: wire.AggRate, Of: "agrees", As: "acceptance"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(site query.Site) (res *query.Result, folds int) {
		part, folds, err := query.PartialFolds(ctx, site, plan)
		if err != nil {
			t.Fatal(err)
		}
		res, err = query.Finalize([]*query.Partial{part}, plan)
		if err != nil {
			t.Fatal(err)
		}
		return res, folds
	}

	st, _, _, rows := mixedFixture(t)
	res, folds := run(st)
	distinct := distinctRows(rows, func(string) bool { return true })
	if folds <= distinct || uint64(folds) >= res.Stats.RowsScanned {
		t.Errorf("half-repeated fixture: %d folds for %d rows scanned (%d distinct), want more than one per distinct row (row by row past the window) and fewer than one per row (the window's repeats folded once)",
			folds, res.Stats.RowsScanned, distinct)
	}

	const users, perRow = 40, 16
	measure := func(objects int) (bytes float64, rows uint64) {
		st := unrepeatedStore(t, users, objects, false)
		res, folds := run(st) // resolve every object once: later scans are cache hits
		if rows = res.Stats.RowsScanned; uint64(folds) != rows {
			t.Fatalf("%d objects: %d folds for %d rows that never repeat", objects, folds, rows)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 5 {
			run(st)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 5, rows
	}
	few, fewRows := measure(64)
	many, manyRows := measure(256)
	t.Logf("%d rows: %.0f B per scan; %d rows: %.0f B per scan", fewRows, few, manyRows, many)
	if per := (many - few) / float64(manyRows-fewRows); per > perRow {
		t.Fatalf("%.1f B per extra scanned row, want at most %d: the scan keeps a distinct row per row", per, perRow)
	}
}
