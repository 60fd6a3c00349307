package query_test

// Tests of what the compiled executor promises beyond parity: group
// keys that cannot collide, allocations that follow objects and groups
// rather than scanned rows, and a belief column read off the very
// capture its row's resolution was computed from.

import (
	"context"
	"iter"
	"math/rand"
	"reflect"
	"testing"

	"trustmap"
	"trustmap/internal/query"
	"trustmap/internal/tn"
	"trustmap/internal/workload"
	"trustmap/wire"
)

// TestGroupKeyKeepsNULValuesApart: values containing NUL must not make
// two different group keys encode alike — ("a\x00b","c") and
// ("a","b\x00c") are two groups, and "a\x00b" is not "ab".
func TestGroupKeyKeepsNULValuesApart(t *testing.T) {
	n := trustmap.New()
	n.AddUser("u1")
	n.AddUser("u2")
	st, err := n.NewStore(trustmap.WithExtraRoots("u1", "u2"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for key, beliefs := range map[string]map[string]string{
		"k":       {"u1": "a\x00b", "u2": "c"},
		"k\x00a":  {"u1": "a", "u2": "b\x00c"},
		"k\x00ab": {"u1": "ab", "u2": "c"},
	} {
		if err := st.PutObject(ctx, key, beliefs); err != nil {
			t.Fatal(err)
		}
	}
	rows := materialize(t, st)
	count := []wire.Aggregate{{Fn: wire.AggCount, As: "n"}}
	for name, q := range map[string]wire.Query{
		"two string columns": {
			Join:    &wire.Join{On: []string{"object"}, Where: []wire.Predicate{{Col: "user", Op: wire.PredEq, Value: "u2"}}},
			Where:   []wire.Predicate{{Col: "user", Op: wire.PredEq, Value: "u1"}},
			GroupBy: []string{"certain", "r_certain"}, Aggs: count,
		},
		"object and value": {GroupBy: []string{"object", "certain"}, Aggs: count},
		"value and bool":   {GroupBy: []string{"certain", "has_belief"}, Aggs: count},
	} {
		t.Run(name, func(t *testing.T) {
			runThreeWays(t, st, rows, q)
		})
	}
}

// TestFullScanAllocsScaleWithObjectsNotRows: on a warm store the
// group-by-user scan allocates per group, not per scanned row — adding
// users to a fixed object set may add only what their groups cost.
func TestFullScanAllocsScaleWithObjectsNotRows(t *testing.T) {
	const objects, perGroup = 200, 16
	q := wire.Query{
		GroupBy: []string{"user"},
		Aggs:    []wire.Aggregate{{Fn: wire.AggCount, As: "n"}, {Fn: wire.AggRate, Of: "agrees", As: "acceptance"}},
	}
	plan, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	measure := func(users int) (allocs float64, rows uint64) {
		src := workload.PowerLaw(rand.New(rand.NewSource(5)), users, 2, 0.2, []tn.Value{"fish", "knot", "cow"})
		st, _ := workloadStore(t, src, objects)
		run := func() {
			res, err := query.Run(ctx, st, plan)
			if err != nil {
				t.Fatal(err)
			}
			if rows = res.Stats.RowsScanned; rows != uint64(users*objects) || len(res.Rows) != users {
				t.Fatalf("scanned %d rows into %d groups, want %d into %d", rows, len(res.Rows), users*objects, users)
			}
		}
		run() // resolve every object once: later scans are cache hits
		return testing.AllocsPerRun(5, run), rows
	}
	few, fewRows := measure(20)
	many, manyRows := measure(80)
	t.Logf("20 users: %.0f allocs over %d rows; 80 users: %.0f allocs over %d rows", few, fewRows, many, manyRows)
	if extra := many - few; extra > perGroup*60 {
		t.Fatalf("60 more users (%d more rows) cost %.0f more allocations, want at most %d per extra group",
			manyRows-fewRows, extra, perGroup)
	}
	if many > float64(manyRows)/10 {
		t.Fatalf("%.0f allocations for %d scanned rows: the scan allocates per row", many, manyRows)
	}
}

// overwritingSite is a store whose scan is raced deterministically: the
// moment the stream yields an object, and before the executor reads the
// row, the object's belief by one user is overwritten.
type overwritingSite struct {
	*trustmap.Store
	user, value string
}

func (s overwritingSite) Resolved(ctx context.Context) iter.Seq2[trustmap.ObjectRow, error] {
	return func(yield func(trustmap.ObjectRow, error) bool) {
		for row, err := range s.Store.Resolved(ctx) {
			if err == nil {
				err = s.PutBelief(ctx, s.user, row.Object, s.value)
			}
			if !yield(row, err) {
				return
			}
		}
	}
}

// TestBeliefColumnIsPinned: belief, agrees and disagrees describe the
// resolution the row carries, not whatever the belief table holds by
// the time the row is read.
func TestBeliefColumnIsPinned(t *testing.T) {
	n := trustmap.New()
	n.AddTrust("reader", "writer", 10)
	st, err := n.NewStore(trustmap.WithExtraRoots("writer"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, key := range []string{"o1", "o2"} {
		if err := st.PutObject(ctx, key, map[string]string{"writer": "old"}); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := query.Compile(wire.Query{
		Where:  []wire.Predicate{{Col: "user", Op: wire.PredEq, Value: "writer"}},
		Select: []string{"object", "belief", "certain", "agrees", "disagrees"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := query.Run(ctx, overwritingSite{st, "writer", "new"}, plan)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{{"o1", "old", "old", true, false}, {"o2", "old", "old", true, false}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows raced by a write: %v, want the pinned %v", res.Rows, want)
	}
	// The writes did land: the next scan sees them.
	res, err = query.Run(ctx, st, plan)
	if err != nil {
		t.Fatal(err)
	}
	want = [][]any{{"o1", "new", "new", true, false}, {"o2", "new", "new", true, false}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows after the writes: %v, want %v", res.Rows, want)
	}
}
