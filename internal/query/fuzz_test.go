package query_test

// FuzzQueryPlanParity: a seeded generator draws random valid query
// patterns and requires three independent evaluations to agree exactly
// — the greedy plan, the naive left-to-right plan, and the brute-force
// oracle over the materialized relation — and an aggregate plan must
// answer the same again as three key partitions merged by Finalize. It
// runs on the fuzz fixture and on the repeated-belief fixture, whose
// aggregate scans fold each distinct row once. Any
// divergence is a planner or executor bug by construction: greedy
// reordering, pushdown extraction, and partial-aggregate merging must
// all be invisible in the answer.

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"trustmap"
	"trustmap/internal/query"
	"trustmap/internal/tn"
	"trustmap/internal/workload"
	"trustmap/wire"
)

// fuzzSite lazily builds the shared fuzz fixture: a small power-law
// community with a deterministic object set, materialized once.
var fuzzSite struct {
	once  sync.Once
	st    *trustmap.Store
	users []string
	keys  []string
	rows  []orow
}

func fuzzFixture(t testing.TB) (*trustmap.Store, []string, []string, []orow) {
	fuzzSite.once.Do(func() {
		domain := []tn.Value{"fish", "knot", "cow", "jar"}
		src := workload.PowerLaw(rand.New(rand.NewSource(7)), 24, 2, 0.3, domain)
		fuzzSite.st, fuzzSite.users = workloadStore(t, src, 8)
		fuzzSite.keys = fuzzSite.st.Objects()
		fuzzSite.rows = materialize(t, fuzzSite.st)
	})
	return fuzzSite.st, fuzzSite.users, fuzzSite.keys, fuzzSite.rows
}

// fuzzDomain is the operand pool for string predicates.
var fuzzDomain = []string{"fish", "knot", "cow", "jar", ""}

// randBasePred draws one valid predicate over the base columns.
func randBasePred(rng *rand.Rand, users, keys []string) wire.Predicate {
	ordOps := []string{wire.PredEq, wire.PredNe, wire.PredLt, wire.PredLe, wire.PredGt, wire.PredGe}
	boolCols := []string{"has_certain", "has_belief", "agrees", "disagrees", "conflicted"}
	switch rng.Intn(8) {
	case 0: // object key, eq or in (the pushdown shapes)
		if rng.Intn(2) == 0 {
			return wire.Predicate{Col: "object", Op: wire.PredEq, Value: pick(rng, keys, "absent")}
		}
		return wire.Predicate{Col: "object", Op: wire.PredIn, Values: pickN(rng, keys, "absent")}
	case 1: // user, eq or in
		if rng.Intn(2) == 0 {
			return wire.Predicate{Col: "user", Op: wire.PredEq, Value: pick(rng, users, "nobody")}
		}
		return wire.Predicate{Col: "user", Op: wire.PredIn, Values: pickN(rng, users, "nobody")}
	case 2: // certain/belief ordered comparison or prefix
		col := "certain"
		if rng.Intn(2) == 0 {
			col = "belief"
		}
		if rng.Intn(4) == 0 {
			return wire.Predicate{Col: col, Op: wire.PredPrefix, Value: []string{"", "f", "k", "c"}[rng.Intn(4)]}
		}
		return wire.Predicate{Col: col, Op: ordOps[rng.Intn(len(ordOps))], Value: fuzzDomain[rng.Intn(len(fuzzDomain))]}
	case 3: // certain in-list
		return wire.Predicate{Col: "certain", Op: wire.PredIn, Values: pickN(rng, fuzzDomain, "")}
	case 4: // boolean eq/ne, sometimes with the implicit-true operand
		p := wire.Predicate{Col: boolCols[rng.Intn(len(boolCols))], Op: wire.PredEq}
		if rng.Intn(2) == 0 {
			p.Op = wire.PredNe
		}
		if rng.Intn(3) > 0 {
			p.Value = rng.Intn(2) == 0
		}
		return p
	case 5: // possible_count comparison or in-list
		if rng.Intn(4) == 0 {
			return wire.Predicate{Col: "possible_count", Op: wire.PredIn, Values: []any{rng.Intn(3), rng.Intn(5)}}
		}
		return wire.Predicate{Col: "possible_count", Op: ordOps[rng.Intn(len(ordOps))], Value: rng.Intn(5)}
	case 6: // possible membership
		return wire.Predicate{Col: "possible", Op: wire.PredContains, Value: fuzzDomain[rng.Intn(len(fuzzDomain)-1)]}
	default: // cross-column comparison of like kinds
		if rng.Intn(2) == 0 {
			strCols := []string{"object", "user", "certain", "belief"}
			a, b := rng.Intn(len(strCols)), rng.Intn(len(strCols))
			return wire.Predicate{Col: strCols[a], Op: ordOps[rng.Intn(len(ordOps))], ColB: strCols[b]}
		}
		a, b := rng.Intn(len(boolCols)), rng.Intn(len(boolCols))
		op := wire.PredEq
		if rng.Intn(2) == 0 {
			op = wire.PredNe
		}
		return wire.Predicate{Col: boolCols[a], Op: op, ColB: boolCols[b]}
	}
}

func pick(rng *rand.Rand, pool []string, extra string) string {
	if rng.Intn(6) == 0 {
		return extra
	}
	return pool[rng.Intn(len(pool))]
}

func pickN(rng *rand.Rand, pool []string, extra string) []any {
	n := 1 + rng.Intn(3)
	out := make([]any, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pick(rng, pool, extra))
	}
	return out
}

// prefixRight rewrites a base predicate to touch the join's right side.
func prefixRight(rng *rand.Rand, p wire.Predicate) wire.Predicate {
	if p.ColB != "" {
		// Prefix one or both sides; each combination is valid.
		if rng.Intn(2) == 0 {
			p.Col = "r_" + p.Col
		}
		if rng.Intn(2) == 0 || (p.Col[:2] != "r_") {
			p.ColB = "r_" + p.ColB
		}
		return p
	}
	p.Col = "r_" + p.Col
	return p
}

// scalarCols lists the scalar row columns, with r_ twins when joined.
func scalarCols(joined bool) []string {
	base := []string{
		"object", "user", "certain", "belief", "possible_count",
		"has_certain", "has_belief", "agrees", "disagrees", "conflicted",
	}
	if !joined {
		return base
	}
	out := append([]string{}, base...)
	for _, c := range base {
		out = append(out, "r_"+c)
	}
	return out
}

// randQuery draws one valid query pattern.
func randQuery(rng *rand.Rand, users, keys []string) wire.Query {
	var q wire.Query
	joined := rng.Intn(5) == 0
	if joined {
		j := &wire.Join{On: []string{"object"}}
		if rng.Intn(3) == 0 {
			j.On = append(j.On, "certain")
		}
		for i := rng.Intn(2); i > 0; i-- {
			j.Where = append(j.Where, randBasePred(rng, users, keys))
		}
		q.Join = j
	}
	for i := rng.Intn(4); i > 0; i-- {
		p := randBasePred(rng, users, keys)
		if joined && rng.Intn(3) == 0 {
			p = prefixRight(rng, p)
		}
		q.Where = append(q.Where, p)
	}

	if rng.Intn(3) == 0 {
		// Aggregate shape: group by 0-2 scalar columns, 1-3 aggregates
		// with explicit unique names, optional having and order.
		cols := scalarCols(joined)
		seen := map[string]bool{}
		for i := rng.Intn(3); i > 0; i-- {
			c := cols[rng.Intn(len(cols))]
			if !seen[c] {
				seen[c] = true
				q.GroupBy = append(q.GroupBy, c)
			}
		}
		kinds := []wire.Aggregate{
			{Fn: wire.AggCount},
			{Fn: wire.AggSum, Of: "possible_count"},
			{Fn: wire.AggAvg, Of: "possible_count"},
			{Fn: wire.AggRate, Of: "agrees"},
			{Fn: wire.AggRate, Of: "disagrees"},
			{Fn: wire.AggMin, Of: "certain"},
			{Fn: wire.AggMax, Of: "certain"},
			{Fn: wire.AggMin, Of: "possible_count"},
			{Fn: wire.AggMax, Of: "possible_count"},
			{Fn: wire.AggSum, Of: "conflicted"},
			{Fn: wire.AggMin, Of: "belief"},
			{Fn: wire.AggMax, Of: "belief"},
			{Fn: wire.AggAvg, Of: "conflicted"},
			{Fn: wire.AggRate, Of: "has_belief"},
		}
		n := 1 + rng.Intn(3)
		names := []string{"a0", "a1", "a2"}
		numeric := map[string]bool{}
		for i := 0; i < n; i++ {
			a := kinds[rng.Intn(len(kinds))]
			a.As = names[i]
			q.Aggs = append(q.Aggs, a)
			numeric[a.As] = !(a.Fn == wire.AggMin || a.Fn == wire.AggMax) || a.Of == "possible_count"
		}
		if rng.Intn(3) == 0 {
			ordOps := []string{wire.PredEq, wire.PredNe, wire.PredLt, wire.PredLe, wire.PredGt, wire.PredGe}
			name := names[rng.Intn(n)]
			h := wire.Predicate{Col: name, Op: ordOps[rng.Intn(len(ordOps))]}
			if numeric[name] {
				h.Value = rng.Intn(6)
			} else {
				h.Value = fuzzDomain[rng.Intn(len(fuzzDomain))]
			}
			q.Having = append(q.Having, h)
		}
		if rng.Intn(2) == 0 {
			outs := append(append([]string{}, q.GroupBy...), names[:n]...)
			q.OrderBy = append(q.OrderBy, wire.OrderKey{Col: outs[rng.Intn(len(outs))], Desc: rng.Intn(2) == 0})
		}
	} else if rng.Intn(2) == 0 {
		// Explicit projection with optional order keys drawn from it.
		cols := scalarCols(joined)
		n := 1 + rng.Intn(4)
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			c := cols[rng.Intn(len(cols))]
			if !seen[c] {
				seen[c] = true
				q.Select = append(q.Select, c)
			}
		}
		for i := rng.Intn(3); i > 0; i-- {
			q.OrderBy = append(q.OrderBy, wire.OrderKey{Col: q.Select[rng.Intn(len(q.Select))], Desc: rng.Intn(2) == 0})
		}
	}
	if rng.Intn(3) == 0 {
		q.Limit = rng.Intn(12)
	}
	return q
}

func FuzzQueryPlanParity(f *testing.F) {
	fixtures := []func(testing.TB) (*trustmap.Store, []string, []string, []orow){fuzzFixture, repeatFixture, mixedFixture}
	for _, fixture := range fixtures {
		fixture(f)
	}
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed, uint8(0))
	}
	// The repeated-belief and half-repeated fixtures draw twice as many:
	// about a third of the draws are aggregates, and those that read no
	// object column count distinct rows, on the half-repeated fixture
	// only until its window shows that rows hardly repeat.
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, uint8(1))
		f.Add(seed, uint8(2))
	}
	f.Fuzz(func(t *testing.T, seed int64, fixture uint8) {
		st, users, keys, rows := fixtures[int(fixture)%len(fixtures)](t)
		rng := rand.New(rand.NewSource(seed))
		q := randQuery(rng, users, keys)
		greedyPlan, err := query.Compile(q)
		if err != nil {
			t.Fatalf("generator drew an invalid query %+v: %v", q, err)
		}
		naivePlan, err := query.CompileNaive(q)
		if err != nil {
			t.Fatalf("naive rejected what greedy accepted %+v: %v", q, err)
		}
		ctx := context.Background()
		greedy, err := query.Run(ctx, st, greedyPlan)
		if err != nil {
			t.Fatalf("Run(greedy): %v", err)
		}
		naive, err := query.Run(ctx, st, naivePlan)
		if err != nil {
			t.Fatalf("Run(naive): %v", err)
		}
		wantCols, wantRows := oracleRun(rows, q)
		if !reflect.DeepEqual(greedy.Columns, wantCols) || !reflect.DeepEqual(naive.Columns, wantCols) {
			t.Fatalf("columns diverge on %+v:\n greedy %v\n naive %v\n oracle %v", q, greedy.Columns, naive.Columns, wantCols)
		}
		if !rowsEqual(greedy.Rows, wantRows) {
			t.Fatalf("greedy diverges from oracle on %+v:\n greedy: %v\n oracle: %v", q, greedy.Rows, wantRows)
		}
		if !rowsEqual(naive.Rows, wantRows) {
			t.Fatalf("naive diverges from oracle on %+v:\n naive: %v\n oracle: %v", q, naive.Rows, wantRows)
		}
		if !greedyPlan.Aggregated() {
			return
		}
		for name, plan := range map[string]*query.Plan{"greedy": greedyPlan, "naive": naivePlan} {
			merged, err := runPartitioned(ctx, st, plan, 3)
			if err != nil {
				t.Fatalf("3 partitions (%s): %v", name, err)
			}
			if !rowsEqual(merged.Rows, wantRows) {
				t.Fatalf("3 merged partitions (%s) diverge from oracle on %+v:\n merged: %v\n oracle: %v", name, q, merged.Rows, wantRows)
			}
		}
	})
}

// FuzzWireQueryDecode: whatever bytes reach POST /v1/query, decoding
// them into a wire.Query and compiling it never panics, the two planners
// agree on what is valid, every rejection wraps ErrBadQuery (the 400s),
// and what is accepted runs to the same answer under both plans.
func FuzzWireQueryDecode(f *testing.F) {
	st, users, keys, _ := fuzzFixture(f)
	for _, q := range parityQueries(users, keys) {
		raw, err := json.Marshal(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, raw := range []string{
		`{}`, `{"limit": -1}`, `{"where": [{"col": "r_user", "col_b": "r_possible", "op": "eq"}]}`,
		`{"where": [{"col": "possible_count", "op": "in", "values": [1, "2", null, [3]]}]}`,
		`{"join": {"on": ["object", "agrees"]}, "group_by": ["r_certain"], "aggs": [{"fn": "max", "of": "r_user"}], "having": [{"col": "max_r_user", "op": "gt", "col_b": "r_certain"}]}`,
		`{"aggs": [{"fn": "min", "of": "certain"}], "having": [{"col": "min_certain", "op": "prefix", "value": ""}], "order_by": [{"col": "min_certain"}]}`,
	} {
		f.Add([]byte(raw))
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, raw []byte) {
		var q wire.Query
		if json.Unmarshal(raw, &q) != nil {
			return // the handler's 400, before the planner is reached
		}
		greedy, gerr := query.Compile(q)
		naive, nerr := query.CompileNaive(q)
		if (gerr == nil) != (nerr == nil) {
			t.Fatalf("planners disagree on validity of %s: greedy %v, naive %v", raw, gerr, nerr)
		}
		if gerr != nil {
			if !errors.Is(gerr, query.ErrBadQuery) || !errors.Is(nerr, query.ErrBadQuery) {
				t.Fatalf("rejection of %s does not wrap ErrBadQuery: greedy %v, naive %v", raw, gerr, nerr)
			}
			return
		}
		g, err := query.Run(ctx, st, greedy)
		if err != nil {
			t.Fatalf("Run(greedy) of %s: %v", raw, err)
		}
		n, err := query.Run(ctx, st, naive)
		if err != nil {
			t.Fatalf("Run(naive) of %s: %v", raw, err)
		}
		if !reflect.DeepEqual(g.Columns, n.Columns) || !rowsEqual(g.Rows, n.Rows) {
			t.Fatalf("plans diverge on %s:\n greedy: %v\n naive:  %v", raw, g.Rows, n.Rows)
		}
	})
}
