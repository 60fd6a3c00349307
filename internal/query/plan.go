package query

// Compilation: wire.Query -> Plan. All validation lives here (every
// rejection wraps ErrBadQuery), as does the greedy predicate ordering —
// the executor trusts the Plan completely.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"trustmap/wire"
)

// pred is one validated predicate: a pure comparison of one column
// against a literal operand, an operand set, or a second column of the
// same kind. It exists only during compilation — the plan keeps what
// lowerRow / lowerOut make of it.
type pred struct {
	col  column
	colB column // compared against instead of a literal when hasB
	hasB bool
	op   string
	str  string    // string operand (eq/ne/lt/../prefix/contains)
	num  float64   // numeric operand
	b    bool      // boolean operand
	strs []string  // string in-list
	nums []float64 // numeric in-list
	orig int       // position in the written where-list (reorder stat)
}

// rowPred is a predicate lowered onto the typed tuple; outPred one
// lowered onto an aggregate output row (having).
type (
	rowPred func(t *tuple) bool
	outPred func(vals []any) bool
)

// aggPlan is one compiled aggregate output.
type aggPlan struct {
	fn     string
	name   string // output column name
	inKind kind   // input column kind (count: unused)
	kind   kind   // output kind
	// fold accumulates m copies of one tuple, specialised on (fn, input
	// kind, slot). Inputs are integers or booleans, so count, sum, avg and
	// rate scale exactly by m; min and max ignore it.
	fold func(st *aggState, t *tuple, m int64)
}

// orderPlan is one compiled sort key: an output column by its position
// in the projection.
type orderPlan struct {
	desc bool
	kind kind
	idx  int // position in Plan.sel
}

// joinPlan is the compiled self-join clause.
type joinPlan struct {
	on    []rowPred // left = right on the extra equality columns beyond object
	where []rowPred // right-side filters, evaluated with the candidate as tuple[0]
}

// Plan is a compiled, validated query ready to Run. Build one with
// Compile (greedy ordering and key/user pushdown) or CompileNaive
// (predicates exactly as written, no pushdown — the parity and
// benchmark reference). Plans are immutable and safe for concurrent
// use, including concurrent RunPartial calls across shards.
type Plan struct {
	keys      []string // object key pushdown, sorted+deduped; nil = scan
	hasKeys   bool
	users     []string // user-loop restriction, sorted+deduped; nil = all
	hasUsers  bool
	need      uint16    // base columns the query references, by slot bit
	filters   []rowPred // left/base row filters, in evaluation order
	postJoin  []rowPred // filters referencing r_ columns (joined rows)
	join      *joinPlan
	groupBy   []column // tuple slots of the group key, in order
	aggs      []aggPlan
	having    []outPred
	cols      []string // output column names
	sel       []int    // their slots: tuple slots, or positions in the group output row
	orderBy   []orderPlan
	limit     int
	reordered int
}

// Aggregated reports whether the plan is a (possibly grouped) aggregate
// — the plans a cluster can scatter as per-shard partials (RunPartial)
// and merge with Finalize.
func (p *Plan) Aggregated() bool { return len(p.aggs) > 0 }

// Reordered counts predicates the greedy planner evaluates ahead of a
// predicate written before them; zero on naive plans.
func (p *Plan) Reordered() int { return p.reordered }

// Compile validates q and builds its greedy plan: object/user equality
// pushed down, remaining filters ordered value-equality >> membership
// >> residual >> cross-column (stable within a class).
func Compile(q wire.Query) (*Plan, error) { return compile(q, false) }

// CompileNaive validates q and builds the left-to-right reference plan:
// no pushdown, no reordering — every predicate is an ordinary filter in
// written order. Semantically identical to Compile's plan; it exists so
// fuzzing and benchmarks can hold the greedy planner to the naive one.
func CompileNaive(q wire.Query) (*Plan, error) { return compile(q, true) }

func bad(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadQuery, fmt.Sprintf(format, args...))
}

func compile(q wire.Query, naive bool) (*Plan, error) {
	p := &Plan{limit: q.Limit}
	if q.Limit < 0 {
		return nil, bad("limit %d is negative", q.Limit)
	}

	// Row space: the base catalog, plus r_ twins when the query joins.
	rows := baseSpace
	if q.Join != nil {
		rows = joinSpace
		jp := &joinPlan{}
		hasObject := false
		seen := map[string]bool{}
		for _, c := range q.Join.On {
			col, ok := baseSpace[c]
			if !ok || col.kind == kindStrings {
				return nil, bad("join on column %q is not a scalar relation column", c)
			}
			if seen[c] {
				return nil, bad("join on column %q repeated", c)
			}
			seen[c] = true
			if c == ColObject {
				hasObject = true
				continue
			}
			twin := column{col.kind, numBase + col.slot}
			jp.on = append(jp.on, p.lowerRow(pred{col: col, colB: twin, hasB: true, op: wire.PredEq}))
		}
		if !hasObject {
			return nil, bad("join on must include %q: joins pair users' views of the same object", ColObject)
		}
		for i, wp := range q.Join.Where {
			cp, err := compilePred(wp, baseSpace, i)
			if err != nil {
				return nil, fmt.Errorf("join where[%d]: %w", i, err)
			}
			jp.where = append(jp.where, p.lowerRow(cp))
		}
		p.join = jp
	}

	// Partition the where-list: predicates touching r_ columns evaluate
	// post-join; object/user equality extracts as pushdown (greedy only);
	// the rest are base-row filters.
	var (
		filters           []pred
		keySets, userSets [][]string
		pushOrigs         []int
	)
	for i, wp := range q.Where {
		if strings.HasPrefix(wp.Col, rightPrefix) || strings.HasPrefix(wp.ColB, rightPrefix) {
			if q.Join == nil {
				return nil, bad("where[%d]: column %q needs a join clause", i, wp.Col)
			}
			cp, err := compilePred(wp, rows, i)
			if err != nil {
				return nil, fmt.Errorf("where[%d]: %w", i, err)
			}
			p.postJoin = append(p.postJoin, p.lowerRow(cp))
			continue
		}
		cp, err := compilePred(wp, baseSpace, i)
		if err != nil {
			return nil, fmt.Errorf("where[%d]: %w", i, err)
		}
		if !naive && !cp.hasB && (cp.op == wire.PredEq || cp.op == wire.PredIn) {
			switch cp.col.slot {
			case slotObject:
				keySets = append(keySets, predStrings(cp))
				pushOrigs = append(pushOrigs, i)
				continue
			case slotUser:
				userSets = append(userSets, predStrings(cp))
				pushOrigs = append(pushOrigs, i)
				continue
			}
		}
		filters = append(filters, cp)
	}
	if len(keySets) > 0 {
		p.keys, p.hasKeys = intersectSorted(keySets), true
	}
	if len(userSets) > 0 {
		p.users, p.hasUsers = intersectSorted(userSets), true
	}
	if !naive {
		sort.SliceStable(filters, func(i, j int) bool {
			return filterClass(filters[i]) < filterClass(filters[j])
		})
		// Evaluation order: pushdowns first, then the sorted filters.
		evalOrigs := append([]int{}, pushOrigs...)
		for _, f := range filters {
			evalOrigs = append(evalOrigs, f.orig)
		}
		p.reordered = countReordered(evalOrigs)
	}
	for _, f := range filters {
		p.filters = append(p.filters, p.lowerRow(f))
	}

	// Grouping and aggregates. out is the space having, select and order
	// resolve against: the tuple itself, or the group output row (group
	// columns, then aggregates).
	if len(q.GroupBy) > 0 && len(q.Aggs) == 0 {
		return nil, bad("group_by requires at least one aggregate")
	}
	out := rows
	var outOrder []string
	if len(q.Aggs) > 0 {
		out = make(space, len(q.GroupBy)+len(q.Aggs))
		for _, c := range q.GroupBy {
			col, ok := rows[c]
			if !ok || col.kind == kindStrings {
				return nil, bad("group_by column %q is not a scalar relation column", c)
			}
			if _, dup := out[c]; dup {
				return nil, bad("group_by column %q repeated", c)
			}
			out[c] = column{col.kind, len(outOrder)}
			outOrder = append(outOrder, c)
			p.groupBy = append(p.groupBy, column{col.kind, p.use(col)})
		}
		for i, a := range q.Aggs {
			ap, err := p.compileAgg(a, rows)
			if err != nil {
				return nil, fmt.Errorf("aggs[%d]: %w", i, err)
			}
			if _, dup := out[ap.name]; dup {
				return nil, bad("aggs[%d]: output column %q repeated", i, ap.name)
			}
			out[ap.name] = column{ap.kind, len(outOrder)}
			outOrder = append(outOrder, ap.name)
			p.aggs = append(p.aggs, ap)
		}
	}
	for i, wp := range q.Having {
		if len(q.Aggs) == 0 {
			return nil, bad("having requires aggregates")
		}
		cp, err := compilePred(wp, out, i)
		if err != nil {
			return nil, fmt.Errorf("having[%d]: %w", i, err)
		}
		p.having = append(p.having, lowerOut(cp))
	}

	// Projection: explicit, or the documented defaults.
	sel := q.Select
	if len(sel) == 0 {
		switch {
		case len(q.Aggs) > 0:
			sel = outOrder
		case q.Join != nil:
			sel = []string{ColObject, ColUser, ColCertain, rightPrefix + ColUser, rightPrefix + ColCertain}
		default:
			sel = []string{ColObject, ColUser, ColCertain, ColBelief, ColPossibleCount}
		}
	}
	selAt := map[string]orderPlan{} // first position and kind of each selected column
	for i, c := range sel {
		col, ok := out[c]
		if !ok {
			return nil, bad("select column %q is not an output column", c)
		}
		if !p.Aggregated() {
			p.use(col)
		}
		p.cols = append(p.cols, c)
		p.sel = append(p.sel, col.slot)
		if _, dup := selAt[c]; !dup {
			selAt[c] = orderPlan{kind: col.kind, idx: i}
		}
	}
	for i, ok := range q.OrderBy {
		op, in := selAt[ok.Col]
		if !in {
			return nil, bad("order_by[%d]: column %q is not among the selected output columns", i, ok.Col)
		}
		if op.kind == kindStrings {
			return nil, bad("order_by[%d]: column %q is not scalar", i, ok.Col)
		}
		op.desc = ok.Desc
		p.orderBy = append(p.orderBy, op)
	}
	return p, nil
}

// use marks a tuple column as referenced and returns its slot.
func (p *Plan) use(c column) int {
	p.need |= 1 << (c.slot % numBase)
	return c.slot
}

// lowerRow specialises a validated tuple-space predicate on its kind and
// operator: the closure it returns reads fixed slots of the typed tuple.
func (p *Plan) lowerRow(cp pred) rowPred {
	side, c := p.use(cp.col)/numBase, cp.col.slot%numBase
	if cp.hasB {
		sideB, cB := p.use(cp.colB)/numBase, cp.colB.slot%numBase
		ok := ordTest(cp.op)
		switch cp.col.kind {
		case kindString:
			return func(t *tuple) bool { return ok(strings.Compare(t[side].strs[c], t[sideB].strs[cB])) }
		case kindInt:
			return func(t *tuple) bool { return ok(cmp.Compare(t[side].count, t[sideB].count)) }
		}
		c, cB := c-slotHasCertain, cB-slotHasCertain
		return func(t *tuple) bool { return ok(cmpBool(t[side].bools[c], t[sideB].bools[cB])) }
	}
	switch cp.col.kind {
	case kindStrings:
		return func(t *tuple) bool { return slices.Contains(t[side].poss, cp.str) }
	case kindString:
		test := cp.strTest()
		return func(t *tuple) bool { return test(t[side].strs[c]) }
	case kindInt:
		test := cp.numTest()
		return func(t *tuple) bool { return test(float64(t[side].count)) }
	}
	c, want := c-slotHasCertain, cp.boolWant()
	return func(t *tuple) bool { return t[side].bools[c] == want }
}

// lowerOut specialises a validated having predicate over the group
// output row, whose values are already boxed; nil (an empty-group
// min/max) fails every predicate.
func lowerOut(cp pred) outPred {
	i := cp.col.slot
	if cp.hasB {
		j, k, ok := cp.colB.slot, cp.col.kind, ordTest(cp.op)
		return func(v []any) bool { return v[i] != nil && v[j] != nil && ok(cmpVals(k, v[i], v[j])) }
	}
	switch cp.col.kind {
	case kindString:
		test := cp.strTest()
		return func(v []any) bool { s, ok := v[i].(string); return ok && test(s) }
	case kindBool:
		want := cp.boolWant()
		return func(v []any) bool { b, ok := v[i].(bool); return ok && b == want }
	}
	test := cp.numTest()
	return func(v []any) bool { f, ok := toFloat(v[i]); return ok && test(f) }
}

// strTest lowers a string predicate's operator and literal operand.
func (cp pred) strTest() func(string) bool {
	switch cp.op {
	case wire.PredIn:
		return func(s string) bool { return slices.Contains(cp.strs, s) }
	case wire.PredPrefix:
		return func(s string) bool { return strings.HasPrefix(s, cp.str) }
	}
	ok := ordTest(cp.op)
	return func(s string) bool { return ok(strings.Compare(s, cp.str)) }
}

// numTest lowers a numeric predicate's operator and literal operand.
func (cp pred) numTest() func(float64) bool {
	if cp.op == wire.PredIn {
		return func(f float64) bool { return slices.Contains(cp.nums, f) }
	}
	ok := ordTest(cp.op)
	return func(f float64) bool { return ok(cmpFloat(f, cp.num)) }
}

// boolWant is the column value a boolean eq/ne predicate accepts.
func (cp pred) boolWant() bool { return cp.b == (cp.op == wire.PredEq) }

// ordTest lowers an ordered operator to a test of a three-way
// comparison; nil when op is not one of the six.
func ordTest(op string) func(c int) bool {
	switch op {
	case wire.PredEq:
		return func(c int) bool { return c == 0 }
	case wire.PredNe:
		return func(c int) bool { return c != 0 }
	case wire.PredLt:
		return func(c int) bool { return c < 0 }
	case wire.PredLe:
		return func(c int) bool { return c <= 0 }
	case wire.PredGt:
		return func(c int) bool { return c > 0 }
	case wire.PredGe:
		return func(c int) bool { return c >= 0 }
	}
	return nil
}

// filterClass buckets a base-row filter for the greedy order: scalar
// equality (0) before membership (1) before residual comparisons (2)
// before cross-column comparisons (3).
func filterClass(p pred) int {
	switch {
	case p.hasB:
		return 3
	case p.op == wire.PredEq:
		return 0
	case p.op == wire.PredIn:
		return 1
	default:
		return 2
	}
}

// countReordered counts predicates evaluated ahead of at least one
// predicate written before them, given the written indices of the
// evaluation order — the planner's visible deviation from written order.
func countReordered(evalOrigs []int) int {
	n := 0
	for i, v := range evalOrigs {
		for _, w := range evalOrigs[i+1:] {
			if w < v {
				n++
				break
			}
		}
	}
	return n
}

// predStrings returns the string operand set of an eq/in predicate.
func predStrings(p pred) []string {
	if p.op == wire.PredEq {
		return []string{p.str}
	}
	return p.strs
}

// intersectSorted intersects the operand sets and returns the result
// sorted and deduplicated (possibly empty: a provably empty result).
func intersectSorted(sets [][]string) []string {
	counts := map[string]int{}
	for _, set := range sets {
		seen := map[string]bool{}
		for _, s := range set {
			if !seen[s] {
				seen[s] = true
				counts[s]++
			}
		}
	}
	out := []string{}
	for s, c := range counts {
		if c == len(sets) {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// compilePred validates one wire predicate against a column space and
// normalizes its operand.
func compilePred(wp wire.Predicate, sp space, orig int) (pred, error) {
	col, ok := sp[wp.Col]
	if !ok {
		return pred{}, bad("unknown column %q", wp.Col)
	}
	k := col.kind
	p := pred{col: col, op: wp.Op, orig: orig}

	if wp.ColB != "" {
		if wp.Value != nil || len(wp.Values) > 0 {
			return pred{}, bad("col_b and a literal operand are mutually exclusive")
		}
		colB, ok := sp[wp.ColB]
		if !ok {
			return pred{}, bad("unknown column %q", wp.ColB)
		}
		if colB.kind != k || k == kindStrings {
			return pred{}, bad("cannot compare column %q against column %q", wp.Col, wp.ColB)
		}
		if ordTest(wp.Op) == nil || (k == kindBool && wp.Op != wire.PredEq && wp.Op != wire.PredNe) {
			return pred{}, bad("operator %q is not valid for a column comparison", wp.Op)
		}
		p.colB, p.hasB = colB, true
		return p, nil
	}

	switch k {
	case kindStrings:
		if wp.Op != wire.PredContains {
			return pred{}, bad("column %q only supports %q", wp.Col, wire.PredContains)
		}
		s, ok := wp.Value.(string)
		if !ok {
			return pred{}, bad("%q needs a string operand", wire.PredContains)
		}
		p.str = s
	case kindBool:
		if wp.Op != wire.PredEq && wp.Op != wire.PredNe {
			return pred{}, bad("boolean column %q only supports eq/ne", wp.Col)
		}
		switch v := wp.Value.(type) {
		case nil:
			p.b = true // {"col":"agrees","op":"eq"} means agrees == true
		case bool:
			p.b = v
		default:
			return pred{}, bad("boolean column %q needs a boolean operand", wp.Col)
		}
	case kindString:
		switch wp.Op {
		case wire.PredIn:
			for _, v := range wp.Values {
				s, ok := v.(string)
				if !ok {
					return pred{}, bad("in-list for column %q needs string elements", wp.Col)
				}
				p.strs = append(p.strs, s)
			}
		case wire.PredEq, wire.PredNe, wire.PredLt, wire.PredLe, wire.PredGt, wire.PredGe, wire.PredPrefix:
			s, ok := wp.Value.(string)
			if !ok {
				return pred{}, bad("column %q needs a string operand", wp.Col)
			}
			p.str = s
		default:
			return pred{}, bad("operator %q is not valid on string column %q", wp.Op, wp.Col)
		}
	case kindInt, kindFloat:
		switch wp.Op {
		case wire.PredIn:
			for _, v := range wp.Values {
				f, ok := toFloat(v)
				if !ok {
					return pred{}, bad("in-list for column %q needs numeric elements", wp.Col)
				}
				p.nums = append(p.nums, f)
			}
		case wire.PredEq, wire.PredNe, wire.PredLt, wire.PredLe, wire.PredGt, wire.PredGe:
			f, ok := toFloat(wp.Value)
			if !ok {
				return pred{}, bad("column %q needs a numeric operand", wp.Col)
			}
			p.num = f
		default:
			return pred{}, bad("operator %q is not valid on numeric column %q", wp.Op, wp.Col)
		}
	}
	return p, nil
}

// compileAgg validates one aggregate against the row space and lowers
// its accumulation step.
func (p *Plan) compileAgg(a wire.Aggregate, sp space) (aggPlan, error) {
	ap := aggPlan{fn: a.Fn, name: a.As}
	if ap.name == "" {
		ap.name = a.Fn
		if a.Of != "" {
			ap.name = a.Fn + "_" + a.Of
		}
	}
	if a.Fn == wire.AggCount {
		if a.Of != "" {
			return aggPlan{}, bad("count takes no input column")
		}
		ap.kind = kindInt
		ap.fold = func(st *aggState, _ *tuple, m int64) { st.n += m }
		return ap, nil
	}
	in, ok := sp[a.Of]
	if !ok {
		return aggPlan{}, bad("unknown aggregate input column %q", a.Of)
	}
	ap.inKind = in.kind
	side, c := in.slot/numBase, in.slot%numBase
	// Booleans count as 0/1: sum and avg over one are rate's (sum, n).
	countTrue := func(st *aggState, t *tuple, m int64) {
		if t[side].bools[c-slotHasCertain] {
			st.sum += float64(m)
		}
		st.n += m
	}
	switch a.Fn {
	case wire.AggSum, wire.AggAvg:
		switch ap.kind = kindFloat; in.kind {
		case kindInt:
			ap.fold = func(st *aggState, t *tuple, m int64) { st.sum += float64(t[side].count) * float64(m); st.n += m }
		case kindBool:
			ap.fold = countTrue
		default:
			return aggPlan{}, bad("%s needs a numeric or boolean input column, not %q", a.Fn, a.Of)
		}
	case wire.AggRate:
		if in.kind != kindBool {
			return aggPlan{}, bad("rate needs a boolean input column, not %q", a.Of)
		}
		ap.kind, ap.fold = kindFloat, countTrue
	case wire.AggMin, wire.AggMax:
		better := func(c int) bool { return c < 0 }
		if a.Fn == wire.AggMax {
			better = func(c int) bool { return c > 0 }
		}
		switch ap.kind = in.kind; in.kind {
		case kindInt:
			ap.fold = func(st *aggState, t *tuple, _ int64) {
				if v := int64(t[side].count); !st.seen || better(cmp.Compare(v, st.n)) {
					st.n, st.seen = v, true
				}
			}
		case kindString:
			ap.fold = func(st *aggState, t *tuple, _ int64) {
				if v := t[side].strs[c]; !st.seen || better(strings.Compare(v, st.str)) {
					st.str, st.seen = v, true
				}
			}
		default:
			return aggPlan{}, bad("%s needs a numeric or string input column, not %q", a.Fn, a.Of)
		}
	default:
		return aggPlan{}, bad("unknown aggregate function %q", a.Fn)
	}
	p.use(in)
	return ap, nil
}

// toFloat normalizes the numeric shapes JSON decoding and Go callers
// produce.
func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	}
	return 0, false
}
