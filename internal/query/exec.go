package query

// Execution: streaming scan -> filter -> (self-join) -> project for
// row plans, and scan -> accumulate -> merge -> finalize for aggregate
// plans. The aggregate split (RunPartial / Finalize) is the cluster
// scatter-gather seam: every shard accumulates its own objects at its
// own pinned epoch, and the merge is exact because every aggregate
// function decomposes.
//
// An unjoined aggregate plan that never reads the object column folds
// each distinct row once: leaving out the object, a row is fixed by the
// user, the user's interned possible set and the user's stated belief,
// so the scan only counts how often each such cell occurs, and the fold
// builds, filters, groups and folds each cell once, weighted by its
// count; if the first objects show that rows hardly repeat, it folds the
// cells counted so far and the rest row by row (see cellTable). Every
// other plan folds row by row.
//
// An aggregate grouped by user alone, or global, probes its group map
// once per scanned user, not per row: (object, user) is a key of the
// relation, so the group key is a function of the row's user position.
// The memo caches only a pointer into Partial.groups, so it is exact.

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"sort"
	"strings"

	"trustmap"
	"trustmap/wire"
)

// Result is an executed query: output columns, rows in deterministic
// order, the minimum pinned epoch the rows were served at (the site's
// current epoch when no rows were consumed), and the execution stats.
type Result struct {
	// Columns names the output columns, in row order.
	Columns []string
	// Rows holds one []any per result row, positionally aligned with
	// Columns; values are string, bool, int, int64, float64, or []string.
	Rows [][]any
	// Epoch is the conservative epoch bound of the rows.
	Epoch uint64
	// Stats describes how the query ran.
	Stats wire.QueryStats
}

// Run executes a compiled plan against a site. The context cancels
// mid-scan: operator pulls ride the site's Resolved stream, which
// releases its pinned epochs on abandonment.
func Run(ctx context.Context, site Site, p *Plan) (*Result, error) {
	if p.Aggregated() {
		part, err := RunPartial(ctx, site, p)
		if err != nil {
			return nil, err
		}
		res, err := Finalize([]*Partial{part}, p)
		if err != nil {
			return nil, err
		}
		if !part.hasEpoch {
			res.Epoch = site.Epoch()
		}
		return res, nil
	}

	ex := newExec(site, p)
	out := [][]any{}
	stopLimit := p.limit > 0 && len(p.orderBy) == 0
	stopped, err := ex.scan(ctx, func(t *tuple) bool {
		vals := make([]any, len(p.sel))
		for i, slot := range p.sel {
			vals[i] = t.box(slot)
		}
		out = append(out, vals)
		return !(stopLimit && len(out) >= p.limit)
	})
	if err != nil {
		return nil, err
	}
	if stopped {
		ex.stats.EarlyTerminated = true
	}
	if len(p.orderBy) > 0 {
		sortRows(out, p)
	}
	if p.limit > 0 && len(out) > p.limit {
		out = out[:p.limit]
	}
	ex.stats.RowsEmitted = uint64(len(out))
	epoch := ex.epoch
	if !ex.hasEpoch {
		epoch = site.Epoch()
	}
	return &Result{Columns: append([]string{}, p.cols...), Rows: out, Epoch: epoch, Stats: ex.stats}, nil
}

// exec is the per-run scan state: the reader and every buffer a row
// touches are allocated here, once, and reused for all rows.
type exec struct {
	site     Site
	p        *Plan
	users    []string            // the scanned users, sorted: the pushdown's, or the universe
	inLeft   []bool              // join under a user pushdown: users admitted on the left side
	rd       *trustmap.RowReader // over users
	stats    wire.QueryStats
	epoch    uint64
	hasEpoch bool
	pos      int   // the scanned-user position of the unjoined row being yielded
	probes   int   // group-map probes made by partial
	folds    int   // rows or cells partial folded
	weight   int64 // the rows the tuple handed to yield stands for

	cells *cellTable // the distinct-row scan; nil: fold row by row

	t           tuple    // the tuple handed to predicates and yield
	cur         row      // the row being built
	left, right []row    // one object's filtered join sides
	poss        []string // backing array of the possible columns: one object's rows, or every shape of a distinct-row scan
}

func newExec(site Site, p *Plan) *exec {
	ex := &exec{site: site, p: p, users: p.users, weight: 1}
	ex.stats.PredicatesReordered = p.reordered
	// A join's right side always draws from the full user universe: a
	// user pushdown in where restricts only the left side, exactly like
	// the user filter it replaces.
	if !p.hasUsers || p.join != nil {
		ex.users = append([]string{}, site.Users()...)
		sort.Strings(ex.users)
		if p.hasUsers {
			ex.inLeft = make([]bool, len(ex.users))
			for i, u := range ex.users {
				_, ex.inLeft[i] = slices.BinarySearch(p.users, u)
			}
		}
	}
	ex.rd = trustmap.NewRowReader(ex.users)
	return ex
}

func (ex *exec) noteEpoch(e uint64) {
	if !ex.hasEpoch || e < ex.epoch {
		ex.epoch, ex.hasEpoch = e, true
	}
}

// scan drives the object source — the key pushdown's point lookups, or
// the site's pinned key-ordered stream — through per-object row
// generation, reporting whether yield stopped it early.
func (ex *exec) scan(ctx context.Context, yield func(*tuple) bool) (stopped bool, err error) {
	if ex.p.hasUsers && len(ex.p.users) == 0 {
		// Contradictory user equalities: provably empty before any work.
		ex.stats.EarlyTerminated = true
		return false, nil
	}
	if ex.p.hasKeys {
		if len(ex.p.keys) == 0 {
			ex.stats.EarlyTerminated = true
			return false, nil
		}
		for _, key := range ex.p.keys {
			or, err := ex.site.ResolveObject(ctx, key)
			if err != nil {
				if errors.Is(err, trustmap.ErrUnknownObject) {
					continue // a pushed key that is not stored: zero rows
				}
				return false, err
			}
			ex.stats.KeyLookups++
			if stopped, err := ex.object(or, yield); stopped || err != nil {
				return stopped, err
			}
		}
		return false, nil
	}
	for or, err := range ex.site.Resolved(ctx) {
		if err != nil {
			return false, err
		}
		if stopped, err := ex.object(or, yield); stopped || err != nil {
			return stopped, err
		}
	}
	return false, nil
}

// object generates and filters the relation rows of one resolved
// object, reporting whether yield stopped it; with a join clause it
// pairs the object's filtered left rows against its filtered right rows
// (joins are per-object by construction: on must include "object").
func (ex *exec) object(or trustmap.ObjectRow, yield func(*tuple) bool) (stopped bool, err error) {
	if err := ex.rd.Reset(or); err != nil {
		return false, err
	}
	ex.noteEpoch(or.Epoch())
	if tab := ex.cells; tab != nil {
		ex.count()
		if tab.objects >= distinctWindow && uint64(len(tab.cells))*distinctShare > ex.stats.RowsScanned {
			return ex.foldCells(yield), nil // rows hardly repeat
		}
		return false, nil
	}
	ex.poss = ex.poss[:0]
	ex.t = tuple{&ex.cur}
	if ex.p.join == nil {
		for i := range ex.users {
			if !ex.fill(or.Object, i) {
				continue
			}
			ex.stats.RowsScanned++
			ex.pos = i
			if pass(ex.p.filters, &ex.t) && !yield(&ex.t) {
				return true, nil
			}
		}
		return false, nil
	}

	left, right := ex.left[:0], ex.right[:0]
	for i := range ex.users {
		if !ex.fill(or.Object, i) {
			continue
		}
		ex.stats.RowsScanned++
		if (ex.inLeft == nil || ex.inLeft[i]) && pass(ex.p.filters, &ex.t) {
			left = append(left, ex.cur)
		}
		if pass(ex.p.join.where, &ex.t) {
			right = append(right, ex.cur)
		}
	}
	ex.left, ex.right = left, right
	for l := range left {
		for r := range right {
			ex.t = tuple{&left[l], &right[r]}
			if pass(ex.p.join.on, &ex.t) && pass(ex.p.postJoin, &ex.t) && !yield(&ex.t) {
				return true, nil
			}
		}
	}
	return false, nil
}

// cellKey is one distinct row of an object-free scan: the reader's
// snapshot number (set ids are compared only within the snapshot that
// produced them), the user position, the possible-set id (-1 for an
// empty set) and the stated belief (0 for none, else its number in
// cellTable.beliefs; always 0 when the plan reads no belief column).
type cellKey struct{ snap, pos, set, belief int32 }

// cell is one distinct row: its key, the row it shares with every cell
// of the same shape, and how many scanned rows it stands for.
type cell struct {
	key   cellKey
	shape int32 // index in cellTable.rows
	m     int64
}

// shapeKey is what a row holds besides its user: the snapshot's
// possible set and the stated belief.
type shapeKey struct{ snap, set, belief int32 }

// cellTable counts the distinct rows of a scan. A scanned row that
// repeats its user's previous cell costs one key compare and an
// increment of the user's run; any other also costs a multiply and a
// probe of the index, open-addressed on the key's integers. Since a row
// is its user plus a function of its set and belief, the rows
// themselves are kept once per shape. The table grows with the distinct
// rows it has seen, which need not stay few: where values are per object
// (free text, ids as values) no row repeats. So after distinctWindow
// objects, once the cells exceed 1/distinctShare of the rows counted,
// the scan folds them and goes on row by row: rows that never repeat
// cost one window of cells, not one cell per row. A key pushdown of
// fewer than distinctWindow keys folds row by row from the start.
type cellTable struct {
	index   []int32 // 1 + a position in cells, 0 empty; power-of-two length, at most half full
	cells   []cell  // in order of first sight
	runs    []run   // by user position
	shapes  map[shapeKey]int32
	rows    []row            // by shape, built from the first cell that had it
	beliefs map[string]int32 // stated belief -> cellKey.belief; nil when no belief column is read
	objects int              // objects counted
}

const (
	distinctWindow = 16
	distinctShare  = 4
)

// run is the cell a user position counted last and how many rows in a
// row it has counted there since; they are added to the cell when the
// run ends.
type run struct {
	key  cellKey
	cell int32 // 1 + the cell's position in cells, 0 before the first row
	n    int64
}

// newCellTable starts a table for the given number of scanned users with
// a 16-slot index that grows as cells arrive.
func newCellTable(users int, beliefs bool) *cellTable {
	tab := &cellTable{index: make([]int32, 16), runs: make([]run, users), shapes: map[shapeKey]int32{}}
	if beliefs {
		tab.beliefs = map[string]int32{}
	}
	return tab
}

// probe returns the index slot of k's cell, or the empty slot where it
// goes.
func (tab *cellTable) probe(k cellKey) *int32 {
	h := (uint64(uint32(k.pos))<<32 | uint64(uint32(k.set))) ^ (uint64(uint32(k.belief))<<32|uint64(uint32(k.snap)))*0xc2b2ae3d27d4eb4f
	h *= 0x9e3779b97f4a7c15
	mask := uint64(len(tab.index) - 1)
	for j := h >> 32 & mask; ; j = (j + 1) & mask {
		if sl := &tab.index[j]; *sl == 0 || tab.cells[*sl-1].key == k {
			return sl
		}
	}
}

// insert adds cell k at its empty index slot sl and returns 1 + its
// position in cells. build returns the row of a shape the table has not
// seen yet.
func (tab *cellTable) insert(sl *int32, k cellKey, build func() *row) int32 {
	sk := shapeKey{k.snap, k.set, k.belief}
	shape, seen := tab.shapes[sk]
	if !seen {
		shape = int32(len(tab.rows))
		tab.shapes[sk] = shape
		tab.rows = append(tab.rows, *build())
	}
	tab.cells = append(tab.cells, cell{key: k, shape: shape})
	c := int32(len(tab.cells))
	*sl = c
	if 2*len(tab.cells) > len(tab.index) {
		tab.index = make([]int32, 2*len(tab.index))
		for i, cl := range tab.cells {
			*tab.probe(cl.key) = int32(i + 1)
		}
	}
	return c
}

// count adds the current object's rows to the cell table, building a
// row only the first time its shape occurs.
func (ex *exec) count() {
	tab, rd := ex.cells, ex.rd
	scanned := uint64(0)
	for i := range ex.users {
		snap, set, ok := rd.PossibleID(i)
		if !ok {
			continue
		}
		scanned++
		k := cellKey{snap: int32(snap), pos: int32(i), set: int32(set)}
		if tab.beliefs != nil {
			if b, stated := rd.Belief(i); stated {
				num, seen := tab.beliefs[b]
				if !seen {
					num = int32(len(tab.beliefs)) + 1
					tab.beliefs[b] = num
				}
				k.belief = num
			}
		}
		r := &tab.runs[i]
		if r.cell == 0 || r.key != k {
			if r.cell != 0 {
				tab.cells[r.cell-1].m += r.n
			}
			sl := tab.probe(k)
			c := *sl
			if c == 0 {
				c = tab.insert(sl, k, func() *row { ex.fill("", i); return &ex.cur })
			}
			*r = run{key: k, cell: c}
		}
		r.n++
	}
	ex.stats.RowsScanned += scanned
	tab.objects++
}

// foldCells yields each distinct row counted so far that passes the
// filters once, weighted by how many rows it stands for, and ends the
// distinct-row scan: later objects fold row by row.
func (ex *exec) foldCells(yield func(*tuple) bool) (stopped bool) {
	tab := ex.cells
	ex.cells = nil
	for _, r := range tab.runs {
		if r.cell != 0 {
			tab.cells[r.cell-1].m += r.n
		}
	}
	ex.t = tuple{&ex.cur}
	for _, c := range tab.cells {
		ex.pos, ex.weight = int(c.key.pos), c.m
		ex.cur = tab.rows[c.shape]
		ex.cur.strs[slotUser] = ex.users[ex.pos]
		if pass(ex.p.filters, &ex.t) && !yield(&ex.t) {
			stopped = true
			break
		}
	}
	ex.weight = 1
	return stopped
}

// fill builds the current object's row for the i-th scanned user into
// ex.cur, writing only the columns the plan references beyond the free
// ones; false when the user is unknown to the network (no row exists).
func (ex *exec) fill(object string, i int) bool {
	certain, n, ok := ex.rd.Lookup(i)
	if !ok {
		return false
	}
	r := &ex.cur
	r.strs[slotObject], r.strs[slotUser], r.strs[slotCertain] = object, ex.users[i], certain
	r.count = n
	hasCertain := certain != ""
	r.setBool(slotHasCertain, hasCertain)
	r.setBool(slotConflicted, n > 1)
	if ex.p.need&beliefCols != 0 {
		belief, stated := ex.rd.Belief(i)
		r.strs[slotBelief] = belief
		r.setBool(slotHasBelief, stated)
		r.setBool(slotAgrees, stated && hasCertain && belief == certain)
		r.setBool(slotDisagrees, stated && hasCertain && belief != certain)
	}
	if ex.p.need&(1<<slotPossible) != 0 {
		at := len(ex.poss)
		ex.poss = ex.rd.AppendPossible(ex.poss, i)
		r.poss = ex.poss[at:len(ex.poss):len(ex.poss)]
	}
	return true
}

func (r *row) setBool(slot int, v bool) { r.bools[slot-slotHasCertain] = v }

// pass reports whether the tuple passes every predicate, in order.
func pass(preds []rowPred, t *tuple) bool {
	for _, p := range preds {
		if !p(t) {
			return false
		}
	}
	return true
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	}
	return 1
}

// cmpVals three-way-compares two column values of one kind; nil (an
// empty-group min/max) sorts before everything.
func cmpVals(k kind, a, b any) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		}
		return 1
	}
	switch k {
	case kindString:
		return strings.Compare(a.(string), b.(string))
	case kindBool:
		return cmpBool(a.(bool), b.(bool))
	default:
		fa, _ := toFloat(a)
		fb, _ := toFloat(b)
		return cmpFloat(fa, fb)
	}
}

// sortRows stable-sorts projected rows by the plan's order keys; ties
// keep the deterministic scan (or group-key) order.
func sortRows(rows [][]any, p *Plan) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, ok := range p.orderBy {
			c := cmpVals(ok.kind, rows[i][ok.idx], rows[j][ok.idx])
			if c == 0 {
				continue
			}
			if ok.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// --- aggregation ---------------------------------------------------------

// aggState is one aggregate's decomposable accumulator: (sum, n) covers
// count/sum/avg/rate exactly; a running min or max lives in n (integer
// input) or str (string input) once seen.
type aggState struct {
	n    int64
	sum  float64
	str  string
	seen bool
}

// accum is one group's accumulators plus its group-key column values.
type accum struct {
	keyVals []any
	aggs    []aggState
}

// Partial is one site's partial aggregation of an aggregate plan: the
// unit a cluster scatters per shard and merges with Finalize. All
// aggregate functions decompose, so merging partials is exact.
type Partial struct {
	groups   map[string]*accum
	stats    wire.QueryStats
	epoch    uint64
	hasEpoch bool
}

// RunPartial scans the site and accumulates the plan's groups without
// finalizing them. The plan must be Aggregated.
//
// An unjoined plan that never reads the object column folds each
// distinct (user, possible set, stated belief) row once, weighted by how
// many rows it stands for, unless its rows hardly repeat. An unjoined plan grouped by user alone, or
// global, probes the group map for the first row at each scanned-user
// position only; later rows there fold into the *accum it returned,
// memoized for the call.
func RunPartial(ctx context.Context, site Site, p *Plan) (*Partial, error) {
	if !p.Aggregated() {
		return nil, errors.New("query: RunPartial needs an aggregate plan")
	}
	return newExec(site, p).partial(ctx)
}

func (ex *exec) partial(ctx context.Context) (*Partial, error) {
	p := ex.p
	part := &Partial{groups: map[string]*accum{}}
	var memo []*accum // by user position; not on the Plan, which shards share
	if p.join == nil && !slices.ContainsFunc(p.groupBy, func(c column) bool { return c.slot != slotUser }) {
		memo = make([]*accum, len(ex.users))
	}
	if p.join == nil && p.need&(1<<slotObject) == 0 && !(p.hasKeys && len(p.keys) < distinctWindow) {
		ex.cells = newCellTable(len(ex.users), p.need&beliefCols != 0)
	}
	var key []byte // reused: probing with string(key) does not allocate
	fold := func(t *tuple) bool {
		ex.folds++
		var a *accum
		if memo != nil {
			a = memo[ex.pos]
		}
		if a == nil {
			ex.probes++
			key = appendGroupKey(key[:0], p.groupBy, t)
			if a = part.groups[string(key)]; a == nil {
				a = &accum{keyVals: make([]any, len(p.groupBy)), aggs: make([]aggState, len(p.aggs))}
				for i, c := range p.groupBy {
					a.keyVals[i] = t.box(c.slot)
				}
				part.groups[string(key)] = a
			}
			if memo != nil {
				memo[ex.pos] = a
			}
		}
		for i := range p.aggs {
			p.aggs[i].fold(&a.aggs[i], t, ex.weight)
		}
		return true
	}
	if _, err := ex.scan(ctx, fold); err != nil {
		return nil, err
	}
	if ex.cells != nil {
		ex.foldCells(fold)
	}
	part.stats = ex.stats
	part.epoch, part.hasEpoch = ex.epoch, ex.hasEpoch
	return part, nil
}

// appendGroupKey encodes the tuple's group-by values as a map key.
// Strings are length-prefixed and the other kinds self-delimiting, so
// no value's bytes can be read as part of its neighbour.
func appendGroupKey(b []byte, groupBy []column, t *tuple) []byte {
	for _, c := range groupBy {
		r, s := t[c.slot/numBase], c.slot%numBase
		switch c.kind {
		case kindString:
			b = binary.AppendUvarint(b, uint64(len(r.strs[s])))
			b = append(b, r.strs[s]...)
		case kindInt:
			b = binary.AppendVarint(b, int64(r.count))
		default: // kindBool
			v := byte(0)
			if r.bools[s-slotHasCertain] {
				v = 1
			}
			b = append(b, v)
		}
	}
	return b
}

// Finalize merges partial aggregations — per-shard scatter results, or
// the single partial of an unsharded Run — applies having, orders the
// groups deterministically (group-key ascending, then any explicit
// order keys), and projects the output rows. The merged epoch is the
// minimum over partials that consumed rows (zero when none did; the
// caller substitutes its site's current epoch).
func Finalize(partials []*Partial, p *Plan) (*Result, error) {
	if !p.Aggregated() {
		return nil, errors.New("query: Finalize needs an aggregate plan")
	}
	res := &Result{Columns: append([]string{}, p.cols...)}
	merged := map[string]*accum{}
	first := true
	for _, part := range partials {
		if part == nil {
			continue
		}
		res.Stats.RowsScanned += part.stats.RowsScanned
		res.Stats.KeyLookups += part.stats.KeyLookups
		res.Stats.EarlyTerminated = res.Stats.EarlyTerminated || part.stats.EarlyTerminated
		res.Stats.PredicatesReordered = part.stats.PredicatesReordered
		if part.hasEpoch && (first || part.epoch < res.Epoch) {
			res.Epoch, first = part.epoch, false
		}
		for key, a := range part.groups {
			m := merged[key]
			if m == nil {
				m = &accum{keyVals: a.keyVals, aggs: make([]aggState, len(p.aggs))}
				merged[key] = m
			}
			for i := range a.aggs {
				p.aggs[i].merge(&m.aggs[i], &a.aggs[i])
			}
		}
	}
	if len(p.groupBy) == 0 && len(merged) == 0 {
		// A global aggregate over zero rows still answers one group
		// (count 0), matching SQL and the brute-force oracle.
		merged[""] = &accum{aggs: make([]aggState, len(p.aggs))}
	}
	res.Stats.Groups = len(merged)

	groups := make([]*accum, 0, len(merged))
	for _, a := range merged {
		groups = append(groups, a)
	}
	sort.Slice(groups, func(i, j int) bool {
		for c, col := range p.groupBy {
			if cmp := cmpVals(col.kind, groups[i].keyVals[c], groups[j].keyVals[c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})

	rows := [][]any{}
	vals := make([]any, 0, len(p.groupBy)+len(p.aggs)) // the group output row
	for _, a := range groups {
		vals = append(vals[:0], a.keyVals...)
		for i := range p.aggs {
			vals = append(vals, p.aggs[i].value(&a.aggs[i]))
		}
		if !passOut(p.having, vals) {
			continue
		}
		out := make([]any, len(p.sel))
		for i, at := range p.sel {
			out[i] = vals[at]
		}
		rows = append(rows, out)
	}
	if len(p.orderBy) > 0 {
		sortRows(rows, p)
	}
	if p.limit > 0 && len(rows) > p.limit {
		rows = rows[:p.limit]
	}
	res.Stats.RowsEmitted = uint64(len(rows))
	res.Rows = rows
	return res, nil
}

func passOut(preds []outPred, vals []any) bool {
	for _, p := range preds {
		if !p(vals) {
			return false
		}
	}
	return true
}

// merge folds one partial aggregate state into the merged one.
func (ap *aggPlan) merge(dst, src *aggState) {
	switch ap.fn {
	case wire.AggMin, wire.AggMax:
		if !src.seen {
			return
		}
		c := cmp.Compare(src.n, dst.n)
		if ap.inKind == kindString {
			c = strings.Compare(src.str, dst.str)
		}
		if !dst.seen || (ap.fn == wire.AggMin && c < 0) || (ap.fn == wire.AggMax && c > 0) {
			*dst = *src
		}
	default:
		dst.n += src.n
		dst.sum += src.sum
	}
}

// value finalizes one aggregate output from its state, in its
// result-row dynamic type; nil is the min/max of an empty group.
func (ap *aggPlan) value(st *aggState) any {
	switch ap.fn {
	case wire.AggCount:
		return st.n
	case wire.AggSum:
		return st.sum
	case wire.AggAvg, wire.AggRate:
		if st.n == 0 {
			return float64(0)
		}
		return st.sum / float64(st.n)
	}
	switch { // min, max
	case !st.seen:
		return nil
	case ap.inKind == kindInt:
		return int(st.n)
	}
	return st.str
}
