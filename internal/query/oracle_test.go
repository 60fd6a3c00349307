package query_test

// The brute-force oracle: materialize every (object, user) row of the
// resolutions relation, then evaluate a wire.Query over the material —
// no planner, no pushdown, no streaming. Parity tests and the fuzzer
// hold both compiled plans (greedy and naive) to this reference.

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"testing"

	"trustmap"
	"trustmap/wire"
)

// orow is one materialized tuple: column name -> value, in the same
// dynamic types the executor produces.
type orow map[string]any

// materialize builds the full resolutions relation of a quiescent store
// in scan order: objects by key (the Resolved stream order), users
// sorted. Beliefs come from the live table, not the row the executor
// reads them from.
func materialize(t testing.TB, site *trustmap.Store) []orow {
	t.Helper()
	users := append([]string{}, site.Users()...)
	sort.Strings(users)
	var rows []orow
	for or, err := range site.Resolved(context.Background()) {
		if err != nil {
			t.Fatalf("materialize: %v", err)
		}
		beliefs, _ := site.Object(or.Object)
		for _, u := range users {
			possible, certain, err := or.Lookup(u)
			if err != nil {
				continue
			}
			r := orow{
				"object":         or.Object,
				"user":           u,
				"certain":        certain,
				"possible":       possible,
				"possible_count": len(possible),
				"has_certain":    certain != "",
				"conflicted":     len(possible) > 1,
			}
			b, stated := beliefs[u]
			r["belief"], r["has_belief"] = b, stated
			r["agrees"] = stated && certain != "" && b == certain
			r["disagrees"] = stated && certain != "" && b != certain
			rows = append(rows, r)
		}
	}
	return rows
}

// oNum widens the numeric shapes that appear in rows and operands.
func oNum(v any) float64 {
	switch n := v.(type) {
	case float64:
		return n
	case float32:
		return float64(n)
	case int:
		return float64(n)
	case int64:
		return float64(n)
	case uint64:
		return float64(n)
	case bool:
		if n {
			return 1
		}
		return 0
	}
	return 0
}

// oCmp three-way-compares two scalar values; nil sorts first.
func oCmp(a, b any) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		}
		return 1
	}
	if as, ok := a.(string); ok {
		return strings.Compare(as, b.(string))
	}
	if ab, ok := a.(bool); ok {
		bb := b.(bool)
		switch {
		case ab == bb:
			return 0
		case !ab:
			return -1
		}
		return 1
	}
	fa, fb := oNum(a), oNum(b)
	switch {
	case fa < fb:
		return -1
	case fa > fb:
		return 1
	}
	return 0
}

func oOrdOK(c int, op string) bool {
	switch op {
	case wire.PredEq:
		return c == 0
	case wire.PredNe:
		return c != 0
	case wire.PredLt:
		return c < 0
	case wire.PredLe:
		return c <= 0
	case wire.PredGt:
		return c > 0
	case wire.PredGe:
		return c >= 0
	}
	return false
}

// oPred evaluates one wire predicate on a materialized tuple.
func oPred(r orow, p wire.Predicate) bool {
	v := r[p.Col]
	if v == nil && p.ColB == "" {
		return false // an empty-group min/max in having
	}
	if p.ColB != "" {
		w := r[p.ColB]
		if v == nil || w == nil {
			return false
		}
		return oOrdOK(oCmp(v, w), p.Op)
	}
	switch t := v.(type) {
	case []string:
		for _, s := range t {
			if s == p.Value.(string) {
				return true
			}
		}
		return false
	case bool:
		want := true
		if p.Value != nil {
			want = p.Value.(bool)
		}
		if p.Op == wire.PredEq {
			return t == want
		}
		return t != want
	case string:
		switch p.Op {
		case wire.PredIn:
			for _, e := range p.Values {
				if t == e.(string) {
					return true
				}
			}
			return false
		case wire.PredPrefix:
			return strings.HasPrefix(t, p.Value.(string))
		default:
			return oOrdOK(strings.Compare(t, p.Value.(string)), p.Op)
		}
	default:
		f := oNum(v)
		if p.Op == wire.PredIn {
			for _, e := range p.Values {
				if f == oNum(e) {
					return true
				}
			}
			return false
		}
		return oOrdOK(oCmp(f, oNum(p.Value)), p.Op)
	}
}

func oPreds(r orow, preds []wire.Predicate) bool {
	for _, p := range preds {
		if !oPred(r, p) {
			return false
		}
	}
	return true
}

// oracleRun evaluates q over the materialized relation and returns the
// output columns and rows; q must be a query Compile accepts.
func oracleRun(rows []orow, q wire.Query) ([]string, [][]any) {
	// Split where: r_-prefixed predicates evaluate post-join.
	var pre, post []wire.Predicate
	for _, p := range q.Where {
		if strings.HasPrefix(p.Col, "r_") || strings.HasPrefix(p.ColB, "r_") {
			post = append(post, p)
		} else {
			pre = append(pre, p)
		}
	}

	// Filter (and join) in scan order.
	var tuples []orow
	if q.Join == nil {
		for _, r := range rows {
			if oPreds(r, pre) {
				tuples = append(tuples, r)
			}
		}
	} else {
		var extraOn []string
		for _, c := range q.Join.On {
			if c != "object" {
				extraOn = append(extraOn, c)
			}
		}
		// Per-object blocks, in scan order; rows are already grouped by
		// object because materialize emits objects contiguously.
		for i := 0; i < len(rows); {
			j := i
			for j < len(rows) && rows[j]["object"] == rows[i]["object"] {
				j++
			}
			block := rows[i:j]
			i = j
			for _, l := range block {
				if !oPreds(l, pre) {
					continue
				}
				for _, r := range block {
					if !oPreds(r, q.Join.Where) {
						continue
					}
					match := true
					for _, c := range extraOn {
						if oCmp(l[c], r[c]) != 0 {
							match = false
							break
						}
					}
					if !match {
						continue
					}
					m := orow{}
					for k, v := range l {
						m[k] = v
					}
					for k, v := range r {
						m["r_"+k] = v
					}
					if oPreds(m, post) {
						tuples = append(tuples, m)
					}
				}
			}
		}
	}

	// Aggregation.
	if len(q.Aggs) > 0 {
		type group struct {
			keyVals []any
			rows    []orow
		}
		var order []*group
		index := map[string]*group{}
		for _, r := range tuples {
			var b strings.Builder
			vals := make([]any, len(q.GroupBy))
			for i, c := range q.GroupBy {
				vals[i] = r[c]
				b.WriteString(strconv.Quote(formatKey(r[c]))) // quoting keeps any value, NUL included, apart from its neighbour
			}
			g := index[b.String()]
			if g == nil {
				g = &group{keyVals: vals}
				index[b.String()] = g
				order = append(order, g)
			}
			g.rows = append(g.rows, r)
		}
		if len(q.GroupBy) == 0 && len(order) == 0 {
			order = append(order, &group{})
		}
		sort.SliceStable(order, func(i, j int) bool {
			for c := range q.GroupBy {
				cmp := oCmp(order[i].keyVals[c], order[j].keyVals[c])
				if cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})

		var outCols []string
		outCols = append(outCols, q.GroupBy...)
		aggNames := make([]string, len(q.Aggs))
		for i, a := range q.Aggs {
			name := a.As
			if name == "" {
				name = a.Fn
				if a.Of != "" {
					name = a.Fn + "_" + a.Of
				}
			}
			aggNames[i] = name
			outCols = append(outCols, name)
		}

		var gtuples []orow
		for _, g := range order {
			out := orow{}
			for i, c := range q.GroupBy {
				out[c] = g.keyVals[i]
			}
			for i, a := range q.Aggs {
				out[aggNames[i]] = oracleAgg(a, g.rows)
			}
			if oPreds(out, q.Having) {
				gtuples = append(gtuples, out)
			}
		}
		sel := q.Select
		if len(sel) == 0 {
			sel = outCols
		}
		return project(gtuples, sel, q.OrderBy, q.Limit)
	}

	sel := q.Select
	if len(sel) == 0 {
		switch {
		case q.Join != nil:
			sel = []string{"object", "user", "certain", "r_user", "r_certain"}
		default:
			sel = []string{"object", "user", "certain", "belief", "possible_count"}
		}
	}
	return project(tuples, sel, q.OrderBy, q.Limit)
}

// formatKey renders a group-key value for the oracle's group index.
func formatKey(v any) string {
	switch t := v.(type) {
	case string:
		return "s" + t
	case bool:
		if t {
			return "bt"
		}
		return "bf"
	}
	return "n" + strconv.FormatFloat(oNum(v), 'g', -1, 64)
}

// oracleAgg computes one aggregate directly over a group's rows.
func oracleAgg(a wire.Aggregate, rows []orow) any {
	switch a.Fn {
	case wire.AggCount:
		return int64(len(rows))
	case wire.AggSum:
		var s float64
		for _, r := range rows {
			s += oNum(r[a.Of])
		}
		return s
	case wire.AggAvg, wire.AggRate:
		if len(rows) == 0 {
			return float64(0)
		}
		var s float64
		for _, r := range rows {
			s += oNum(r[a.Of])
		}
		return s / float64(len(rows))
	case wire.AggMin:
		var mm any
		for _, r := range rows {
			if v := r[a.Of]; mm == nil || oCmp(v, mm) < 0 {
				mm = v
			}
		}
		return mm
	case wire.AggMax:
		var mm any
		for _, r := range rows {
			if v := r[a.Of]; mm == nil || oCmp(v, mm) > 0 {
				mm = v
			}
		}
		return mm
	}
	return nil
}

// project selects, orders (stably), and limits tuples.
func project(tuples []orow, sel []string, orderBy []wire.OrderKey, limit int) ([]string, [][]any) {
	out := make([][]any, len(tuples))
	for i, r := range tuples {
		vals := make([]any, len(sel))
		for j, c := range sel {
			vals[j] = r[c]
		}
		out[i] = vals
	}
	if len(orderBy) > 0 {
		idx := map[string]int{}
		for j, c := range sel {
			if _, ok := idx[c]; !ok {
				idx[c] = j
			}
		}
		sort.SliceStable(out, func(i, j int) bool {
			for _, ok := range orderBy {
				c := oCmp(out[i][idx[ok.Col]], out[j][idx[ok.Col]])
				if c == 0 {
					continue
				}
				if ok.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return append([]string{}, sel...), out
}
