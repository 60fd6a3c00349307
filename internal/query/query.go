// Package query is the streaming relational layer between resolution
// and serving: filter / project / self-join / group-aggregate / order /
// limit operators composed over the store's pinned-epoch resolution
// stream, so callers can ask the paper's audit questions — objects
// where k users disagree with their resolved value, per-user acceptance
// rates, conflict hot-spots — without materializing the store.
//
// Queries arrive as a wire.Query pattern AST (wire schema 6) over one
// relation, "resolutions": one row per (stored object, reporting user)
// with the columns documented on wire.Query. Compile turns the AST into
// a Plan with greedy predicate ordering (janus-datalog's "when greedy
// beats optimal" discipline: selectivity is visible in the pattern
// syntax, so no statistics are needed):
//
//   - object key equality/membership is extracted as a key pushdown —
//     point resolutions instead of a scan, and provably-empty key sets
//     terminate before touching the store;
//   - user equality/membership restricts the per-object user loop;
//   - remaining filters run value-equality first, then membership, then
//     residual comparisons, then cross-column comparisons — stably, so
//     equal-class predicates keep their written order.
//
// Run executes a Plan against a Site — one store, or a cluster router
// whose Resolved stream is already a key-ordered merge at per-shard
// pinned epochs. Aggregate plans also decompose: RunPartial produces a
// per-shard partial aggregation (all aggregate functions are chosen to
// merge exactly: count/sum/min/max directly, avg/rate as (sum, count)
// pairs) and Finalize merges partials in deterministic group-key order,
// which is how a cluster scatter-gathers a grouped query without
// shipping rows.
//
// The executor is compiled, not interpreted: Compile resolves every
// column reference to an integer slot of a fixed typed tuple (the base
// columns, then their r_ twins), lowers every predicate and aggregate to
// a closure specialised on (kind, operator), and records which base
// columns the query references at all, so the row builder skips the
// rest. Per scanned row the executor reads the resolution through a
// trustmap.RowReader (slice indexes off the engine's shared sets, the
// per-object work hoisted), probes groups with a reused key buffer, and
// boxes values to any only when a result row or a new group is created:
// allocations follow objects, groups and emitted rows, never scanned rows.
// An aggregate that never reads the object column goes further: the scan
// only counts each distinct (user, possible set, stated belief) row, and
// each is built, filtered and folded once, weighted by its count.
//
// Every column of a row, belief included, comes from the ObjectRow the
// pinned stream yielded: a row's belief is exactly the belief its
// resolution was computed from.
package query

import (
	"context"
	"errors"
	"iter"

	"trustmap"
)

// ErrBadQuery wraps every compile-time rejection of a wire.Query —
// unknown columns, operand/kind mismatches, invalid operators — so the
// HTTP layer can map exactly these to 400 and keep runtime failures 5xx.
var ErrBadQuery = errors.New("invalid query")

// Site is the surface a Plan executes against: the pinned-epoch scan,
// point resolution for key pushdowns, and the user universe of the
// shared spine. It is implemented by *trustmap.Store and by the cluster
// router (whose Resolved is the key-ordered k-way merge over shards).
type Site interface {
	// Resolved streams every stored object's resolution in sorted key
	// order at a pinned epoch (per shard, on a cluster).
	Resolved(ctx context.Context) iter.Seq2[trustmap.ObjectRow, error]
	// ResolveObject resolves one stored object; unknown keys answer an
	// error wrapping trustmap.ErrUnknownObject.
	ResolveObject(ctx context.Context, key string) (trustmap.ObjectRow, error)
	// Users lists every user of the trust network.
	Users() []string
	// Epoch is the current published generation — the epoch reported
	// when a query consumed no rows.
	Epoch() uint64
}

// Columns of the resolutions relation. The catalog (baseKinds) is the
// single source of truth the planner validates every AST column against.
const (
	// ColObject is the stored object's key.
	ColObject = "object"
	// ColUser is the reporting user.
	ColUser = "user"
	// ColCertain is the user's resolved value, "" when not certain.
	ColCertain = "certain"
	// ColBelief is the user's explicit stated belief, "" when none.
	ColBelief = "belief"
	// ColPossible is the user's possible-value set, sorted.
	ColPossible = "possible"
	// ColPossibleCount is len(possible).
	ColPossibleCount = "possible_count"
	// ColHasCertain reports certain != "".
	ColHasCertain = "has_certain"
	// ColHasBelief reports whether the user stated an explicit belief.
	ColHasBelief = "has_belief"
	// ColAgrees reports the user's stated belief survived resolution.
	ColAgrees = "agrees"
	// ColDisagrees reports the user's stated belief was overridden by a
	// different certain value — the paper's rejected-update signal.
	ColDisagrees = "disagrees"
	// ColConflicted reports the user sees more than one possible value.
	ColConflicted = "conflicted"
)

// kind is a column's value type; every predicate, aggregate, and order
// key is validated against it at compile time.
type kind int

const (
	kindString  kind = iota // string
	kindInt                 // int
	kindBool                // bool
	kindFloat               // float64 (aggregate outputs only)
	kindStrings             // []string (the possible column)
)

// Slots of the base columns in the tuple layout, in presentation order;
// the r_ twin of base slot s is slot numBase+s. The order groups the
// kinds: strings, the possible set, its count, then the booleans.
const (
	slotObject = iota
	slotUser
	slotCertain
	slotBelief
	slotPossible
	slotPossibleCount
	slotHasCertain
	slotHasBelief
	slotAgrees
	slotDisagrees
	slotConflicted
	numBase
)

// beliefCols are the base columns derived from the user's stated belief.
const beliefCols = 1<<slotBelief | 1<<slotHasBelief | 1<<slotAgrees | 1<<slotDisagrees

// column is a resolved column reference: its kind and its slot in the
// space it was resolved against (tuple layout, or aggregate output row).
type column struct {
	kind kind
	slot int
}

// space maps column names to resolved references; every AST column is
// validated against one.
type space map[string]column

// baseOrder lists the catalog columns in slot (= presentation) order.
var baseOrder = [numBase]string{
	ColObject, ColUser, ColCertain, ColBelief, ColPossible,
	ColPossibleCount, ColHasCertain, ColHasBelief, ColAgrees,
	ColDisagrees, ColConflicted,
}

// baseSpace is the column catalog of the resolutions relation, and
// joinSpace the same with the r_ twins of a joined row.
var baseSpace, joinSpace = func() (space, space) {
	base, join := space{}, space{}
	for s, c := range baseOrder {
		k := kindBool
		switch {
		case s < slotPossible:
			k = kindString
		case s == slotPossible:
			k = kindStrings
		case s == slotPossibleCount:
			k = kindInt
		}
		base[c] = column{k, s}
		join[c] = column{k, s}
		join[rightPrefix+c] = column{k, numBase + s}
	}
	return base, join
}()

// rightPrefix marks right-side columns of a joined row: r_user is the
// joined partner's user, r_certain their resolved value, and so on.
const rightPrefix = "r_"

// row is one typed tuple of the resolutions relation, indexed by slot:
// strs[s] for the string slots, bools[s-slotHasCertain] for the booleans.
type row struct {
	strs  [slotPossible]string
	poss  []string // filled only when the plan references possible
	count int
	bools [numBase - slotHasCertain]bool
}

// tuple is what predicates, aggregates and projection read: the left
// row and, on joined plans, the right one.
type tuple [2]*row

// box returns the value of a tuple slot in its result-row dynamic type;
// possible is copied, because rows reuse its backing array.
func (t *tuple) box(slot int) any {
	r, s := t[slot/numBase], slot%numBase
	switch {
	case s < slotPossible:
		return r.strs[s]
	case s == slotPossible:
		return append(make([]string, 0, len(r.poss)), r.poss...)
	case s == slotPossibleCount:
		return r.count
	}
	return r.bools[s-slotHasCertain]
}
