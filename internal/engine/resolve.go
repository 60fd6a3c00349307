package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"trustmap/internal/tn"
)

// Options configures a bulk resolution run.
type Options struct {
	// Workers is the number of concurrent resolution goroutines. Zero or
	// negative means runtime.GOMAXPROCS(0). One worker runs the whole scan
	// inline, with no goroutines — the sequential engine path.
	Workers int
	// DisableDedup resolves every object independently instead of grouping
	// objects by root-assignment signature and resolving each distinct
	// signature once (dedup.go). Results are identical either way; the knob
	// exists for measurement and for batches known to be signature-free.
	DisableDedup bool
}

// BulkResult holds poss(x, k) for every node x and object k of one Resolve
// call. Results are independent of the worker count and of map iteration
// order: objects are processed and reported in sorted key order, and every
// possible-value set is sorted. A result stays valid after the compiled
// network it came from is superseded by Apply.
type BulkResult struct {
	c    *CompiledNetwork
	keys []string
	idx  map[string]int
	// poss[objIdx][supportID] is the set id (intern.go) of the sorted
	// distinct values of the roots in that support: 4 B per support, no
	// pointers. Objects sharing a signature share the whole slice.
	poss [][]int32
	// sets is the lineage's set table as of the end of the call: set id ->
	// sorted distinct values, each set kept once for the whole lineage.
	sets [][]tn.Value
	// done marks objects actually resolved: all of them on a nil-error
	// return, a prefix-closed-under-signature subset after an aborted run.
	done  []bool
	dedup DedupStats
}

// Sentinel conditions for result lookups; see Lookup.
var (
	ErrUnknownObject = errors.New("engine: unknown object key")
	ErrOutOfRange    = errors.New("engine: node out of range")
	// ErrResolveAborted marks a partial result: the Resolve call was cut
	// short by context cancellation and this object was never resolved. The
	// aborted Resolve returns it (wrapping the context's error) alongside
	// the partial result; Lookup returns it for each dropped object.
	ErrResolveAborted = errors.New("engine: resolve aborted")
)

// failState keeps the error of the smallest object index any worker failed
// on: the error the sequential path would report first, making error
// reporting deterministic under concurrency.
type failState struct {
	mu  sync.Mutex
	idx int
	err error
}

func (f *failState) record(i int, err error) {
	f.mu.Lock()
	if f.err == nil || i < f.idx {
		f.idx, f.err = i, err
	}
	f.mu.Unlock()
}

// scan runs body(s, i) for every i in [0, n), distributed over workers,
// each with its own scratch arena. A body returning false — or context
// cancellation — stops the whole scan after in-flight bodies finish.
func (c *CompiledNetwork) scan(ctx context.Context, workers, n int, body func(s *scratch, i int) bool) {
	if n == 0 {
		return
	}
	var next atomic.Int64
	var stopped atomic.Bool
	run := func() {
		s := c.getScratch()
		defer c.putScratch(s)
		for {
			if stopped.Load() || ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if !body(s, i) {
				stopped.Store(true)
				return
			}
		}
	}
	if workers <= 1 {
		run()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
}

// Resolve computes the possible values of every node for every object.
// objects maps object keys to the root beliefs of that object; every root
// of the compiled network must have a value in every object (assumption
// (ii) of Section 4). Extra entries for non-root users are ignored, as in
// the SQL path.
//
// The scan deduplicates by signature (dedup.go) unless opts.DisableDedup:
// objects are transposed into interned root-assignment columns in parallel,
// grouped into distinct signatures, and each signature is resolved exactly
// once, with the canonical result fanned out to all member objects; no
// result outlives the call. Workers share no mutable state on the gather
// path and, in steady state, allocate nothing per object.
//
// Cancelling ctx stops the scan early and returns the partial result with
// an error wrapping ErrResolveAborted; Lookup reports the dropped objects
// individually. A malformed object (missing root belief) returns a nil
// result and the error of the smallest failing object index.
func (c *CompiledNetwork) Resolve(ctx context.Context, objects map[string]map[int]tn.Value, opts Options) (*BulkResult, error) {
	c.ensureFlat()
	keys := make([]string, 0, len(objects))
	for k := range objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ns := len(c.supports)
	r := &BulkResult{
		c:    c,
		keys: keys,
		idx:  make(map[string]int, len(keys)),
		poss: make([][]int32, len(keys)),
		done: make([]bool, len(keys)),
	}
	for i, k := range keys {
		r.idx[k] = i
	}
	if len(keys) == 0 {
		return r, nil
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(keys) {
		workers = len(keys)
	}
	liveRoots := c.numLiveRoots()
	fail := failState{idx: -1}

	if opts.DisableDedup {
		r.dedup = DedupStats{Objects: len(keys)}
		flat := make([]int32, len(keys)*ns)
		c.scan(ctx, workers, len(keys), func(s *scratch, i int) bool {
			if err := c.fillColumn(s, keys[i], objects[keys[i]], liveRoots); err != nil {
				fail.record(i, err)
				return false
			}
			dst := flat[i*ns : (i+1)*ns : (i+1)*ns]
			c.resolveColumn(s, s.col, dst)
			r.poss[i] = dst
			r.done[i] = true
			return true
		})
		return r.finish(ctx, &fail)
	}

	// Phase 1: transpose and hash every object's beliefs, claiming its
	// signature group — parallel, with one short critical section per
	// object inside claim. When the batch probes as signature-free the
	// grouping bails out and the tail resolves directly (dedup.go).
	groups := newSigGroups(64)
	var direct atomic.Int64
	sigOf := make([]int32, len(keys))
	for i := range sigOf {
		sigOf[i] = -1
	}
	c.scan(ctx, workers, len(keys), func(s *scratch, i int) bool {
		if err := c.fillColumn(s, keys[i], objects[keys[i]], liveRoots); err != nil {
			fail.record(i, err)
			return false
		}
		if groups.bailed.Load() {
			dst := make([]int32, ns)
			c.resolveColumn(s, s.col, dst)
			r.poss[i] = dst
			r.done[i] = true
			direct.Add(1)
			return true
		}
		sigOf[i] = groups.claim(s.col, hashColumn(s.col))
		return true
	})
	r.dedup.Objects = len(keys)
	r.dedup.DistinctSignatures = len(groups.groups) + int(direct.Load())
	if fail.err != nil || ctx.Err() != nil {
		return r.finish(ctx, &fail)
	}

	// Phase 2: resolve each signature exactly once, in parallel.
	w := workers
	if w > len(groups.groups) {
		w = len(groups.groups)
	}
	c.scan(ctx, w, len(groups.groups), func(s *scratch, gi int) bool {
		g := groups.groups[gi]
		dst := make([]int32, ns)
		c.resolveColumn(s, g.col, dst)
		g.res = dst
		return true
	})

	// Phase 3: fan each signature's canonical result out to its members.
	for i, gi := range sigOf {
		if gi >= 0 {
			if res := groups.groups[gi].res; res != nil {
				r.poss[i] = res
				r.done[i] = true
			}
		}
	}
	return r.finish(ctx, &fail)
}

// finish settles a Resolve return: a worker error wins (nil result), then
// cancellation (partial result, ErrResolveAborted), then success.
func (r *BulkResult) finish(ctx context.Context, fail *failState) (*BulkResult, error) {
	if fail.err != nil {
		return nil, fail.err
	}
	// Every set id the workers wrote was interned before they finished.
	r.sets = r.c.dict.setTable()
	if err := ctx.Err(); err != nil {
		return r, fmt.Errorf("%w: %w", ErrResolveAborted, err)
	}
	return r, nil
}

// Keys returns the resolved object keys, sorted.
func (r *BulkResult) Keys() []string { return append([]string(nil), r.keys...) }

// Dedup reports the signature-deduplication counters of the Resolve call
// that produced this result.
func (r *BulkResult) Dedup() DedupStats { return r.dedup }

// Possible returns poss(x, k), sorted. The slice is shared; do not modify.
// It returns nil when poss is empty, when x or k is unknown, and when the
// object was dropped by an aborted Resolve; use Lookup to distinguish.
func (r *BulkResult) Possible(x int, key string) []tn.Value {
	poss, _ := r.Lookup(x, key)
	return poss
}

// Lookup returns poss(x, k) like Possible, with the lookup failure made
// explicit: ErrUnknownObject when key was not part of the Resolve call,
// ErrOutOfRange when x is not a node of the compiled network, and
// ErrResolveAborted when the call was cancelled before reaching this
// object. A nil error with an empty slice means the node genuinely has no
// possible values (unreachable from any root).
func (r *BulkResult) Lookup(x int, key string) ([]tn.Value, error) {
	o, err := r.Object(key)
	if err != nil {
		return nil, err
	}
	if x < 0 || x >= len(o.support) {
		return nil, ErrOutOfRange
	}
	return o.Possible(x), nil
}

// ObjectSets is one resolved object's possible-value sets, addressable by
// node: the per-object half of Lookup, for readers that visit many nodes
// of one object and should pay the key probe once. Its methods take a
// pointer, so a reader's per-node calls do not copy it.
type ObjectSets struct {
	support []int32      // node -> support ID; -1 when poss is empty
	ids     []int32      // support ID -> set id
	sets    [][]tn.Value // set id -> sorted distinct values
}

// Object locates one resolved object; the errors are Lookup's
// ErrUnknownObject and ErrResolveAborted.
func (r *BulkResult) Object(key string) (ObjectSets, error) {
	o, err := r.Resolved(key)
	return r.c.Sets(o), err
}

// Resolved is one object's resolution detached from its batch: the set
// id of each root support and the lineage's set table. It holds nothing
// of the compiled network, so keeping it keeps no artifact reachable;
// Sets pairs it with the network that resolved it again.
type Resolved struct {
	ids  []int32      // support ID -> set id
	sets [][]tn.Value // set id -> sorted distinct values
}

// Resolved returns one resolved object's resolution; the errors are
// Lookup's ErrUnknownObject and ErrResolveAborted.
func (r *BulkResult) Resolved(key string) (Resolved, error) {
	i, ok := r.idx[key]
	if !ok {
		return Resolved{}, ErrUnknownObject
	}
	if !r.done[i] {
		return Resolved{}, ErrResolveAborted
	}
	return Resolved{ids: r.poss[i], sets: r.sets}, nil
}

// Sets makes o addressable by node through c's node -> support table. c
// must be the network whose Resolve call produced o.
func (c *CompiledNetwork) Sets(o Resolved) ObjectSets {
	return ObjectSets{support: c.nodeSupport, ids: o.ids, sets: o.sets}
}

// Possible returns poss(x, k), sorted; the slice is shared, do not modify.
// It is nil when x is not a node of the compiled network or has no
// possible values.
func (o *ObjectSets) Possible(x int) []tn.Value { return o.Set(o.SetOf(o.Support(x))) }

// Support returns node x's support id: the fixed set of roots whose
// beliefs make up poss(x) for every object. It is -1 when x is not a
// node of the compiled network or has no possible values. Support ids
// depend only on the network, so a reader visiting many objects of one
// network may keep them.
func (o *ObjectSets) Support(x int) int32 {
	if x < 0 || x >= len(o.support) {
		return -1
	}
	return o.support[x]
}

// SetOf returns the set id of support s for this object, -1 for s < 0.
// Set ids are interned once per lineage: two objects resolved by
// networks of one lineage have equal sets exactly when their ids are.
func (o *ObjectSets) SetOf(s int32) int32 {
	if s < 0 {
		return -1
	}
	return o.ids[s]
}

// Set returns the sorted values of a set id from SetOf; nil for -1. The
// slice is shared, do not modify.
func (o *ObjectSets) Set(id int32) []tn.Value {
	if id < 0 {
		return nil
	}
	return o.sets[id]
}

// Certain returns cert(x, k): the single possible value, or tn.NoValue —
// also for dropped objects of an aborted Resolve (Lookup tells them apart).
func (r *BulkResult) Certain(x int, key string) tn.Value {
	poss := r.Possible(x, key)
	if len(poss) == 1 {
		return poss[0]
	}
	return tn.NoValue
}
