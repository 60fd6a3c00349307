package engine

// Signature deduplication of bulk resolution. An object's resolved values
// are a pure function of which roots assert which values for its key: the
// plan, the supports, and the gather never look at anything else. Two
// objects whose interned root-assignment columns are equal therefore have
// byte-identical resolutions, and real conflict workloads are dominated by
// a small number of distinct assignments over huge object sets (most
// objects are uncontested or repeat one of a few conflict patterns). The
// bulk scan exploits that:
//
//   - every object's beliefs are interned into a root-slot-indexed int32
//     column and hashed (FNV-1a over the column, slot order);
//   - columns group into canonical signatures — hash bucket plus exact
//     column comparison, so dedup is never probabilistic;
//   - each distinct signature resolves exactly once; its per-support set
//     ids fan out to all member objects by pointer.
//
// Grouping also consults a per-CompiledNetwork signature -> result cache
// that survives across Resolve calls, giving Session workloads cross-batch
// reuse: a mutate -> resolve loop whose objects repeat earlier signatures
// skips their resolution entirely. The cache is valid for exactly one
// artifact generation — plans, supports, and root slots are immutable on a
// CompiledNetwork — and structural Apply successors start empty, which is
// the invalidation. (Value-only Apply batches return the same artifact,
// and grown-users-only successors share unchanged supports and root
// slots; both keep the cache: the plan is belief-value-independent, and
// signatures are built from the objects' own beliefs, not the network's.)
// The cache is
// bounded; when full it is flushed wholesale rather than evicted piecewise,
// keeping the bookkeeping off the hot path.

import (
	"slices"
	"sync"
	"sync/atomic"
)

// DedupStats reports what signature deduplication did for one Resolve
// call. Zero-valued (except Objects) when dedup was disabled. After an
// adaptive bail-out (see sigGroups), each directly-resolved object counts
// as its own signature in both DistinctSignatures and Resolved, so
// CacheHits + Resolved == DistinctSignatures always holds for a completed
// call.
type DedupStats struct {
	Objects            int // objects in the batch
	DistinctSignatures int // distinct root-assignment signatures among them
	CacheHits          int // signatures served from the cross-batch cache
	Resolved           int // signatures resolved by this call
}

// hashColumn is FNV-1a over the column's int32s in slot order.
func hashColumn(col []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range col {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// sigGroup is one distinct signature of the current batch.
type sigGroup struct {
	col  []int32 // owned copy of the canonical column
	hash uint64
	res  []int32 // per-support set ids (intern.go); nil until resolved (or cached)
}

// The adaptive bail-out: once a large probe prefix of the batch has turned
// out almost entirely distinct — an adversarial, signature-free workload —
// grouping can no longer pay for itself, and the remaining objects resolve
// directly like the dedup-off path (their per-object results are still
// correct; only the sharing is gone). This caps the dedup overhead on
// all-distinct batches at the probe window.
const (
	dedupProbeWindow = 256
	dedupBailNum     = 7 // bail when distinct/seen >= 7/8 past the window
	dedupBailDen     = 8
)

// sigGroups assigns objects to signature groups during the parallel
// interning phase. Group indices are handed out under a mutex; membership
// is exact (hash bucket + column comparison).
type sigGroups struct {
	mu      sync.Mutex
	buckets map[uint64][]int32 // hash -> group indices
	groups  []*sigGroup
	seen    int         // objects claimed so far
	bailed  atomic.Bool // set once the batch probe looks signature-free
}

func newSigGroups(hint int) *sigGroups {
	return &sigGroups{buckets: make(map[uint64][]int32, hint)}
}

// claim returns the group index of col, creating the group (with an owned
// copy of col) on first sight, and trips the bail-out when the batch has
// probed as almost all distinct. The O(|roots|) column comparison — the
// long part on wide networks — runs outside the mutex against the
// immutable published candidates; the lock covers only the bucket probe
// and the insert, so phase-1 grouping scales with the worker pool.
func (g *sigGroups) claim(col []int32, h uint64) int32 {
	g.mu.Lock()
	g.seen++
	cands := g.buckets[h] // bucket prefixes are append-only and stable
	groups := g.groups
	g.mu.Unlock()
	for _, gi := range cands {
		if slices.Equal(groups[gi].col, col) {
			return gi
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	// A racing worker may have inserted the same signature meanwhile:
	// re-check just the candidates added since the unlocked scan.
	for _, gi := range g.buckets[h][len(cands):] {
		if slices.Equal(g.groups[gi].col, col) {
			return gi
		}
	}
	gi := int32(len(g.groups))
	g.groups = append(g.groups, &sigGroup{col: append([]int32(nil), col...), hash: h})
	g.buckets[h] = append(g.buckets[h], gi)
	if g.seen >= dedupProbeWindow && len(g.groups)*dedupBailDen >= g.seen*dedupBailNum {
		g.bailed.Store(true)
	}
	return gi
}

// defaultSigCacheCap bounds the cross-batch cache: distinct signatures
// retained per artifact generation before a wholesale flush.
const defaultSigCacheCap = 4096

// sigCache is the per-artifact signature -> result cache. Safe for
// concurrent use; entries are immutable once inserted.
type sigCache struct {
	mu      sync.Mutex
	cap     int
	n       int
	buckets map[uint64][]*sigGroup // reuses sigGroup as the entry shape
}

func newSigCache(capacity int) *sigCache {
	return &sigCache{cap: capacity, buckets: make(map[uint64][]*sigGroup)}
}

// get returns the cached result for col, or nil.
func (sc *sigCache) get(h uint64, col []int32) []int32 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, e := range sc.buckets[h] {
		if slices.Equal(e.col, col) {
			return e.res
		}
	}
	return nil
}

// put inserts a resolved signature, taking ownership of col. A full cache
// is flushed first: recurring signatures re-enter on their next sight.
func (sc *sigCache) put(h uint64, col []int32, res []int32) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, e := range sc.buckets[h] {
		if slices.Equal(e.col, col) {
			return // raced with another worker; first insert wins
		}
	}
	if sc.n >= sc.cap {
		sc.buckets = make(map[uint64][]*sigGroup)
		sc.n = 0
	}
	sc.buckets[h] = append(sc.buckets[h], &sigGroup{col: col, hash: h, res: res})
	sc.n++
}
