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
// Grouping lasts one Resolve call: nothing about a signature survives it.
// Results carried from one call to the next are the resolutions the
// store's per-object records keep, a layer up.

import (
	"slices"
	"sync"
	"sync/atomic"
)

// DedupStats reports what signature deduplication did for one Resolve
// call. With dedup on, a completed call resolves one column per distinct
// signature; with it off, DistinctSignatures is zero and every object
// resolves on its own. After an adaptive bail-out (see sigGroups), each
// directly-resolved object counts as its own signature.
type DedupStats struct {
	Objects            int // objects in the batch
	DistinctSignatures int // distinct root-assignment signatures among them
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
	col []int32 // owned copy of the canonical column
	res []int32 // per-support set ids (intern.go); nil until resolved
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
	g.groups = append(g.groups, &sigGroup{col: append([]int32(nil), col...)})
	g.buckets[h] = append(g.buckets[h], gi)
	if g.seen >= dedupProbeWindow && len(g.groups)*dedupBailDen >= g.seen*dedupBailNum {
		g.bailed.Store(true)
	}
	return gi
}
