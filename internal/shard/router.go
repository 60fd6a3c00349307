package shard

// The Router: N in-process trustmap.Store shards behind one Backend.
//
// Locking protocol. mu is a readers-writer lock over the SPINE, not the
// data: spine broadcasts (Mutate batches, the root registration riding
// object writes is deliberately NOT here — see below) take the write
// lock so every shard applies them in the same order, while object
// mutations and all reads take the read lock and run concurrently —
// each shard's own writer mutex serializes its WAL, so N shards append
// and fsync in parallel. Root registration (AddRoots) is commutative
// set-union, so it broadcasts under the read lock: two concurrent
// object writes may register roots in different orders on different
// shards, and the shards still converge to the identical root set.
//
// Divergence handling. Spine broadcasts must leave every shard in the
// same state: Store.Update applies ops one by one and stops at the
// first failure deterministically, so identical spines yield identical
// (applied, error) outcomes on every shard. If outcomes ever disagree —
// a WAL write failed on one shard, or state drifted — the Router
// poisons itself: further mutations answer an error wrapping
// trustmap.ErrPoisoned (reads keep serving, mirroring the single
// store's poison semantics).

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"trustmap"
	"trustmap/internal/query"
	"trustmap/wire"
)

// Router partitions objects across shards and broadcasts the spine.
// Build with NewRouter; it implements Backend.
type Router struct {
	shards []*trustmap.Store

	// mu: write-locked for spine broadcasts (lockstep order across
	// shards), read-locked for object ops and scatter reads.
	mu sync.RWMutex

	// poisonMu guards poisonErr: the first detected cross-shard
	// divergence, fatal for all later mutations.
	poisonMu  sync.Mutex
	poisonErr error

	// Deterministic op counters (wire.ClusterStats): conservation
	// invariant routedOps == sum(objectOps).
	spineOps     atomic.Uint64
	routedOps    atomic.Uint64
	scatterReads atomic.Uint64
	objectOps    []atomic.Uint64 // per shard
}

// NewRouter builds the router over shards (at least one). The caller
// hands over ownership: Close closes every shard.
func NewRouter(shards []*trustmap.Store) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("shard: NewRouter needs at least one shard")
	}
	for i, st := range shards {
		if st == nil {
			return nil, fmt.Errorf("shard: shard %d is nil", i)
		}
	}
	return &Router{
		shards:    shards,
		objectOps: make([]atomic.Uint64, len(shards)),
	}, nil
}

// Owner reports which shard owns key: wire.ShardOwner over this
// router's shard count.
func (r *Router) Owner(key string) int { return wire.ShardOwner(key, len(r.shards)) }

// Shard returns shard i's store — test and harness access to per-shard
// truth; production paths go through the Backend surface.
func (r *Router) Shard(i int) *trustmap.Store { return r.shards[i] }

// Shards reports the routing-table size.
func (r *Router) Shards() int { return len(r.shards) }

// failed reports the poison error, if any mutation may no longer run.
func (r *Router) failed() error {
	r.poisonMu.Lock()
	defer r.poisonMu.Unlock()
	return r.poisonErr
}

// poison records the first cross-shard divergence; all later mutations
// answer it (wrapping trustmap.ErrPoisoned so httpd maps it to the same
// Retry-After 503 as a poisoned single store).
func (r *Router) poison(cause error) error {
	r.poisonMu.Lock()
	defer r.poisonMu.Unlock()
	if r.poisonErr == nil {
		r.poisonErr = fmt.Errorf("shard: cluster poisoned (%v): %w", cause, trustmap.ErrPoisoned)
	}
	return r.poisonErr
}

// --- spine ---------------------------------------------------------------

// Mutate broadcasts one trust-network batch to every shard in lockstep.
// Identical spines make the per-shard outcome deterministic, so all
// shards report the same (applied, error); any disagreement poisons the
// router. The broadcast counts once in ClusterStats.SpineOps.
func (r *Router) Mutate(ops []wire.Op) (applied int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.failed(); err != nil {
		return 0, err
	}
	r.spineOps.Add(1)
	applied, err = mutateStore(r.shards[0], ops)
	for _, st := range r.shards[1:] {
		a, e := mutateStore(st, ops)
		if a != applied || !sameError(e, err) {
			return 0, r.poison(fmt.Errorf("spine broadcast diverged: shard 0 (%d, %v) vs (%d, %v)", applied, err, a, e))
		}
	}
	return applied, err
}

// sameError reports whether two per-shard outcomes agree: both nil, or
// both failing with the same message (the deterministic dispatch makes
// genuine agreement produce identical strings).
func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// broadcastRoots registers users as roots on every shard except owner
// (whose own object write already registered them). Failure here means
// the root sets diverged: the router poisons itself.
func (r *Router) broadcastRoots(ctx context.Context, owner int, users []string) error {
	for i, st := range r.shards {
		if i == owner {
			continue
		}
		if err := st.AddRoots(ctx, users...); err != nil {
			return r.poison(fmt.Errorf("root broadcast to shard %d failed: %w", i, err))
		}
	}
	return nil
}

// --- object mutations ----------------------------------------------------

// route runs one object write on key's owning shard, then broadcasts the
// registration of roots — the users the write mentioned — to every other
// shard: rootness is spine state (it changes what every object needs
// resolved), so the root set must stay identical across shards for
// oracle parity. Deletes pass no roots: rootness is never withdrawn. The
// broadcast ignores the request's cancellation, because the owner's
// write is already committed and the other shards must follow it.
func (r *Router) route(ctx context.Context, key string, roots []string, write func(st *trustmap.Store) (bool, error)) (bool, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if err := r.failed(); err != nil {
		return false, err
	}
	o := r.Owner(key)
	r.routedOps.Add(1)
	r.objectOps[o].Add(1)
	ok, err := write(r.shards[o])
	if err != nil || len(roots) == 0 {
		return ok, err
	}
	return ok, r.broadcastRoots(context.WithoutCancel(ctx), o, roots)
}

// PutObject routes the write to the owning shard and broadcasts the
// mentioned users' root registration.
func (r *Router) PutObject(ctx context.Context, key string, beliefs map[string]string) error {
	_, err := r.route(ctx, key, slices.Sorted(maps.Keys(beliefs)), func(st *trustmap.Store) (bool, error) {
		return true, st.PutObject(ctx, key, beliefs)
	})
	return err
}

// DeleteObject routes the delete to the owning shard.
func (r *Router) DeleteObject(ctx context.Context, key string) (bool, error) {
	return r.route(ctx, key, nil, func(st *trustmap.Store) (bool, error) { return st.DeleteObject(ctx, key) })
}

// PutBelief routes the write to the owning shard and broadcasts the
// user's root registration.
func (r *Router) PutBelief(ctx context.Context, user, key, value string) error {
	_, err := r.route(ctx, key, []string{user}, func(st *trustmap.Store) (bool, error) {
		return true, st.PutBelief(ctx, user, key, value)
	})
	return err
}

// DeleteBelief routes the revoke to the owning shard.
func (r *Router) DeleteBelief(ctx context.Context, user, key string) (bool, error) {
	return r.route(ctx, key, nil, func(st *trustmap.Store) (bool, error) { return st.DeleteBelief(ctx, user, key) })
}

// --- routed reads --------------------------------------------------------

// Object reads one stored object's explicit beliefs from its owner.
func (r *Router) Object(key string) (map[string]string, bool) {
	return r.shards[r.Owner(key)].Object(key)
}

// ResolveObject resolves one stored object on its owning shard.
func (r *Router) ResolveObject(ctx context.Context, key string) (trustmap.ObjectRow, error) {
	return r.shards[r.Owner(key)].ResolveObject(ctx, key)
}

// Resolve answers one ad-hoc object. Ad-hoc resolution reads only the
// spine (plus the passed beliefs), which is identical on every shard,
// so shard 0 answers for the cluster.
func (r *Router) Resolve(ctx context.Context, beliefs map[string]string) (trustmap.ObjectRow, error) {
	return r.shards[0].Resolve(ctx, beliefs)
}

// --- scatter-gather reads ------------------------------------------------

// Objects lists every shard's stored keys merged sorted. Ownership makes
// the per-shard (already sorted) lists disjoint.
func (r *Router) Objects() []string {
	r.scatterReads.Add(1)
	var out []string
	for _, st := range r.shards {
		out = append(out, st.Objects()...)
	}
	sort.Strings(out)
	return out
}

// BulkResolve splits the ad-hoc batch by wire.ShardOwner and resolves
// the sub-batches concurrently — the server-side counterpart of the
// client's shard-aware ResolveBatch. Any shard could answer any object
// (ad-hoc resolution is spine-only); splitting exists to spread the
// resolve work across the shards' independent caches and worker pools.
func (r *Router) BulkResolve(ctx context.Context, objects map[string]map[string]string) ([]trustmap.ObjectRow, error) {
	r.scatterReads.Add(1)
	split := make([]map[string]map[string]string, len(r.shards))
	for key, beliefs := range objects {
		o := r.Owner(key)
		if split[o] == nil {
			split[o] = make(map[string]map[string]string)
		}
		split[o][key] = beliefs
	}
	return mergeRows(scatter(len(r.shards), func(i int) ([]trustmap.ObjectRow, error) {
		if split[i] == nil {
			return nil, nil
		}
		return r.shards[i].ResolveBatch(ctx, split[i])
	}))
}

// ResolveAll resolves every stored object across all shards — each
// shard's batch at its own pinned epoch, resolved concurrently — and
// merges the rows in global key order. Each row carries its shard's
// epoch: epoch counters are per shard, so rows of different shards are
// not comparable by epoch, only against later reads of the same shard.
func (r *Router) ResolveAll(ctx context.Context) ([]trustmap.ObjectRow, error) {
	r.scatterReads.Add(1)
	return mergeRows(scatter(len(r.shards), func(i int) ([]trustmap.ObjectRow, error) {
		return r.shards[i].ResolveAll(ctx)
	}))
}

// scatter runs fn for every shard index concurrently and collects the
// results in shard order; the first error wins.
func scatter[T any](shards int, fn func(i int) (T, error)) ([]T, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		out      = make([]T, shards)
		firstErr error
	)
	for i := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := fn(i)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			out[i] = v
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// mergeRows concatenates per-shard row batches into one sorted by object
// key. Ownership makes the shards' key sets disjoint and every row
// carries its own epoch, so the merge needs no wrapper type.
func mergeRows(parts [][]trustmap.ObjectRow, err error) ([]trustmap.ObjectRow, error) {
	if err != nil {
		return nil, err
	}
	rows := slices.Concat(parts...)
	slices.SortFunc(rows, func(a, b trustmap.ObjectRow) int { return strings.Compare(a.Object, b.Object) })
	return rows, nil
}

// Resolved streams every stored object's resolution across all shards in
// globally sorted key order: a k-way merge of the shards' own sorted
// Resolved streams (ownership makes their key sets disjoint). Each
// shard's rows are served at that shard's pinned epoch — per-shard
// consistency, not a global snapshot; the merge order is nonetheless
// deterministic because keys, not epochs, drive it. The first error from
// any shard ends the stream after being yielded.
func (r *Router) Resolved(ctx context.Context) iter.Seq2[trustmap.ObjectRow, error] {
	r.scatterReads.Add(1)
	return func(yield func(trustmap.ObjectRow, error) bool) {
		type cursor struct {
			next func() (trustmap.ObjectRow, error, bool)
			stop func()
			row  trustmap.ObjectRow
			ok   bool
		}
		cursors := make([]*cursor, len(r.shards))
		for i, st := range r.shards {
			next, stop := iter.Pull2(st.Resolved(ctx))
			cursors[i] = &cursor{next: next, stop: stop}
			defer stop()
		}
		// Prime every cursor, then repeatedly emit the smallest key.
		for _, c := range cursors {
			row, err, ok := c.next()
			if ok && err != nil {
				yield(trustmap.ObjectRow{}, err)
				return
			}
			c.row, c.ok = row, ok
		}
		for {
			var best *cursor
			for _, c := range cursors {
				if c.ok && (best == nil || c.row.Object < best.row.Object) {
					best = c
				}
			}
			if best == nil {
				return
			}
			if !yield(best.row, nil) {
				return
			}
			row, err, ok := best.next()
			if ok && err != nil {
				yield(trustmap.ObjectRow{}, err)
				return
			}
			best.row, best.ok = row, ok
		}
	}
}

// Users lists the trust network's users. The spine — network, defaults,
// root set — is identical on every shard (broadcasts keep it so), so
// shard 0 answers for the cluster; with Resolved, ResolveObject, and
// Epoch this makes the Router a query.Site.
func (r *Router) Users() []string { return r.shards[0].Users() }

// Query compiles and executes one wire.Query across the cluster.
// Aggregate plans scatter: every shard runs a partial aggregation over
// its own objects at its own pinned epoch, concurrently, and the merge
// is exact because every aggregate function decomposes (count/sum/min/
// max directly, avg/rate as (sum, count) pairs) — no rows cross shards.
// Row plans run over the Router's key-ordered merged Resolved stream
// (the same per-shard-pinned merge discipline as ResolveAll); key
// pushdowns route to owners via ResolveObject either way.
func (r *Router) Query(ctx context.Context, q wire.Query) (*query.Result, error) {
	plan, err := query.Compile(q)
	if err != nil {
		return nil, err
	}
	if !plan.Aggregated() || len(r.shards) == 1 {
		res, err := query.Run(ctx, r, plan)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	r.scatterReads.Add(1)
	parts, err := scatter(len(r.shards), func(i int) (*query.Partial, error) {
		return query.RunPartial(ctx, r.shards[i], plan)
	})
	if err != nil {
		return nil, err
	}
	res, err := query.Finalize(parts, plan)
	if err != nil {
		return nil, err
	}
	if res.Epoch == 0 {
		res.Epoch = r.Epoch() // no shard consumed a row
	}
	res.Stats.ShardPartials = len(parts)
	return res, nil
}

// --- aggregate surfaces --------------------------------------------------

// Epoch is the minimum published epoch over shards: the conservative
// read-your-writes bound (a mutation's response epoch is <= every
// shard's epoch serving a later read).
func (r *Router) Epoch() uint64 {
	min := uint64(0)
	for i, st := range r.shards {
		if e := st.Epoch(); i == 0 || e < min {
			min = e
		}
	}
	return min
}

// LSN is the minimum last-logged LSN over shards (shards log
// independently; per-shard truth is in ClusterStats).
func (r *Router) LSN() uint64 {
	min := uint64(0)
	for i, st := range r.shards {
		if l := st.LSN(); i == 0 || l < min {
			min = l
		}
	}
	return min
}

// Checkpoint compacts every shard's WAL, reporting the minimum
// watermarks and shard 0's snapshot name. Object ops proceed on other
// shards while one shard compacts (read lock only).
func (r *Router) Checkpoint() (trustmap.CheckpointInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out trustmap.CheckpointInfo
	for i, st := range r.shards {
		ck, err := st.Checkpoint()
		if err != nil {
			return trustmap.CheckpointInfo{}, err
		}
		if i == 0 {
			out = ck
			continue
		}
		if ck.Epoch < out.Epoch {
			out.Epoch = ck.Epoch
		}
		if ck.LSN < out.LSN {
			out.LSN = ck.LSN
		}
	}
	return out, nil
}

// Stats reads every shard once and derives the whole response from
// those reads: the top-level epoch and LSN and the durability watermarks
// are minimums over shards (the conservative read-your-writes and
// durable frontiers), the session, store and durability activity
// counters are sums, the engine section and durability mode are shard
// 0's (every shard holds the same spine and configuration), and the
// cluster section lists each shard's own slice beside the conserved
// router op counters.
func (r *Router) Stats() wire.StatsResponse {
	c := &wire.ClusterStats{
		Shards:       len(r.shards),
		Hash:         wire.ShardHash,
		SpineOps:     r.spineOps.Load(),
		RoutedOps:    r.routedOps.Load(),
		ScatterReads: r.scatterReads.Load(),
		PerShard:     make([]wire.ShardStats, len(r.shards)),
	}
	var out wire.StatsResponse
	for i, st := range r.shards {
		s := storeStats(st)
		c.PerShard[i] = wire.ShardStats{
			Index:       i,
			Objects:     s.Store.Objects,
			Epoch:       s.Epoch,
			LSN:         s.LSN,
			DurableLSN:  s.Durability.DurableLSN,
			ObjectOps:   r.objectOps[i].Load(),
			CacheHits:   s.Store.CacheHits,
			CacheMisses: s.Store.CacheMisses,
		}
		if i == 0 {
			out = s
			continue
		}
		out.Epoch, out.LSN = min(out.Epoch, s.Epoch), min(out.LSN, s.LSN)
		o, x := &out.Session, s.Session
		o.Compiles += x.Compiles
		o.IncrementalApplies += x.IncrementalApplies
		o.ValueOnlyUpdates += x.ValueOnlyUpdates
		o.FullRecompiles += x.FullRecompiles
		o.EpochsReclaimed += x.EpochsReclaimed
		out.Store.Objects += s.Store.Objects
		out.Store.CacheHits += s.Store.CacheHits
		out.Store.CacheMisses += s.Store.CacheMisses
		d, y := &out.Durability, s.Durability
		d.LastLSN = min(d.LastLSN, y.LastLSN)
		d.DurableLSN = min(d.DurableLSN, y.DurableLSN)
		d.SnapshotLSN = min(d.SnapshotLSN, y.SnapshotLSN)
		d.WALAppends += y.WALAppends
		d.WALSyncs += y.WALSyncs
		d.WALBytes += y.WALBytes
		d.Checkpoints += y.Checkpoints
		d.RecoveredBatches += y.RecoveredBatches
		d.ReplayedOps += y.ReplayedOps
		d.ReplayErrors += y.ReplayErrors
		d.DiscardedBytes += y.DiscardedBytes
	}
	out.Cluster = c
	return out
}

// ClusterStats is the cluster section of Stats.
func (r *Router) ClusterStats() *wire.ClusterStats { return r.Stats().Cluster }

// Close closes every shard, returning the first error.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, st := range r.shards {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
