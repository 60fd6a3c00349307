// Package shard is the horizontal scale-out layer: a Router that
// partitions stored objects across N in-process trustmap.Store shards by
// consistent hashing of object keys (wire.ShardOwner), and the Backend
// interface internal/httpd serves so one handler stack runs unchanged
// over a single store or a cluster.
//
// The partitioning exploits the system's natural factoring: the trust
// network, default beliefs, and root set — the "spine" — are shared by
// every object's resolution, while per-object beliefs and cached
// resolutions touch exactly one object. The Router therefore broadcasts
// spine mutations (/v1/mutate batches, root registration) to every shard
// in lockstep and routes each object mutation to the one shard owning its
// key. Every shard then resolves its own objects against an identical
// spine, so scatter-gathered reads merge into exactly the answer one
// big store would give — the oracle-parity invariant cmd/clusterharness
// proves under -race (make cluster-smoke).
//
// Write scale-out comes from the lock split: spine broadcasts serialize
// under the Router's write lock (they must apply in the same order on
// every shard), but object mutations take only the read lock and proceed
// concurrently — each shard's own writer mutex serializes its WAL
// appends, so N shards fsync in parallel.
//
// Consistency across shards is per-shard-epoch, not a global snapshot:
// a scatter-gathered read pins one published epoch on every shard, and
// the merged response reports the minimum epoch/LSN as the conservative
// read-your-writes bound (per-shard truth lives in wire.ClusterStats).
package shard

import (
	"context"
	"fmt"

	"trustmap"
	"trustmap/internal/query"
	"trustmap/wire"
)

// Backend is the store surface internal/httpd serves: everything the
// wire-schema handlers need, implemented by SingleStore over one
// trustmap.Store and by Router over a sharded cluster. Endpoints that
// need the concrete store underneath (WAL streaming, snapshot shipping)
// type-assert for Storer instead and answer 400 on a cluster.
type Backend interface {
	// Epoch is the published generation serving reads; a Router reports
	// the minimum over shards (the conservative read-your-writes bound).
	Epoch() uint64
	// LSN is the last logged WAL sequence number (zero in-memory); a
	// Router reports the minimum over shards.
	LSN() uint64
	// Stats fills the sections of GET /v1/stats the backend owns —
	// schema, epoch, lsn, session, store, engine, durability and, on a
	// Router, cluster — reading each store once. The HTTP layer adds
	// admission, replication and query.
	Stats() wire.StatsResponse
	// Checkpoint compacts the WAL into a snapshot — on a Router, every
	// shard's WAL, reporting the minimum watermarks.
	Checkpoint() (trustmap.CheckpointInfo, error)

	// Mutate applies one trust-network batch: op i fails the batch with
	// an error prefixed "op i:", leaving ops before it applied. A Router
	// broadcasts the batch to every shard in lockstep.
	Mutate(ops []wire.Op) (applied int, err error)

	// Resolve answers one ad-hoc object (spine-only: any shard agrees).
	Resolve(ctx context.Context, beliefs map[string]string) (trustmap.ObjectRow, error)
	// BulkResolve answers an ad-hoc batch as rows sorted by object key,
	// each carrying the epoch that served it; a Router splits the batch by
	// wire.ShardOwner and resolves the sub-batches concurrently.
	BulkResolve(ctx context.Context, objects map[string]map[string]string) ([]trustmap.ObjectRow, error)

	// Query compiles and executes one wire.Query pattern (POST
	// /v1/query). A Router scatter-gathers aggregate plans as per-shard
	// partial aggregations merged in group-key order, and runs row plans
	// over its key-ordered merged stream; compile rejections wrap
	// query.ErrBadQuery.
	Query(ctx context.Context, q wire.Query) (*query.Result, error)

	// Objects lists stored object keys, sorted — merged over shards.
	Objects() []string
	// Object reads one stored object's explicit beliefs from its owner.
	Object(key string) (map[string]string, bool)
	// ResolveObject resolves one stored object on its owning shard.
	ResolveObject(ctx context.Context, key string) (trustmap.ObjectRow, error)
	// PutObject routes the write to the owner and broadcasts the
	// mentioned users' root registration to every other shard.
	PutObject(ctx context.Context, key string, beliefs map[string]string) error
	// DeleteObject routes the delete to the owner.
	DeleteObject(ctx context.Context, key string) (bool, error)
	// PutBelief routes the write to the owner and broadcasts the user's
	// root registration to every other shard.
	PutBelief(ctx context.Context, user, key, value string) error
	// DeleteBelief routes the revoke to the owner.
	DeleteBelief(ctx context.Context, user, key string) (bool, error)

	// Shards is the routing-table size a shard-aware client splits
	// batches with (wire.Health.Shards); zero on an unsharded backend.
	Shards() int

	// Close releases every underlying store.
	Close() error
}

// Storer exposes the concrete store under a Backend. SingleStore
// implements it; Router deliberately does not — per-shard WALs have
// independent LSN spaces, so there is no one log to stream — which is
// how httpd's replication endpoints detect a cluster and answer 400.
type Storer interface {
	// Store returns the backend's single underlying store.
	Store() *trustmap.Store
}

// SingleStore adapts one *trustmap.Store to the Backend interface: the
// unsharded deployment, byte-for-byte the pre-cluster serving behavior.
type SingleStore struct {
	st *trustmap.Store
}

// NewSingleStore wraps st; st must be non-nil.
func NewSingleStore(st *trustmap.Store) *SingleStore {
	if st == nil {
		panic("shard: NewSingleStore(nil)")
	}
	return &SingleStore{st: st}
}

// Store returns the wrapped store (the Storer interface httpd's
// replication endpoints assert for).
func (s *SingleStore) Store() *trustmap.Store { return s.st }

// Epoch reports the store's published generation.
func (s *SingleStore) Epoch() uint64 { return s.st.Epoch() }

// LSN reports the store's last logged WAL sequence number.
func (s *SingleStore) LSN() uint64 { return s.st.LSN() }

// Stats reads the store's sections of /v1/stats once.
func (s *SingleStore) Stats() wire.StatsResponse { return storeStats(s.st) }

// storeStats reads one store's sections of /v1/stats: the store and
// engine counters of one pinned epoch, then the durability counters,
// whose last logged LSN is the response's.
func storeStats(st *trustmap.Store) wire.StatsResponse {
	sst, eng := st.EpochStats()
	dur := st.Durability()
	return wire.StatsResponse{
		Schema:     wire.SchemaVersion,
		Epoch:      sst.Epoch,
		LSN:        dur.LastLSN,
		Session:    sst.SessionStats,
		Store:      wire.StoreStats{Objects: sst.Objects, CacheHits: sst.CacheHits, CacheMisses: sst.CacheMisses},
		Engine:     wire.EngineStats(eng),
		Durability: dur,
	}
}

// Checkpoint compacts the store's WAL into a snapshot.
func (s *SingleStore) Checkpoint() (trustmap.CheckpointInfo, error) { return s.st.Checkpoint() }

// Mutate applies one trust-network batch atomically, reporting how many
// ops applied; op i fails with an error prefixed "op i:".
func (s *SingleStore) Mutate(ops []wire.Op) (applied int, err error) {
	return mutateStore(s.st, ops)
}

// mutateStore is the shared one-store mutate body: SingleStore's whole
// implementation, and the per-shard step of Router's lockstep broadcast.
func mutateStore(st *trustmap.Store, ops []wire.Op) (applied int, err error) {
	err = st.Update(func(tx *trustmap.StoreTx) error {
		for i, op := range ops {
			if err := op.Apply(tx); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			applied++
		}
		return nil
	})
	return applied, err
}

// Resolve answers one ad-hoc object.
func (s *SingleStore) Resolve(ctx context.Context, beliefs map[string]string) (trustmap.ObjectRow, error) {
	return s.st.Resolve(ctx, beliefs)
}

// BulkResolve answers an ad-hoc object batch, sorted by object key.
func (s *SingleStore) BulkResolve(ctx context.Context, objects map[string]map[string]string) ([]trustmap.ObjectRow, error) {
	return s.st.ResolveBatch(ctx, objects)
}

// Query compiles and executes one wire.Query against the store (the
// store is itself a query.Site: pinned stream, point resolution, user
// universe).
func (s *SingleStore) Query(ctx context.Context, q wire.Query) (*query.Result, error) {
	plan, err := query.Compile(q)
	if err != nil {
		return nil, err
	}
	return query.Run(ctx, s.st, plan)
}

// Objects lists stored object keys, sorted.
func (s *SingleStore) Objects() []string { return s.st.Objects() }

// Object reads one stored object's explicit beliefs.
func (s *SingleStore) Object(key string) (map[string]string, bool) { return s.st.Object(key) }

// ResolveObject resolves one stored object at the published epoch.
func (s *SingleStore) ResolveObject(ctx context.Context, key string) (trustmap.ObjectRow, error) {
	return s.st.ResolveObject(ctx, key)
}

// PutObject creates or replaces one object's explicit beliefs.
func (s *SingleStore) PutObject(ctx context.Context, key string, beliefs map[string]string) error {
	return s.st.PutObject(ctx, key, beliefs)
}

// DeleteObject removes one object, reporting whether it existed.
func (s *SingleStore) DeleteObject(ctx context.Context, key string) (bool, error) {
	return s.st.DeleteObject(ctx, key)
}

// PutBelief states one user's explicit belief about one object.
func (s *SingleStore) PutBelief(ctx context.Context, user, key, value string) error {
	return s.st.PutBelief(ctx, user, key, value)
}

// DeleteBelief revokes one user's explicit belief about one object.
func (s *SingleStore) DeleteBelief(ctx context.Context, user, key string) (bool, error) {
	return s.st.DeleteBelief(ctx, user, key)
}

// Shards is zero: no routing table to advertise.
func (s *SingleStore) Shards() int { return 0 }

// Close closes the wrapped store.
func (s *SingleStore) Close() error { return s.st.Close() }
