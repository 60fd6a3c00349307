package trustmap

// Store is the v2 top-level API: one handle owning the shared trust
// network AND the persistent per-object beliefs of the paper's community
// database (Section 4), where the old API treated objects as a transient
// map threaded through every BulkResolve call.
//
// A Store wraps an epoch-published session (internal/serve underneath):
// reads pin the currently published snapshot lock-free, trust mutations
// build the next epoch off to the side and swap it in atomically, and the
// compiled resolution artifact is maintained incrementally across
// mutations. On top of that the Store adds an object table and a
// per-object result cache keyed by (epoch, object version): a belief
// mutation invalidates exactly the touched object, so the next read
// re-resolves only that object — every other stored object keeps serving
// its cached resolution — and a trust mutation advances the epoch, after
// which stale objects are re-resolved lazily in one signature-deduplicated
// batch.
//
// # Object model
//
// Users play two roles. Trust mappings and default beliefs (SetTrust,
// SetDefault) are shared by all objects: they shape the network the
// compiled plan is derived from. Per-object beliefs (PutBelief, PutObject)
// override a user's default for one object. A user mentioned in any
// object's beliefs becomes a root of the compiled plan; per the paper's
// assumption (ii), every root must have a value for every object — either
// an explicit per-object belief or a network default. Resolving an object
// that leaves a default-less root uncovered returns an error naming the
// root.
//
// # Concurrency
//
// A Store is safe for concurrent use: any number of goroutines may read
// while others mutate. Each read observes exactly one published epoch and
// one self-consistent object table; results remain valid after their
// epoch is superseded.

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
	"sync"

	"trustmap/internal/engine"
	"trustmap/wire"
)

// storeConfig collects the functional options of NewStore and OpenStore.
type storeConfig struct {
	workers    int
	noDedup    bool
	maxDirty   float64
	extraRoots []string
	durability DurabilityMode
}

// StoreOption configures NewStore and OpenStore.
type StoreOption func(*storeConfig)

// WithWorkers sets the worker-pool size for resolves. Zero or negative
// means GOMAXPROCS.
func WithWorkers(n int) StoreOption { return func(c *storeConfig) { c.workers = n } }

// WithDedup enables or disables signature deduplication for the store's
// resolves. The default (enabled) resolves objects sharing one
// root-assignment signature once per artifact generation.
func WithDedup(enabled bool) StoreOption { return func(c *storeConfig) { c.noDedup = !enabled } }

// WithMaxDirtyFraction sets the dirty-region share above which a trust
// mutation recompiles the resolution plan from scratch instead of
// splicing incrementally (0 = engine default).
func WithMaxDirtyFraction(f float64) StoreOption { return func(c *storeConfig) { c.maxDirty = f } }

// WithExtraRoots pre-declares users whose beliefs vary per object even
// though no object mentions them yet. PutBelief and PutObject register
// the users they mention automatically; the option avoids a replan when
// the first mention arrives after heavy traffic started.
func WithExtraRoots(users ...string) StoreOption {
	return func(c *storeConfig) { c.extraRoots = append(c.extraRoots, users...) }
}

// storeCached is one object's cached resolution: valid while both the
// serving epoch and the object's belief version still match. Objects
// resolved in one batch share that batch's *BulkResolution, so a
// surviving entry keeps its whole batch reachable until the entry is
// superseded (next epoch or belief touch) — memory is bounded by one
// batch generation per object, traded for zero per-object copying on the
// fan-out. Belief-churn refills are per-object batches, so the steady
// mixed workload converges to per-object footprints.
type storeCached struct {
	epoch uint64
	over  uint64 // object belief version at resolution time
	res   *BulkResolution
}

// Store owns a trust network and the per-object beliefs resolved against
// it. Create with NewStore (fresh network) or Network.NewStore (adopting
// an existing facade network). Safe for concurrent use.
type Store struct {
	net  *Network
	sess *session

	// dur is the persistence side (durable.go): nil for in-memory stores
	// (NewStore), the open WAL + snapshot machinery for OpenStore. When
	// set, every mutator runs apply-then-log inside dur.mu.
	dur *durable

	mu      sync.RWMutex
	objects map[string]map[string]string // object -> user -> value; value maps are copy-on-write
	objVer  map[string]uint64            // bumped on every object mutation
	cache   map[string]storeCached
	hits    uint64 // reads served from the cache
	misses  uint64 // reads that re-resolved
}

// NewStore returns an empty in-memory store: no users, no trust, no
// objects, no persistence. Build state through the mutators; use
// OpenStore for a store that survives restarts.
func NewStore(opts ...StoreOption) (*Store, error) {
	return New().NewStore(opts...)
}

// NewStore adopts the network as the store's trust network and compiles
// it: the adapter from the construction API. The network must not be
// mutated directly afterwards while the store is in use from several
// goroutines (sequential direct mutation remains supported and is
// detected, exactly as for sessions).
func (n *Network) NewStore(opts ...StoreOption) (*Store, error) {
	var c storeConfig
	for _, o := range opts {
		o(&c)
	}
	return newStore(n, c)
}

// newStore builds the in-memory store for a resolved config: the shared
// body of NewStore and OpenStore (which layers durability on afterwards).
func newStore(n *Network, c storeConfig) (*Store, error) {
	s, err := n.newSession(sessionOptions{
		Workers:          c.workers,
		ExtraRoots:       c.extraRoots,
		MaxDirtyFraction: c.maxDirty,
		DisableDedup:     c.noDedup,
	})
	if err != nil {
		return nil, err
	}
	return &Store{
		net:     n,
		sess:    s,
		objects: make(map[string]map[string]string),
		objVer:  make(map[string]uint64),
		cache:   make(map[string]storeCached),
	}, nil
}

// Network returns the underlying facade network (read-only use — direct
// mutation concurrent with store use is a data race; see NewStore).
func (s *Store) Network() *Network { return s.net }

// Epoch returns the sequence number of the currently published epoch. It
// increases by one per effective trust mutation, batch, or replan.
func (s *Store) Epoch() uint64 { return s.sess.Epoch() }

// Users returns all user names known to the trust network, sorted.
func (s *Store) Users() []string { return s.net.Users() }

// --- trust-network mutators -------------------------------------------

// SetTrust states that truster accepts values from trusted with the given
// priority, creating the mapping or re-prioritizing an existing one
// (upsert), and publishes the updated artifact.
func (s *Store) SetTrust(ctx context.Context, truster, trusted string, priority int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	unlock, err := s.beginMutation()
	if err != nil {
		return err
	}
	defer unlock()
	if err := s.applySetTrust(truster, trusted, priority); err != nil {
		return err
	}
	return s.logMutation(wire.Op{Op: wire.OpSetTrust, Truster: truster, Trusted: trusted, Priority: priority})
}

func (s *Store) applySetTrust(truster, trusted string, priority int) error {
	return s.sess.Update(func(tx *sessionTx) error {
		if ok, err := tx.UpdateTrust(truster, trusted, priority); err != nil || ok {
			return err
		}
		return tx.AddTrust(truster, trusted, priority)
	})
}

// RemoveTrust revokes truster -> trusted and reports whether the mapping
// existed.
func (s *Store) RemoveTrust(ctx context.Context, truster, trusted string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	unlock, err := s.beginMutation()
	if err != nil {
		return false, err
	}
	defer unlock()
	ok, err := s.sess.RemoveTrust(truster, trusted)
	if err != nil || !ok {
		return ok, err
	}
	return true, s.logMutation(wire.Op{Op: wire.OpRemoveTrust, Truster: truster, Trusted: trusted})
}

// SetDefault states user's network-level belief: the value every object
// inherits when its own beliefs omit the user (Definition 2.1).
func (s *Store) SetDefault(ctx context.Context, user, value string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	unlock, err := s.beginMutation()
	if err != nil {
		return err
	}
	defer unlock()
	if err := s.sess.SetBelief(user, value); err != nil {
		return err
	}
	return s.logMutation(wire.Op{Op: wire.OpSetBelief, User: user, Value: value})
}

// DeleteDefault revokes user's network-level belief. A user mentioned by
// stored objects stays a root: objects must then cover the user
// explicitly (assumption ii).
func (s *Store) DeleteDefault(ctx context.Context, user string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	unlock, err := s.beginMutation()
	if err != nil {
		return err
	}
	defer unlock()
	// Revoking an absent belief is a no-op and must not consume an LSN:
	// the WAL holds exactly the effective mutation history. The existence
	// probe is safe here — mutators serialize on dur.mu (in-memory stores
	// skip it entirely, there is nothing to log).
	logIt := s.dur != nil && s.net.hasDefault(user)
	if err := s.sess.RemoveBelief(user); err != nil {
		return err
	}
	if !logIt {
		return nil
	}
	return s.logMutation(wire.Op{Op: wire.OpRemoveBelief, User: user})
}

// StoreTx applies several trust-network mutations as one batch inside
// Store.Update: concurrent readers observe either the whole batch or none
// of it, and the engine folds the batch into the compiled artifact in one
// delta application. On a durable store the batch's effective ops are
// logged as one WAL record when Update returns.
type StoreTx struct {
	tx  *sessionTx
	rec *[]wire.Op // effective-op recorder; nil on in-memory stores
}

// record notes one effective mutation for the batch's WAL record.
func (t *StoreTx) record(op wire.Op) {
	if t.rec != nil {
		*t.rec = append(*t.rec, op)
	}
}

// SetTrust is Store.SetTrust within the batch.
func (t *StoreTx) SetTrust(truster, trusted string, priority int) error {
	if ok, err := t.tx.UpdateTrust(truster, trusted, priority); err != nil || ok {
		if err == nil {
			t.record(wire.Op{Op: wire.OpSetTrust, Truster: truster, Trusted: trusted, Priority: priority})
		}
		return err
	}
	if err := t.tx.AddTrust(truster, trusted, priority); err != nil {
		return err
	}
	t.record(wire.Op{Op: wire.OpSetTrust, Truster: truster, Trusted: trusted, Priority: priority})
	return nil
}

// AddTrust adds a new mapping, erroring if it already exists (use
// SetTrust to upsert).
func (t *StoreTx) AddTrust(truster, trusted string, priority int) error {
	if err := t.tx.AddTrust(truster, trusted, priority); err != nil {
		return err
	}
	t.record(wire.Op{Op: wire.OpAddTrust, Truster: truster, Trusted: trusted, Priority: priority})
	return nil
}

// UpdateTrust re-prioritizes an existing mapping and reports whether it
// existed.
func (t *StoreTx) UpdateTrust(truster, trusted string, priority int) (bool, error) {
	ok, err := t.tx.UpdateTrust(truster, trusted, priority)
	if err == nil && ok {
		t.record(wire.Op{Op: wire.OpUpdateTrust, Truster: truster, Trusted: trusted, Priority: priority})
	}
	return ok, err
}

// RemoveTrust is Store.RemoveTrust within the batch.
func (t *StoreTx) RemoveTrust(truster, trusted string) (bool, error) {
	ok, err := t.tx.RemoveTrust(truster, trusted)
	if err == nil && ok {
		t.record(wire.Op{Op: wire.OpRemoveTrust, Truster: truster, Trusted: trusted})
	}
	return ok, err
}

// SetDefault is Store.SetDefault within the batch.
func (t *StoreTx) SetDefault(user, value string) error {
	if err := t.tx.SetBelief(user, value); err != nil {
		return err
	}
	t.record(wire.Op{Op: wire.OpSetBelief, User: user, Value: value})
	return nil
}

// DeleteDefault is Store.DeleteDefault within the batch.
func (t *StoreTx) DeleteDefault(user string) error {
	had := t.rec != nil && t.tx.s.net.hasDefault(user) // under the session writer lock
	if err := t.tx.RemoveBelief(user); err != nil {
		return err
	}
	if had {
		t.record(wire.Op{Op: wire.OpRemoveBelief, User: user})
	}
	return nil
}

// Update applies a batch of trust-network mutations and publishes one
// epoch at the end. fn's error is returned but does not roll the batch
// back; mutations applied before the error are published (there is no
// transactional undo) and, on a durable store, logged. tx must not be
// used after fn returns.
func (s *Store) Update(fn func(tx *StoreTx) error) error {
	unlock, err := s.beginMutation()
	if err != nil {
		return err
	}
	defer unlock()
	var ops []wire.Op
	var rec *[]wire.Op
	if s.dur != nil {
		rec = &ops
	}
	ferr := s.sess.Update(func(tx *sessionTx) error { return fn(&StoreTx{tx: tx, rec: rec}) })
	if len(ops) > 0 {
		if lerr := s.logMutation(ops...); ferr == nil {
			ferr = lerr
		}
	}
	return ferr
}

// applyUpdate is Update without the durable critical section or the op
// recorder: the recovery-replay path (ops come FROM the log) and the
// shared body for in-memory batches.
func (s *Store) applyUpdate(fn func(tx *StoreTx) error) error {
	return s.sess.Update(func(tx *sessionTx) error { return fn(&StoreTx{tx: tx}) })
}

// --- object mutators ---------------------------------------------------

// PutBelief states user's explicit belief about one object, overriding
// the user's network default for that object. The user becomes a root of
// the compiled plan if they were not one already (a replan, published as
// a fresh epoch); the touched object's cached resolution — and only it —
// is invalidated.
func (s *Store) PutBelief(ctx context.Context, user, object, value string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	unlock, err := s.beginMutation()
	if err != nil {
		return err
	}
	defer unlock()
	if err := s.applyPutBelief(user, object, value); err != nil {
		return err
	}
	return s.logMutation(wire.Op{Op: wire.OpPutBelief, Object: object, User: user, Value: value})
}

func (s *Store) applyPutBelief(user, object, value string) error {
	if object == "" {
		return errors.New("trustmap: empty object key")
	}
	if value == "" {
		return errors.New("trustmap: empty value; use DeleteBelief to revoke")
	}
	if _, err := s.sess.addObjectRoots(user); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[string]string, len(s.objects[object])+1)
	maps.Copy(m, s.objects[object])
	m[user] = value
	s.touchLocked(object, m)
	return nil
}

// DeleteBelief revokes user's explicit belief about one object and
// reports whether it existed. The object falls back to the user's network
// default (resolving errors if there is none and the user is still a
// root elsewhere).
func (s *Store) DeleteBelief(ctx context.Context, user, object string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	unlock, err := s.beginMutation()
	if err != nil {
		return false, err
	}
	defer unlock()
	if !s.applyDeleteBelief(user, object) {
		return false, nil
	}
	return true, s.logMutation(wire.Op{Op: wire.OpDeleteBelief, Object: object, User: user})
}

func (s *Store) applyDeleteBelief(user, object string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.objects[object]
	if !ok {
		return false
	}
	if _, ok := old[user]; !ok {
		return false
	}
	m := make(map[string]string, len(old)-1)
	maps.Copy(m, old)
	delete(m, user)
	s.touchLocked(object, m)
	return true
}

// PutObject creates or replaces one object's explicit beliefs wholesale.
// An empty (or nil) belief map is valid: the object then resolves purely
// from network defaults.
func (s *Store) PutObject(ctx context.Context, object string, beliefs map[string]string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	unlock, err := s.beginMutation()
	if err != nil {
		return err
	}
	defer unlock()
	if err := s.applyPutObject(object, beliefs); err != nil {
		return err
	}
	return s.logMutation(wire.Op{Op: wire.OpPutObject, Object: object, Beliefs: beliefs})
}

func (s *Store) applyPutObject(object string, beliefs map[string]string) error {
	if object == "" {
		return errors.New("trustmap: empty object key")
	}
	users := make([]string, 0, len(beliefs))
	for user, v := range beliefs {
		if v == "" {
			return fmt.Errorf("trustmap: empty value for user %q in object %q", user, object)
		}
		users = append(users, user)
	}
	sort.Strings(users) // deterministic registration order
	if _, err := s.sess.addObjectRoots(users...); err != nil {
		return err
	}
	m := make(map[string]string, len(beliefs))
	maps.Copy(m, beliefs)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked(object, m)
	return nil
}

// DeleteObject removes one object and its beliefs, reporting whether it
// existed. Users it mentioned stay roots (other objects may mention them;
// rootness is never withdrawn while the store lives).
func (s *Store) DeleteObject(ctx context.Context, object string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	unlock, err := s.beginMutation()
	if err != nil {
		return false, err
	}
	defer unlock()
	if !s.applyDeleteObject(object) {
		return false, nil
	}
	return true, s.logMutation(wire.Op{Op: wire.OpDeleteObject, Object: object})
}

func (s *Store) applyDeleteObject(object string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[object]; !ok {
		return false
	}
	delete(s.objects, object)
	delete(s.cache, object)
	s.objVer[object]++ // in-flight fills must not resurrect the entry
	return true
}

// AddRoots declares users whose beliefs vary per object without storing
// an object that mentions them: PutObject's root registration decoupled
// from the object write. Registration is idempotent and rootness is never
// withdrawn while the store lives. On durable stores the effective (not
// previously registered) names are logged as one register-roots op, so
// recovery replay reconstructs the exact root set.
//
// A cluster router broadcasts AddRoots to every shard before routing an
// object write to its owner: rootness changes resolution semantics, so
// the root set — like the trust network — is part of the shared spine
// that must stay identical across shards for scatter-gathered reads to
// match a single store.
func (s *Store) AddRoots(ctx context.Context, users ...string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	names := make([]string, 0, len(users))
	for _, u := range users {
		if u == "" {
			return errors.New("trustmap: empty user name")
		}
		names = append(names, u)
	}
	sort.Strings(names) // deterministic registration order
	names = slices.Compact(names)
	if len(names) == 0 {
		return nil
	}
	unlock, err := s.beginMutation()
	if err != nil {
		return err
	}
	defer unlock()
	added, err := s.sess.addObjectRoots(names...)
	if err != nil {
		return err
	}
	if len(added) == 0 {
		return nil // all already registered: nothing effective to log
	}
	return s.logMutation(wire.Op{Op: wire.OpRegisterRoots, Users: added})
}

// touchLocked installs the object's new belief map and invalidates its
// cached resolution. Callers hold mu.
func (s *Store) touchLocked(object string, beliefs map[string]string) {
	s.objects[object] = beliefs
	s.objVer[object]++
	delete(s.cache, object)
}

// --- object reads ------------------------------------------------------

// Objects returns the stored object keys, sorted.
func (s *Store) Objects() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.keysLocked()
}

func (s *Store) keysLocked() []string {
	keys := make([]string, 0, len(s.objects))
	for k := range s.objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// NumObjects returns the number of stored objects.
func (s *Store) NumObjects() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// Object returns a copy of one object's explicit beliefs and whether the
// object exists.
func (s *Store) Object(object string) (map[string]string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.objects[object]
	if !ok {
		return nil, false
	}
	out := make(map[string]string, len(m))
	maps.Copy(out, m)
	return out, true
}

// --- resolution reads --------------------------------------------------

// ObjectRow is one stored object's resolution, as returned by
// ResolveObject, ResolveAll, and the Resolved iterator.
type ObjectRow struct {
	// Object is the object key the row resolves.
	Object string
	res    *BulkResolution
	// beliefs is the object's explicit-belief map the resolution was
	// computed from: the copy-on-write reference captured under the lock
	// that validated the cache entry, never written afterwards.
	beliefs map[string]string
}

// Possible returns poss(user, object) for the row's object, sorted. An
// unknown user returns an empty slice; use Lookup when the distinction
// matters.
func (r ObjectRow) Possible(user string) []string {
	if r.res == nil {
		return nil
	}
	return r.res.Possible(user, r.Object)
}

// Certain returns cert(user, object) for the row's object. ok is false
// when the user holds no certain value.
func (r ObjectRow) Certain(user string) (string, bool) {
	if r.res == nil {
		return "", false
	}
	return r.res.Certain(user, r.Object)
}

// Lookup is Possible and Certain with lookup failures made explicit: an
// unknown user answers an error wrapping ErrUnknownUser.
func (r ObjectRow) Lookup(user string) (possible []string, certain string, err error) {
	if r.res == nil {
		return nil, "", fmt.Errorf("%w: %q", ErrUnknownObject, r.Object)
	}
	return r.res.Lookup(user, r.Object)
}

// Epoch returns the publication generation that served the row.
func (r ObjectRow) Epoch() uint64 {
	if r.res == nil {
		return 0
	}
	return r.res.Epoch()
}

// RowReader reads ObjectRows column-wise for a fixed list of distinct
// users, the way a scan does. Reset pays the per-object work once —
// locating the object in its batch, indexing its explicit beliefs — and
// the users are translated to resolved-network nodes once per snapshot,
// so the per-user reads are slice indexes and allocate nothing. A reader
// is single-goroutine state for one pass over a Resolved stream.
type RowReader struct {
	users []string
	pos   map[string]int // user -> position in users
	memo  []readerNodes  // one per snapshot seen (a cluster stream interleaves its shards')

	// The current row.
	nodes  []int
	sets   engine.ObjectSets
	belief []string
	stated []uint64 // belief[i] belongs to the current row iff stated[i] == seq
	seq    uint64
}

// readerNodes is the users' translation for one snapshot, identified by
// its name view and original->binarized table.
type readerNodes struct {
	src    userIndex
	binIDs []int
	nodes  []int // position -> resolved-network node, or noUser
}

// noUser marks a user the snapshot does not know (binIDs may hold -1).
const noUser = -2

// NewRowReader returns a reader over the given distinct users; the
// per-user methods take positions in this list.
func NewRowReader(users []string) *RowReader {
	rd := &RowReader{
		users:  users,
		pos:    make(map[string]int, len(users)),
		belief: make([]string, len(users)),
		stated: make([]uint64, len(users)),
	}
	for i, u := range users {
		rd.pos[u] = i
	}
	return rd
}

// Reset positions the reader on a row. The error wraps ErrUnknownObject
// for a zero row.
func (rd *RowReader) Reset(row ObjectRow) error {
	if row.res == nil || row.res.eng == nil {
		return fmt.Errorf("%w: %q", ErrUnknownObject, row.Object)
	}
	sets, err := row.res.eng.Object(row.Object)
	if err != nil {
		return fmt.Errorf("%w: %q: %w", ErrUnknownObject, row.Object, err)
	}
	rd.sets, rd.nodes = sets, rd.nodesOf(row.res)
	rd.seq++
	for u, v := range row.beliefs {
		if i, ok := rd.pos[u]; ok {
			rd.belief[i], rd.stated[i] = v, rd.seq
		}
	}
	return nil
}

// nodesOf translates the users into res's resolved network, memoised
// per snapshot.
func (rd *RowReader) nodesOf(res *BulkResolution) []int {
	for _, m := range rd.memo {
		if m.src == res.src && len(m.binIDs) == len(res.binIDs) && (len(m.binIDs) == 0 || sameBacking(m.binIDs, res.binIDs)) {
			return m.nodes
		}
	}
	nodes := make([]int, len(rd.users))
	for i, u := range rd.users {
		nodes[i] = noUser
		if id := res.src.UserID(u); id >= 0 {
			nodes[i] = res.binID(id)
		}
	}
	rd.memo = append(rd.memo, readerNodes{src: res.src, binIDs: res.binIDs, nodes: nodes})
	return nodes
}

// Lookup returns the i-th user's cert ("" when not certain) and the size
// of their poss for the current row; ok is false when the row's snapshot
// does not know the user.
func (rd *RowReader) Lookup(i int) (certain string, possible int, ok bool) {
	if rd.nodes[i] == noUser {
		return "", 0, false
	}
	poss := rd.sets.Possible(rd.nodes[i])
	if len(poss) == 1 {
		certain = string(poss[0])
	}
	return certain, len(poss), true
}

// AppendPossible appends the i-th user's poss for the current row to
// dst, sorted.
func (rd *RowReader) AppendPossible(dst []string, i int) []string {
	for _, v := range rd.sets.Possible(rd.nodes[i]) {
		dst = append(dst, string(v))
	}
	return dst
}

// Belief returns the explicit belief the i-th user stated on the current
// row's object, as of the resolution the row carries.
func (rd *RowReader) Belief(i int) (value string, stated bool) {
	if rd.stated[i] != rd.seq {
		return "", false
	}
	return rd.belief[i], true
}

// Get resolves one stored object and returns poss(user, object) and
// cert(user, object), re-resolving only when the object's cached
// resolution is stale. certain is "" when the user holds no certain
// value; unknown users and objects answer errors wrapping ErrUnknownUser
// and ErrUnknownObject.
func (s *Store) Get(ctx context.Context, user, object string) (possible []string, certain string, err error) {
	row, err := s.ResolveObject(ctx, object)
	if err != nil {
		return nil, "", err
	}
	return row.Lookup(user)
}

// ResolveObject resolves one stored object against the currently
// published epoch, serving the cached resolution when it is current.
func (s *Store) ResolveObject(ctx context.Context, object string) (ObjectRow, error) {
	rows, _, err := s.resolveStored(ctx, []string{object})
	if err != nil {
		return ObjectRow{}, err
	}
	return rows[0], nil
}

// StoreResolution is the batch view over every stored object, returned by
// ResolveAll: one consistent epoch across all rows.
type StoreResolution struct {
	epoch uint64
	keys  []string
	rows  map[string]ObjectRow
}

// Epoch returns the publication generation that served the batch.
func (r *StoreResolution) Epoch() uint64 { return r.epoch }

// Keys returns the resolved object keys, sorted.
func (r *StoreResolution) Keys() []string { return append([]string(nil), r.keys...) }

// Rows iterates the per-object rows in sorted key order.
func (r *StoreResolution) Rows() iter.Seq[ObjectRow] {
	return func(yield func(ObjectRow) bool) {
		for _, k := range r.keys {
			if !yield(r.rows[k]) {
				return
			}
		}
	}
}

// Possible returns poss(user, object), or nil for unknown users/objects.
func (r *StoreResolution) Possible(user, object string) []string {
	return r.rows[object].Possible(user)
}

// Certain returns cert(user, object); ok is false when there is none (or
// the user/object is unknown — use Lookup to tell those apart).
func (r *StoreResolution) Certain(user, object string) (string, bool) {
	return r.rows[object].Certain(user)
}

// Lookup is Possible and Certain with lookup failures made explicit:
// errors wrap ErrUnknownUser / ErrUnknownObject.
func (r *StoreResolution) Lookup(user, object string) (possible []string, certain string, err error) {
	row, ok := r.rows[object]
	if !ok {
		return nil, "", fmt.Errorf("%w: %q", ErrUnknownObject, object)
	}
	return row.Lookup(user)
}

// ResolveAll resolves every stored object at one pinned epoch. Objects
// whose cached resolution is current are served from the cache; the rest
// are re-resolved as one signature-deduplicated batch. After a belief
// mutation this re-resolves exactly the touched objects.
func (s *Store) ResolveAll(ctx context.Context) (*StoreResolution, error) {
	rows, epoch, err := s.resolveStored(ctx, nil)
	if err != nil {
		return nil, err
	}
	res := &StoreResolution{epoch: epoch, keys: make([]string, 0, len(rows)), rows: make(map[string]ObjectRow, len(rows))}
	for _, row := range rows {
		res.keys = append(res.keys, row.Object)
		res.rows[row.Object] = row
	}
	return res, nil
}

// resolveStored serves the given stored objects (nil keys = all, sorted)
// at one pinned epoch: cache-current objects are served as-is, the rest
// are resolved in one batch and the cache is refilled. Unknown keys error
// with ErrUnknownObject.
func (s *Store) resolveStored(ctx context.Context, keys []string) ([]ObjectRow, uint64, error) {
	e, err := s.sess.snapshot()
	if err != nil {
		return nil, 0, err
	}
	var (
		epoch uint64
		rows  []ObjectRow
		dirty map[string]map[string]string
		overs map[string]uint64
		hits  uint64
	)
	// Pin an epoch and capture the object table consistently: PutBelief
	// and PutObject install a belief entry only AFTER publishing any
	// replan its new roots needed, so if no publication landed between the
	// pin and the table read, every captured entry's roots exist in the
	// pinned epoch. Retries are bounded so a write-heavy store cannot
	// starve the read; on exhaustion the freshest capture serves (worst
	// case: the documented coverage error for a just-registered root).
	allKeys := keys == nil
	for attempt := 0; ; attempt++ {
		epoch = e.Seq()
		rows, dirty, overs, hits = nil, nil, nil, 0
		s.mu.RLock()
		if allKeys {
			// Recaptured every attempt: a key deleted between attempts must
			// drop out, not fail the all-objects read as unknown.
			keys = s.keysLocked()
		}
		rows = make([]ObjectRow, 0, len(keys))
		overs = make(map[string]uint64)
		for _, k := range keys {
			bs, ok := s.objects[k]
			if !ok {
				s.mu.RUnlock()
				e.Release()
				return nil, 0, fmt.Errorf("%w: %q", ErrUnknownObject, k)
			}
			if c, ok := s.cache[k]; ok && c.epoch == epoch && c.over == s.objVer[k] {
				rows = append(rows, ObjectRow{Object: k, res: c.res, beliefs: bs})
				continue
			}
			if dirty == nil {
				dirty = make(map[string]map[string]string)
			}
			dirty[k] = bs // value maps are copy-on-write: safe to read unlocked
			overs[k] = s.objVer[k]
			rows = append(rows, ObjectRow{Object: k, beliefs: bs}) // res filled below
		}
		hits = uint64(len(rows) - len(dirty))
		s.mu.RUnlock()
		if s.sess.Epoch() == epoch || attempt >= 2 {
			break
		}
		e.Release() // a publication raced the capture: re-pin and retry
		if e, err = s.sess.snapshot(); err != nil {
			return nil, 0, err
		}
	}
	defer e.Release()

	if len(dirty) > 0 {
		res, err := resolveSnap(ctx, e, dirty, s.sess.workers, s.sess.noDedup)
		if err != nil {
			return nil, 0, err
		}
		for i := range rows {
			if rows[i].res == nil {
				rows[i].res = res
			}
		}
		s.mu.Lock()
		for k, over := range overs {
			// Refill only when the object was not mutated or deleted while
			// we resolved — a stale fill would serve outdated beliefs.
			if _, ok := s.objects[k]; ok && s.objVer[k] == over {
				s.cache[k] = storeCached{epoch: epoch, over: over, res: res}
			}
		}
		s.hits += hits
		s.misses += uint64(len(dirty))
		s.mu.Unlock()
	} else if hits > 0 {
		s.mu.Lock()
		s.hits += hits
		s.mu.Unlock()
	}
	return rows, epoch, nil
}

// resolvedChunkSize bounds how many stale objects one streaming batch
// resolves at a time: large enough to amortize the scan and feed
// signature deduplication, small enough to keep the stream's memory
// footprint independent of the store size.
const resolvedChunkSize = 1024

// Resolved streams every stored object's resolution in sorted key order,
// without materializing the full result set: objects are resolved in
// bounded chunks against ONE pinned epoch, so a million-object store can
// be consumed row by row while writers keep publishing. Cache-current
// objects are served from the cache and freshly resolved chunks refill
// it under resolveStored's guard, so a scan-only store re-resolves what
// changed since the last scan, not everything. Iteration stops at the
// first error (yielded with a zero ObjectRow) or when the consumer
// breaks.
func (s *Store) Resolved(ctx context.Context) iter.Seq2[ObjectRow, error] {
	return func(yield func(ObjectRow, error) bool) {
		e, err := s.sess.snapshot()
		if err != nil {
			yield(ObjectRow{}, err)
			return
		}
		defer func() { e.Release() }()

		// One consistent pass: keys, belief maps (copy-on-write — the refs
		// stay frozen), belief versions, and current cache entries, captured
		// under one lock. The capture retries like resolveStored's: if a
		// publication landed between the epoch pin and the table read, the
		// table may mention roots the pinned epoch predates.
		var (
			epoch uint64
			rows  []ObjectRow // res set = cache-current
			overs []uint64
		)
		for attempt := 0; ; attempt++ {
			epoch = e.Seq()
			s.mu.RLock()
			keys := s.keysLocked()
			rows = make([]ObjectRow, len(keys))
			overs = make([]uint64, len(keys))
			for i, k := range keys {
				rows[i] = ObjectRow{Object: k, beliefs: s.objects[k]}
				overs[i] = s.objVer[k]
				if c, ok := s.cache[k]; ok && c.epoch == epoch && c.over == overs[i] {
					rows[i].res = c.res
				}
			}
			s.mu.RUnlock()
			if s.sess.Epoch() == epoch || attempt >= 2 {
				break
			}
			var err error
			old := e
			if e, err = s.sess.snapshot(); err != nil {
				old.Release()
				yield(ObjectRow{}, err)
				return
			}
			old.Release()
		}

		for start := 0; start < len(rows); start += resolvedChunkSize {
			chunk := rows[start:min(start+resolvedChunkSize, len(rows))]
			var batch map[string]map[string]string
			for _, row := range chunk {
				if row.res != nil {
					continue
				}
				if batch == nil {
					batch = make(map[string]map[string]string, len(chunk))
				}
				batch[row.Object] = row.beliefs
			}
			var res *BulkResolution
			if len(batch) > 0 {
				var err error
				res, err = resolveSnap(ctx, e, batch, s.sess.workers, s.sess.noDedup)
				if err != nil {
					yield(ObjectRow{}, err)
					return
				}
			}
			s.mu.Lock()
			for i := range chunk {
				if chunk[i].res != nil {
					continue
				}
				chunk[i].res = res
				// Refill only when the object was not mutated or deleted while
				// we resolved — a stale fill would serve outdated beliefs.
				k, over := chunk[i].Object, overs[start+i]
				if _, ok := s.objects[k]; ok && s.objVer[k] == over {
					s.cache[k] = storeCached{epoch: epoch, over: over, res: res}
				}
			}
			s.hits += uint64(len(chunk) - len(batch))
			s.misses += uint64(len(batch))
			s.mu.Unlock()
			for _, row := range chunk {
				if !yield(row, nil) {
					return
				}
			}
		}
	}
}

// Resolve resolves one ad-hoc object (not stored) against the currently
// published epoch: beliefs overrides the network defaults per root and
// may be nil when every root has a default.
func (s *Store) Resolve(ctx context.Context, beliefs map[string]string) (*ObjectResolution, error) {
	return s.sess.Resolve(ctx, beliefs)
}

// ResolveBatch resolves many ad-hoc objects (not stored) against the
// currently published epoch. Every user mentioned must already be a root
// — a belief or default holder, a WithExtraRoots declaration, or a user
// some stored object mentions.
func (s *Store) ResolveBatch(ctx context.Context, objects map[string]map[string]string) (*BulkResolution, error) {
	return s.sess.BulkResolve(ctx, objects)
}

// --- statistics --------------------------------------------------------

// StoreStats extends the session's maintenance counters with the object
// table and result-cache counters.
type StoreStats struct {
	SessionStats
	Objects     int    // stored objects
	CacheHits   uint64 // object reads served from the result cache
	CacheMisses uint64 // object reads that re-resolved
}

// Stats returns the store's counters as of the currently published epoch.
func (s *Store) Stats() StoreStats {
	return s.statsWith(s.sess.Stats())
}

func (s *Store) statsWith(sst SessionStats) StoreStats {
	st := StoreStats{SessionStats: sst}
	s.mu.RLock()
	st.Objects = len(s.objects)
	st.CacheHits, st.CacheMisses = s.hits, s.misses
	s.mu.RUnlock()
	return st
}

// EpochStats returns the store counters and the engine summary of ONE
// pinned epoch: unlike calling Stats and EngineStats back to back, the
// two cannot straddle a publication. For monitoring endpoints that key
// both on the epoch number (trustd's /v1/stats).
func (s *Store) EpochStats() (StoreStats, engine.Stats) {
	sst, eng := s.sess.EpochStats()
	return s.statsWith(sst), eng
}

// EngineStats summarizes the compiled artifact of the currently published
// epoch.
func (s *Store) EngineStats() engine.Stats { return s.sess.EngineStats() }
