package trustmap

// Store is the v2 top-level API: one handle owning the shared trust
// network AND the persistent per-object beliefs of the paper's community
// database (Section 4), where the old API treated objects as a transient
// map threaded through every BulkResolve call.
//
// A Store owns the epoch publisher directly (internal/serve underneath;
// the writer side lives in twin.go): reads pin the currently published
// snapshot lock-free, trust mutations build the next epoch off to the
// side and swap it in atomically, and the compiled resolution artifact is
// maintained incrementally across mutations. Beside it the Store keeps
// one immutable record per stored object: its beliefs and, once a read
// has resolved it, the epoch it was resolved at and its set ids. A belief
// mutation installs a fresh, unresolved record for exactly the touched
// object, so the next read re-resolves only that object — every other
// stored object keeps serving its record — and a trust mutation advances
// the epoch, after which stale objects are re-resolved lazily in one
// signature-deduplicated batch. A record holds nothing of the compiled
// artifact, so it may keep its resolution until the object's next write
// or a newer read replaces it: what the records keep is bounded by the
// objects and their root supports, not by the write history. Every read
// hands out ObjectRows, each pairing a record with the published snapshot
// that resolved it; batch reads return them sorted by object key.
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
// epoch is superseded. Lock order: the durable critical section (dur.mu),
// then the writer mutex (wmu), then publication; mu guards only the
// object table and is never held across either.

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

	"trustmap/internal/engine"
	"trustmap/internal/serve"
	"trustmap/internal/tn"
	"trustmap/wire"
)

// storeConfig collects the functional options of NewStore and OpenStore.
type storeConfig struct {
	workers    int
	maxDirty   float64
	extraRoots []string
	durability DurabilityMode
}

// StoreOption configures NewStore and OpenStore.
type StoreOption func(*storeConfig)

// WithWorkers sets the worker-pool size for resolves. Zero or negative
// means GOMAXPROCS.
func WithWorkers(n int) StoreOption { return func(c *storeConfig) { c.workers = n } }

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

// record is one stored object: its explicit beliefs and, once a read has
// resolved it, the epoch that resolved it and the resolution. A record is
// never written after it is installed: a write installs a fresh one, and
// a read that resolves the object installs a resolved successor (fill).
// The resolution is one 4-byte set id per root support, with the sets
// themselves kept once per Apply lineage (internal/engine/intern.go); it
// reaches no compiled artifact. On the serve-read world a resolved object
// costs about 2.7 KB (TestCachedObjectBytesBudget).
type record struct {
	// beliefs is the object's explicit-belief map: user -> value. It is
	// shared with the record's successors and never written.
	beliefs map[string]string
	epoch   uint64 // the epoch that resolved res; 0 means unresolved
	res     engine.Resolved
}

// Store owns a trust network and the per-object beliefs resolved against
// it. Create with NewStore (fresh network) or Network.NewStore (a copy of
// an existing facade network). Safe for concurrent use.
type Store struct {
	net      *tn.Network // the store's own trust network; written under wmu only
	workers  int         // worker-pool size for resolves; zero means GOMAXPROCS
	maxDirty float64     // dirty-region share above which Apply recompiles (0 = engine default)

	// dur is the persistence side (durable.go): nil for in-memory stores
	// (NewStore), the open WAL + snapshot machinery for OpenStore. When
	// set, every mutator runs apply-then-log inside dur.mu.
	dur *durable

	pub *serve.Publisher[*epochSnap]

	// Writer-side state (twin.go), guarded by wmu. Readers never touch it:
	// everything a resolve needs is frozen into the published epochSnap.
	wmu        sync.Mutex
	bin        *tn.Network // binarized twin, journaling enabled
	comp       *engine.CompiledNetwork
	binIDs     []int            // original user ID -> binarized node ID
	rootNode   map[int]int      // original root ID -> binarized node carrying its belief
	extraRoots []int            // original IDs of extra roots, in registration order
	extraSet   map[int]struct{} // membership index over extraRoots
	// pubStale flips when a publication failed (a rebuild error after a
	// mutation landed): the current epoch no longer reflects the writer
	// state. Readers observing it upgrade to refresh, which retries the
	// rebuild and surfaces the error — mutation failures are never
	// silently absorbed into stale serving.
	pubStale    atomic.Bool
	needRebuild bool
	rootsDirty  bool // rootNode or a default belief changed since the last snapshot
	stats       SessionStats
	lastSnap    *epochSnap // previous publication, for O(1) reuse of unchanged tables

	mu      sync.RWMutex
	objects map[string]*record
	hits    uint64     // reads served from a record's resolution
	misses  uint64     // reads that re-resolved
	dedup   DedupStats // summed over every batch the store resolved
}

// NewStore returns an empty in-memory store: no users, no trust, no
// objects, no persistence. Build state through the mutators; use
// OpenStore for a store that survives restarts.
func NewStore(opts ...StoreOption) (*Store, error) {
	return newStore(tn.New(), configOf(opts))
}

// NewStore validates the network and compiles a copy of it as the
// store's trust network: the adapter from the construction API. The
// store owns the copy, so later changes to n do not reach the store;
// mutate through the store instead.
func (n *Network) NewStore(opts ...StoreOption) (*Store, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return newStore(n.inner.Clone(), configOf(opts))
}

// configOf applies the functional options of NewStore and OpenStore.
func configOf(opts []StoreOption) storeConfig {
	var c storeConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// newStore takes ownership of n, compiles it once and publishes it as
// epoch 1: the shared body of NewStore and OpenStore (which layers
// durability on afterwards).
func newStore(n *tn.Network, c storeConfig) (*Store, error) {
	s := &Store{
		net:      n,
		workers:  c.workers,
		maxDirty: c.maxDirty,
		extraSet: make(map[int]struct{}, len(c.extraRoots)),
		objects:  make(map[string]*record),
	}
	for _, name := range c.extraRoots {
		s.addExtraRootLocked(n.AddUser(name))
	}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	s.pub = serve.NewPublisher(s.snapLocked())
	return s, nil
}

// Epoch returns the sequence number of the currently published epoch. It
// increases by one per effective trust mutation, batch, or replan.
func (s *Store) Epoch() uint64 { return s.pub.Seq() }

// Users returns all user names known to the trust network as of the
// currently published epoch, sorted.
func (s *Store) Users() []string {
	e := s.pub.Acquire()
	defer e.Release()
	view := e.Value().view
	out := make([]string, view.NumUsers())
	for i := range out {
		out[i] = view.Name(i)
	}
	sort.Strings(out)
	return out
}

// --- trust-network mutators -------------------------------------------
//
// The single-op mutators are one-op batches: they run through Update, so
// the critical section, the publication, and the WAL record have exactly
// one implementation.

// SetTrust states that truster accepts values from trusted with the given
// priority, creating the mapping or re-prioritizing an existing one
// (upsert), and publishes the updated artifact.
func (s *Store) SetTrust(ctx context.Context, truster, trusted string, priority int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.Update(func(tx *StoreTx) error { return tx.SetTrust(truster, trusted, priority) })
}

// RemoveTrust revokes truster -> trusted and reports whether the mapping
// existed.
func (s *Store) RemoveTrust(ctx context.Context, truster, trusted string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	var ok bool
	err := s.Update(func(tx *StoreTx) (err error) {
		ok, err = tx.RemoveTrust(truster, trusted)
		return err
	})
	return ok, err
}

// SetDefault states user's network-level belief: the value every object
// inherits when its own beliefs omit the user (Definition 2.1).
func (s *Store) SetDefault(ctx context.Context, user, value string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.Update(func(tx *StoreTx) error { return tx.SetDefault(user, value) })
}

// DeleteDefault revokes user's network-level belief. A user mentioned by
// stored objects stays a root: objects must then cover the user
// explicitly (assumption ii).
func (s *Store) DeleteDefault(ctx context.Context, user string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.Update(func(tx *StoreTx) error { return tx.DeleteDefault(user) })
}

// StoreTx applies several trust-network mutations as one batch inside
// Store.Update: concurrent readers observe either the whole batch or none
// of it, and the engine folds the batch into the compiled artifact in one
// delta application. On a durable store the batch's effective ops are
// logged as one WAL record when Update returns. Its methods run under the
// store's writer mutex and defer publication to the end of the batch.
type StoreTx struct {
	s   *Store
	log bool      // record effective ops; false on in-memory stores and on replay
	ops []wire.Op // the batch's WAL record: exactly the effective mutations
}

// record notes one effective mutation for the batch's WAL record. No-ops
// (an absent mapping or belief revoked) never get here, so they consume
// no LSN: the WAL holds exactly the effective mutation history.
func (t *StoreTx) record(op wire.Op) {
	if t.log {
		t.ops = append(t.ops, op)
	}
}

// Each mutator below applies its change to the store's network, then
// has reencode bring the touched user's binarized encoding in line
// (twin.go).

// SetTrust is Store.SetTrust within the batch.
func (t *StoreTx) SetTrust(truster, trusted string, priority int) error {
	if !t.reprioritize(truster, trusted, priority) {
		if err := t.addMapping(truster, trusted, priority); err != nil {
			return err
		}
	}
	t.record(wire.Op{Op: wire.OpSetTrust, Truster: truster, Trusted: trusted, Priority: priority})
	return nil
}

// AddTrust adds a new mapping, erroring if it already exists (use
// SetTrust to upsert).
func (t *StoreTx) AddTrust(truster, trusted string, priority int) error {
	if err := t.addMapping(truster, trusted, priority); err != nil {
		return err
	}
	t.record(wire.Op{Op: wire.OpAddTrust, Truster: truster, Trusted: trusted, Priority: priority})
	return nil
}

// addMapping adds truster -> trusted. Unlike Network.AddTrust it rejects
// self-trust and duplicate mappings immediately instead of at the next
// validation.
func (t *StoreTx) addMapping(truster, trusted string, priority int) error {
	if truster == trusted {
		return fmt.Errorf("trustmap: user %q cannot trust itself", truster)
	}
	s := t.s
	x, z := s.net.AddUser(truster), s.net.AddUser(trusted)
	pre := len(s.net.In(x))
	for _, m := range s.net.In(x) {
		if m.Parent == z {
			return fmt.Errorf("trustmap: mapping %q -> %q already exists; use UpdateTrust", trusted, truster)
		}
	}
	s.net.AddMapping(z, x, priority)
	s.reencode(x, pre, true)
	return nil
}

// UpdateTrust re-prioritizes an existing mapping and reports whether it
// existed. The error is always nil (publication errors surface from
// Update itself); the shape is the one wire.Op.Apply dispatches onto.
func (t *StoreTx) UpdateTrust(truster, trusted string, priority int) (bool, error) {
	ok := t.reprioritize(truster, trusted, priority)
	if ok {
		t.record(wire.Op{Op: wire.OpUpdateTrust, Truster: truster, Trusted: trusted, Priority: priority})
	}
	return ok, nil
}

// reprioritize re-prioritizes truster -> trusted and reports whether the
// mapping existed.
func (t *StoreTx) reprioritize(truster, trusted string, priority int) bool {
	s := t.s
	x, z := s.net.UserID(truster), s.net.UserID(trusted)
	if x < 0 || z < 0 || !s.net.SetMappingPriority(z, x, priority) {
		return false
	}
	s.reencode(x, len(s.net.In(x)), true)
	return true
}

// RemoveTrust is Store.RemoveTrust within the batch. The error is always
// nil, as for UpdateTrust.
func (t *StoreTx) RemoveTrust(truster, trusted string) (bool, error) {
	s := t.s
	x, z := s.net.UserID(truster), s.net.UserID(trusted)
	if x < 0 || z < 0 || !s.net.RemoveMapping(z, x) {
		return false, nil
	}
	s.reencode(x, len(s.net.In(x))+1, true)
	t.record(wire.Op{Op: wire.OpRemoveTrust, Truster: truster, Trusted: trusted})
	return true, nil
}

// SetDefault is Store.SetDefault within the batch. A value update on an
// existing belief is free for the plan: the resolution plan is
// belief-value-independent, so the next epoch shares the compiled
// artifact and only swaps the defaults.
func (t *StoreTx) SetDefault(user, value string) error {
	if value == "" {
		return fmt.Errorf("trustmap: empty value; use RemoveBelief to revoke")
	}
	s := t.s
	x := s.net.AddUser(user)
	s.net.SetExplicit(x, tn.Value(value))
	s.reencode(x, len(s.net.In(x)), false)
	t.record(wire.Op{Op: wire.OpSetBelief, User: user, Value: value})
	return nil
}

// DeleteDefault is Store.DeleteDefault within the batch. Revoking an
// absent belief is a no-op.
func (t *StoreTx) DeleteDefault(user string) error {
	s := t.s
	if x := s.net.UserID(user); x >= 0 && s.net.HasExplicit(x) {
		s.net.SetExplicit(x, tn.NoValue)
		s.reencode(x, len(s.net.In(x)), false)
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
	tx := &StoreTx{s: s, log: s.dur != nil}
	ferr := s.applyUpdate(tx, fn)
	if len(tx.ops) > 0 {
		if lerr := s.logMutation(tx.ops...); ferr == nil {
			ferr = lerr
		}
	}
	return ferr
}

// applyUpdate runs fn(tx) under the writer mutex and publishes one epoch:
// Update without the durable critical section or the WAL append, which is
// all the recovery-replay path needs (its ops come FROM the log).
func (s *Store) applyUpdate(tx *StoreTx, fn func(tx *StoreTx) error) (err error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	// Publish in a defer so a panic in fn still publishes the applied
	// prefix while unwinding: otherwise a recovered panic (net/http
	// recovers handler panics) would leave the store's network holding
	// mutations no epoch reflects, and readers would silently serve the
	// pre-batch snapshot.
	defer func() {
		tx.s = nil
		if perr := s.publishLocked(); err == nil {
			err = perr
		}
	}()
	return fn(tx)
}

// --- object mutators ---------------------------------------------------
//
// The object mutators are one-op writes: each runs its wire.Op through
// write, whose dispatch, applyObject, is also the one recovery replay
// and ApplyReplicated use.

// errEmptyUser rejects the empty user name in the public object mutators,
// before anything is applied or logged: the name would become a plan root
// on the owning shard that AddRoots refuses to broadcast to the others,
// poisoning the cluster. applyObject does not check, so a WAL that
// already holds such a record still recovers.
var errEmptyUser = errors.New("trustmap: empty user name")

// PutBelief states user's explicit belief about one object, overriding
// the user's network default for that object. The user becomes a root of
// the compiled plan if they were not one already (a replan, published as
// a fresh epoch); the touched object's resolution — and only it — is
// dropped.
func (s *Store) PutBelief(ctx context.Context, user, object, value string) error {
	_, err := s.write(ctx, user == "", wire.Op{Op: wire.OpPutBelief, Object: object, User: user, Value: value})
	return err
}

// DeleteBelief revokes user's explicit belief about one object and
// reports whether it existed. The object falls back to the user's network
// default (resolving errors if there is none and the user is still a
// root elsewhere).
func (s *Store) DeleteBelief(ctx context.Context, user, object string) (bool, error) {
	return s.write(ctx, false, wire.Op{Op: wire.OpDeleteBelief, Object: object, User: user})
}

// PutObject creates or replaces one object's explicit beliefs wholesale.
// An empty (or nil) belief map is valid: the object then resolves purely
// from network defaults.
func (s *Store) PutObject(ctx context.Context, object string, beliefs map[string]string) error {
	_, emptyUser := beliefs[""]
	_, err := s.write(ctx, emptyUser, wire.Op{Op: wire.OpPutObject, Object: object, Beliefs: beliefs})
	return err
}

// DeleteObject removes one object and its beliefs, reporting whether it
// existed. Users it mentioned stay roots (other objects may mention them;
// rootness is never withdrawn while the store lives).
func (s *Store) DeleteObject(ctx context.Context, object string) (bool, error) {
	return s.write(ctx, false, wire.Op{Op: wire.OpDeleteObject, Object: object})
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
	names := slices.Compact(slices.Sorted(slices.Values(users))) // deterministic registration order
	_, err := s.write(ctx, slices.Contains(names, ""), wire.Op{Op: wire.OpRegisterRoots, Users: names})
	return err
}

// write is the one body of the object mutators: it refuses a cancelled
// request, then a request its mutator found to name the empty user,
// enters the durable writer section, applies op, and logs the op's
// effective form. It reports whether op took effect; a no-op (an absent
// object or belief deleted, every root already registered) logs nothing.
func (s *Store) write(ctx context.Context, emptyUser bool, op wire.Op) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if emptyUser {
		return false, errEmptyUser
	}
	unlock, err := s.beginMutation()
	if err != nil {
		return false, err
	}
	defer unlock()
	logged, ok, err := s.applyObject(op)
	if err != nil || !ok {
		return false, err
	}
	return true, s.logMutation(logged)
}

// applyObject applies one object op without logging it: the dispatch of
// the live mutators (through write), of recovery replay and
// ApplyReplicated (through replayBatch), and of OpenStore's snapshot
// restore. ok reports whether the op took effect, and logged is its
// effective form — op itself, except that register-roots keeps only the
// names that were not roots yet.
func (s *Store) applyObject(op wire.Op) (logged wire.Op, ok bool, err error) {
	switch op.Op {
	case wire.OpPutBelief:
		if op.Object == "" {
			return op, false, errors.New("trustmap: empty object key")
		}
		if op.Value == "" {
			return op, false, errors.New("trustmap: empty value; use DeleteBelief to revoke")
		}
		if _, err := s.addObjectRoots(op.User); err != nil {
			return op, false, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		old := s.beliefsLocked(op.Object)
		m := make(map[string]string, len(old)+1)
		maps.Copy(m, old)
		m[op.User] = op.Value
		s.objects[op.Object] = &record{beliefs: m}
		return op, true, nil
	case wire.OpDeleteBelief:
		s.mu.Lock()
		defer s.mu.Unlock()
		old := s.beliefsLocked(op.Object)
		if _, ok := old[op.User]; !ok {
			return op, false, nil
		}
		m := make(map[string]string, len(old)-1)
		maps.Copy(m, old)
		delete(m, op.User)
		s.objects[op.Object] = &record{beliefs: m}
		return op, true, nil
	case wire.OpPutObject:
		if op.Object == "" {
			return op, false, errors.New("trustmap: empty object key")
		}
		users := make([]string, 0, len(op.Beliefs))
		for user, v := range op.Beliefs {
			if v == "" {
				return op, false, fmt.Errorf("trustmap: empty value for user %q in object %q", user, op.Object)
			}
			users = append(users, user)
		}
		sort.Strings(users) // deterministic registration order
		if _, err := s.addObjectRoots(users...); err != nil {
			return op, false, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		m := make(map[string]string, len(op.Beliefs))
		maps.Copy(m, op.Beliefs)
		s.objects[op.Object] = &record{beliefs: m}
		return op, true, nil
	case wire.OpDeleteObject:
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.objects[op.Object]; !ok {
			return op, false, nil
		}
		delete(s.objects, op.Object)
		return op, true, nil
	case wire.OpRegisterRoots:
		added, err := s.addObjectRoots(op.Users...)
		if err != nil {
			return op, false, err
		}
		return wire.Op{Op: wire.OpRegisterRoots, Users: added}, len(added) > 0, nil
	default:
		return op, false, fmt.Errorf("trustmap: unknown object op %q", op.Op)
	}
}

// beliefsLocked returns the stored object's belief map, nil when there
// is no such object. Callers hold mu.
func (s *Store) beliefsLocked(object string) map[string]string {
	if rec := s.objects[object]; rec != nil {
		return rec.beliefs
	}
	return nil
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
	rec, ok := s.objects[object]
	if !ok {
		return nil, false
	}
	out := make(map[string]string, len(rec.beliefs))
	maps.Copy(out, rec.beliefs)
	return out, true
}

// --- resolution reads --------------------------------------------------

// ObjectRow is one object's resolution: the element of every read,
// from ResolveObject and Resolve to the sorted batches of ResolveAll and
// ResolveBatch and the Resolved stream.
type ObjectRow struct {
	// Object is the object key the row resolves.
	Object string
	// rec holds the beliefs the row was resolved from and the resolution;
	// snap is the published snapshot that resolved it, whose tables
	// translate user names into its nodes. Both are nil in a zero row.
	rec  *record
	snap *epochSnap
}

// Possible returns poss(user, object) for the row's object, sorted. An
// unknown user returns an empty slice; use Lookup when the distinction
// matters.
func (r ObjectRow) Possible(user string) []string {
	possible, _, _ := r.Lookup(user)
	return possible
}

// Certain returns cert(user, object) for the row's object. ok is false
// when the user holds no certain value.
func (r ObjectRow) Certain(user string) (string, bool) {
	_, certain, _ := r.Lookup(user)
	return certain, certain != ""
}

// Lookup returns poss(user, object), sorted, and cert(user, object) with
// lookup failures made explicit: an unknown user answers an error
// wrapping ErrUnknownUser, a zero row one wrapping ErrUnknownObject.
// certain is "" when the user has no certain value for the object; an
// empty possible slice with a nil error means the user is genuinely
// unreachable from the object's beliefs.
func (r ObjectRow) Lookup(user string) (possible []string, certain string, err error) {
	if r.snap == nil {
		return nil, "", fmt.Errorf("%w: %q", ErrUnknownObject, r.Object)
	}
	id := r.snap.view.UserID(user)
	if id < 0 {
		return nil, "", fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	// The engine's sets are sorted and shared: copy, never re-sort.
	sets := r.snap.comp.Sets(r.rec.res)
	poss := sets.Possible(r.snap.binID(id))
	possible = make([]string, len(poss))
	for i, v := range poss {
		possible[i] = string(v)
	}
	if len(possible) == 1 {
		certain = possible[0]
	}
	return possible, certain, nil
}

// Epoch returns the publication generation that served the row.
func (r ObjectRow) Epoch() uint64 {
	if r.rec == nil {
		return 0
	}
	return r.rec.epoch
}

// RowReader reads ObjectRows column-wise for a fixed list of distinct
// users, the way a scan does. Reset pays the per-object work once —
// indexing the object's explicit beliefs — and the users are translated
// to support ids once per snapshot, so the per-user reads are slice
// indexes and allocate nothing. A reader is single-goroutine state for
// one pass over a Resolved stream.
type RowReader struct {
	users []string
	pos   map[string]int   // user -> position in users
	memo  []readerSupports // one per snapshot seen (a cluster stream interleaves its shards')

	// The current row.
	snap   int     // index in memo
	sups   []int32 // memo[snap].sups
	sets   engine.ObjectSets
	belief []string
	stated []uint64 // belief[i] belongs to the current row iff stated[i] == seq
	seq    uint64
}

// readerSupports is the users' translation for one snapshot.
type readerSupports struct {
	snap *epochSnap
	sups []int32 // position -> support id, -1 for an empty poss, or noUser
}

// noUser marks a user the snapshot does not know.
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
	if row.snap == nil {
		return fmt.Errorf("%w: %q", ErrUnknownObject, row.Object)
	}
	rd.sets = row.snap.comp.Sets(row.rec.res)
	rd.snap = rd.snapshotOf(row.snap, &rd.sets)
	rd.sups = rd.memo[rd.snap].sups
	rd.seq++
	for u, v := range row.rec.beliefs {
		if i, ok := rd.pos[u]; ok {
			rd.belief[i], rd.stated[i] = v, rd.seq
		}
	}
	return nil
}

// snapshotOf returns the memo index of snap's translation of the users to
// support ids, adding it on first sight; sets is a row snap resolved.
func (rd *RowReader) snapshotOf(snap *epochSnap, sets *engine.ObjectSets) int {
	for i, m := range rd.memo {
		if m.snap == snap {
			return i
		}
	}
	sups := make([]int32, len(rd.users))
	for i, u := range rd.users {
		sups[i] = noUser
		if id := snap.view.UserID(u); id >= 0 {
			sups[i] = sets.Support(snap.binID(id))
		}
	}
	rd.memo = append(rd.memo, readerSupports{snap: snap, sups: sups})
	return len(rd.memo) - 1
}

// Lookup returns the i-th user's cert ("" when not certain) and the size
// of their poss for the current row; ok is false when the row's snapshot
// does not know the user.
func (rd *RowReader) Lookup(i int) (certain string, possible int, ok bool) {
	if rd.sups[i] == noUser {
		return "", 0, false
	}
	poss := rd.sets.Set(rd.sets.SetOf(rd.sups[i]))
	if len(poss) == 1 {
		certain = string(poss[0])
	}
	return certain, len(poss), true
}

// PossibleID identifies the i-th user's poss for the current row without
// reading it: snapshot numbers the snapshots this reader has seen, and
// two rows of one snapshot have equal poss exactly when their ids are
// equal. id is -1 for an empty poss; ok is false when Lookup's is.
func (rd *RowReader) PossibleID(i int) (snapshot, id int, ok bool) {
	if rd.sups[i] == noUser {
		return rd.snap, 0, false
	}
	return rd.snap, int(rd.sets.SetOf(rd.sups[i])), true
}

// AppendPossible appends the i-th user's poss for the current row to
// dst, sorted.
func (rd *RowReader) AppendPossible(dst []string, i int) []string {
	for _, v := range rd.sets.Set(rd.sets.SetOf(rd.sups[i])) {
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
// published epoch, serving the object's kept resolution when it is
// current.
func (s *Store) ResolveObject(ctx context.Context, object string) (ObjectRow, error) {
	rows, err := s.resolveStored(ctx, []string{object})
	if err != nil {
		return ObjectRow{}, err
	}
	return rows[0], nil
}

// ResolveAll resolves every stored object at one pinned epoch and
// returns the rows sorted by object key, every row carrying that epoch.
// Objects whose kept resolution is current are served from it; the rest
// are re-resolved as one signature-deduplicated batch. After a belief
// mutation this re-resolves exactly the touched objects.
func (s *Store) ResolveAll(ctx context.Context) ([]ObjectRow, error) {
	return s.resolveStored(ctx, nil)
}

// pinned is one consistent capture of the object table at a pinned
// epoch: the shared front half of resolveStored and Resolved.
type pinned struct {
	e *serve.Epoch[*epochSnap]
	// rows carry the captured records; fill resolves every row whose
	// record was not resolved at the pinned epoch.
	rows []ObjectRow
}

// capture pins an epoch and reads the given stored objects (nil keys =
// all, sorted) consistently with it: keys and their records (immutable,
// so they stay frozen), under one lock. PutBelief and PutObject install a
// record only AFTER publishing any replan its new roots needed, so if no
// publication landed between the pin and the table read, every captured
// record's roots exist in the pinned epoch. Retries are bounded so a
// write-heavy store cannot starve the read; on exhaustion the freshest
// capture serves (worst case: the documented coverage error for a
// just-registered root). Unknown keys error with ErrUnknownObject. The
// caller releases p.e.
func (s *Store) capture(keys []string) (p pinned, err error) {
	allKeys := keys == nil
	for attempt := 0; ; attempt++ {
		if p.e, err = s.snapshot(); err != nil {
			return pinned{}, err
		}
		epoch, snap := p.e.Seq(), p.e.Value()
		s.mu.RLock()
		if allKeys {
			// Recaptured every attempt: a key deleted between attempts must
			// drop out, not fail the all-objects read as unknown.
			keys = s.keysLocked()
		}
		p.rows = make([]ObjectRow, len(keys))
		for i, k := range keys {
			rec, ok := s.objects[k]
			if !ok {
				s.mu.RUnlock()
				p.e.Release()
				return pinned{}, fmt.Errorf("%w: %q", ErrUnknownObject, k)
			}
			p.rows[i] = ObjectRow{Object: k, rec: rec, snap: snap}
		}
		s.mu.RUnlock()
		if s.Epoch() == epoch || attempt >= 2 {
			return p, nil
		}
		p.e.Release() // a publication raced the capture: re-pin and retry
	}
}

// fill resolves the rows of p.rows[lo:hi] whose records were not resolved
// at the pinned epoch as one signature-deduplicated batch against it,
// hands each such row its resolved successor record, and counts the hits,
// misses and dedup work. A successor is installed only while the record
// it succeeds is still the object's and older than the pinned epoch: a
// write or a read at a newer epoch that landed meanwhile wins.
func (s *Store) fill(ctx context.Context, p pinned, lo, hi int) error {
	if lo == hi {
		return nil
	}
	epoch := p.e.Seq()
	var batch map[string]map[string]string
	for _, row := range p.rows[lo:hi] {
		if row.rec.epoch == epoch {
			continue
		}
		if batch == nil {
			batch = make(map[string]map[string]string, hi-lo)
		}
		batch[row.Object] = row.rec.beliefs
	}
	var res *engine.BulkResult
	if len(batch) > 0 {
		var err error
		if res, err = s.resolveSnap(ctx, p.e.Value(), batch); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits += uint64(hi - lo - len(batch))
	s.misses += uint64(len(batch))
	if res == nil {
		return nil
	}
	s.addDedupLocked(res)
	for i := lo; i < hi; i++ {
		old := p.rows[i].rec
		if old.epoch == epoch {
			continue
		}
		o, err := res.Resolved(p.rows[i].Object)
		if err != nil {
			return err
		}
		next := &record{beliefs: old.beliefs, epoch: epoch, res: o}
		p.rows[i].rec = next
		if k := p.rows[i].Object; s.objects[k] == old && old.epoch < epoch {
			s.objects[k] = next
		}
	}
	return nil
}

// resolveStored serves the given stored objects (nil keys = all, sorted)
// at one pinned epoch: objects resolved at it are served as-is, the rest
// are resolved in one batch and their records replaced.
func (s *Store) resolveStored(ctx context.Context, keys []string) ([]ObjectRow, error) {
	p, err := s.capture(keys)
	if err != nil {
		return nil, err
	}
	defer p.e.Release()
	if err := s.fill(ctx, p, 0, len(p.rows)); err != nil {
		return nil, err
	}
	return p.rows, nil
}

// resolvedChunkSize bounds how many stale objects one streaming batch
// resolves at a time: large enough to amortize the scan and feed
// signature deduplication, small enough to keep the stream's memory
// footprint independent of the store size.
const resolvedChunkSize = 1024

// Resolved streams every stored object's resolution in sorted key order,
// without materializing the full result set: objects are resolved in
// bounded chunks against ONE pinned epoch, so a million-object store can
// be consumed row by row while writers keep publishing. Objects whose
// kept resolution is current are served from it, and freshly resolved
// chunks install theirs under fill's guard, so a scan-only store
// re-resolves what changed since the last scan, not everything. Iteration stops at the first error
// (yielded with a zero ObjectRow) or when the consumer breaks.
func (s *Store) Resolved(ctx context.Context) iter.Seq2[ObjectRow, error] {
	return func(yield func(ObjectRow, error) bool) {
		p, err := s.capture(nil)
		if err != nil {
			yield(ObjectRow{}, err)
			return
		}
		defer p.e.Release()
		for lo := 0; lo < len(p.rows); lo += resolvedChunkSize {
			hi := min(lo+resolvedChunkSize, len(p.rows))
			if err := s.fill(ctx, p, lo, hi); err != nil {
				yield(ObjectRow{}, err)
				return
			}
			for _, row := range p.rows[lo:hi] {
				if !yield(row, nil) {
					return
				}
			}
		}
	}
}

// adhocKey names the one object of an ad-hoc Resolve in its batch.
const adhocKey = "object"

// Resolve resolves one ad-hoc object (not stored) against the currently
// published epoch: the mutate-then-resolve fast path. beliefs overrides
// the network defaults per root and may be nil when every root has a
// default.
func (s *Store) Resolve(ctx context.Context, beliefs map[string]string) (ObjectRow, error) {
	rows, err := s.ResolveBatch(ctx, map[string]map[string]string{adhocKey: beliefs})
	if err != nil {
		return ObjectRow{}, err
	}
	return rows[0], nil
}

// ResolveBatch resolves many ad-hoc objects (not stored) against the
// currently published epoch. Every user mentioned must already be a root
// — a belief or default holder, a WithExtraRoots declaration, or a user
// some stored object mentions. Safe to call from any number of
// goroutines; the whole call is served by one epoch, and the rows come
// back sorted by object key.
func (s *Store) ResolveBatch(ctx context.Context, objects map[string]map[string]string) ([]ObjectRow, error) {
	e, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	defer e.Release()
	res, err := s.resolveSnap(ctx, e.Value(), objects)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.addDedupLocked(res)
	s.mu.Unlock()
	return rowsOf(e.Value(), e.Seq(), res, objects), nil
}

// rowsOf wraps every object of a batch snap resolved at epoch in its row,
// sorted by key.
func rowsOf(snap *epochSnap, epoch uint64, res *engine.BulkResult, objects map[string]map[string]string) []ObjectRow {
	rows := make([]ObjectRow, 0, len(objects))
	for k, bs := range objects {
		o, _ := res.Resolved(k) // every key of a nil-error Resolve is resolved
		rows = append(rows, ObjectRow{Object: k, rec: &record{beliefs: bs, epoch: epoch, res: o}, snap: snap})
	}
	slices.SortFunc(rows, func(a, b ObjectRow) int { return strings.Compare(a.Object, b.Object) })
	return rows
}

// addDedupLocked adds one resolved batch's signature-deduplication
// counters to the store's running totals. Callers hold mu.
func (s *Store) addDedupLocked(res *engine.BulkResult) {
	d := res.Dedup()
	s.dedup.Objects += d.Objects
	s.dedup.DistinctSignatures += d.DistinctSignatures
}

// --- statistics --------------------------------------------------------

// StoreStats extends the plan-maintenance counters with the object table,
// result-cache and signature-deduplication counters. The result cache is
// the resolution each stored object's record keeps.
type StoreStats struct {
	SessionStats
	Epoch       uint64 // generation of the published snapshot serving reads
	Objects     int    // stored objects
	CacheHits   uint64 // object reads served from the result cache
	CacheMisses uint64 // object reads that re-resolved
	// Dedup sums the signature-deduplication counters of every batch the
	// store resolved, stored and ad-hoc alike. Objects sharing one
	// root-assignment signature resolve once per batch; across batches
	// only the result cache above carries answers.
	Dedup DedupStats
}

// statsAt reads the counters of one pinned epoch, plus the live
// epoch-reclamation, object-table and cache counters.
func (s *Store) statsAt(e *serve.Epoch[*epochSnap]) StoreStats {
	st := StoreStats{SessionStats: e.Value().stats}
	st.Epoch = e.Seq()
	st.EpochsReclaimed = s.pub.Stats().Reclaimed
	s.mu.RLock()
	st.Objects = len(s.objects)
	st.CacheHits, st.CacheMisses, st.Dedup = s.hits, s.misses, s.dedup
	s.mu.RUnlock()
	return st
}

// Stats returns the store's counters as of the currently published epoch.
func (s *Store) Stats() StoreStats {
	e := s.pub.Acquire()
	defer e.Release()
	return s.statsAt(e)
}

// EpochStats returns the store counters and the summary of the compiled
// artifact, both of ONE pinned epoch, so the two cannot straddle a
// publication. For monitoring endpoints that key both on the epoch
// number (trustd's /v1/stats).
func (s *Store) EpochStats() (StoreStats, engine.Stats) {
	e := s.pub.Acquire()
	defer e.Release()
	return s.statsAt(e), e.Value().engineStats()
}
