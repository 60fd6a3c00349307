package trustmap

// The writer side of a Store: the binarized twin of the store's network,
// the compiled artifact maintained from it, and the epoch publication
// that hands both to readers. Compiling once and folding each mutation
// into the artifact through the engine's delta path (engine.Apply) is
// the compile -> resolve many -> mutate -> incremental re-plan lifecycle
// the paper's community-database setting implies (Sections 2.5 and 4):
// a mutation pays for its dirty region instead of the whole network.
//
// The store owns its trust network — Network.NewStore takes a copy, so
// nothing outside the store can write to it — and the binarized twin,
// which it keeps current by translating each network mutation into
// binarized ones. Mutations that would restructure the binarization (a
// user crossing the two-parent threshold, belief changes on
// heavily-mapped users) mark the store for a full rebuild, which the next
// publication performs transparently.
//
// # Concurrency
//
// Serving is epoch-based (internal/serve): every publication — the
// initial compile and each mutation — freezes an immutable snapshot (the
// compiled artifact plus the name/root tables a resolve needs) and swaps
// it in with one atomic pointer store. Readers pin the current epoch for
// the duration of one resolve and never take the writer mutex, so a read
// observes exactly one published generation — never a torn mix of two —
// and never blocks on a writer. Writers are serialized by the writer
// mutex; Update publishes one epoch for its whole batch before
// returning. Retired epochs stay valid for the readers still pinning
// them (engine.Apply builds successors copy-on-write) and are reclaimed
// once their reader count drains.

import (
	"context"
	"fmt"
	"sync"

	"trustmap/internal/engine"
	"trustmap/internal/serve"
	"trustmap/internal/tn"
)

// SessionStats counts what the store's plan maintenance has done, as of
// the epoch the stats were read from.
type SessionStats struct {
	Epoch              uint64 // generation of the published snapshot serving reads
	Compiles           int    // full compiles, including the initial one
	IncrementalApplies int    // mutations folded in through the delta path
	ValueOnlyUpdates   int    // belief-value changes, free for the plan
	FullRecompiles     int    // delta applications that hit the threshold
	EpochsReclaimed    uint64 // retired epochs whose reader count drained
	LastApply          engine.ApplyStats
}

// epochSnap is one published epoch's immutable snapshot: the compiled
// artifact plus every table a resolve reads. Writers build the next
// snapshot off to the side under the writer mutex and publish it with
// one pointer swap; readers must treat every field as frozen.
type epochSnap struct {
	comp     *engine.CompiledNetwork
	view     *tn.View         // frozen name index of the store's network
	binIDs   []int            // original user ID -> binarized node (len-capped, append-only)
	rootNode map[int]int      // original root ID -> binarized belief carrier
	defaults map[int]tn.Value // network-level default belief per root, where stated
	version  uint64           // network version this snapshot reflects
	stats    SessionStats     // maintenance counters at publication
	eng      *engLazy         // shared between snapshots of one artifact generation
}

// engLazy derives the engine summary of one artifact generation lazily,
// on first EngineStats call — off the publish hot path. Only the
// binarized user/mapping counts are captured eagerly (O(1)): they are
// the one thing engine.Stats reads from the live network, which keeps
// mutating after publication. Snapshots sharing an artifact (value-only
// updates) share the holder, so the derivation runs once per generation.
type engLazy struct {
	comp        *engine.CompiledNetwork
	binUsers    int
	binMappings int
	once        sync.Once
	st          engine.Stats
}

// engineStats derives (once) and returns the frozen artifact summary.
func (snap *epochSnap) engineStats() engine.Stats {
	e := snap.eng
	e.once.Do(func() {
		e.st = e.comp.StatsFrozen(e.binUsers, e.binMappings)
	})
	return e.st
}

// rebuild re-binarizes and recompiles from scratch: the fallback for
// structural mutations the incremental translation does not cover.
// Callers hold wmu (or, in newStore, exclusive ownership).
func (s *Store) rebuild() error {
	if err := s.net.Validate(); err != nil {
		return err
	}
	shape := s.net.Clone()
	for _, x := range s.extraRoots {
		if !shape.HasExplicit(x) {
			shape.SetExplicit(x, "seed")
		}
	}
	bin := tn.Binarize(shape)
	bin.EnableJournal()
	comp, err := engine.Compile(bin)
	if err != nil {
		return err
	}
	s.bin = bin
	s.comp = comp
	s.binIDs = make([]int, s.net.NumUsers())
	for i := range s.binIDs {
		s.binIDs[i] = i // fresh binarization keeps original IDs as a prefix
	}
	s.rootNode = make(map[int]int)
	for x := 0; x < shape.NumUsers(); x++ {
		if shape.HasExplicit(x) {
			s.rootNode[x] = findRootFor(bin, x)
		}
	}
	s.needRebuild = false
	s.rootsDirty = true
	s.stats.Compiles++
	return nil
}

// snapLocked freezes the writer state into an immutable snapshot. Tables
// that cannot have changed since the previous publication are shared with
// it: the name view and binIDs when no user was added (the binIDs backing
// array is append-only below its published length), rootNode and defaults
// while no belief changed (rootsDirty), and the lazy engine-summary
// holder while the artifact pointer is unchanged (value-only updates).
func (s *Store) snapLocked() *epochSnap {
	// Derive the artifact's root supports now, under the writer lock: a
	// freshly compiled artifact derives them lazily by reading the live
	// binarized network, which a reader's first resolve would race.
	s.comp.EnsureSupports()
	prev := s.lastSnap
	snap := &epochSnap{
		comp:    s.comp,
		view:    s.net.Snapshot(viewOf(prev)),
		version: s.net.Version(),
		stats:   s.stats,
	}
	if prev != nil && prev.eng.comp == s.comp {
		snap.eng = prev.eng // same artifact generation: one derivation serves both
	} else {
		snap.eng = &engLazy{comp: s.comp, binUsers: s.bin.NumUsers(), binMappings: s.bin.NumMappings()}
	}
	if prev != nil && len(prev.binIDs) == len(s.binIDs) && sameBacking(prev.binIDs, s.binIDs) {
		snap.binIDs = prev.binIDs
	} else {
		snap.binIDs = s.binIDs[:len(s.binIDs):len(s.binIDs)]
	}
	// Root tables change only when a belief is granted, revoked, updated,
	// or hoisted — never on trust-edge mutations, the steady serving case.
	// Unchanged tables are shared with the previous snapshot (immutable
	// once published); rootsDirty marks the exceptions.
	if prev != nil && !s.rootsDirty {
		snap.rootNode = prev.rootNode
		snap.defaults = prev.defaults
	} else {
		snap.rootNode = make(map[int]int, len(s.rootNode))
		snap.defaults = make(map[int]tn.Value, len(s.rootNode))
		for x, root := range s.rootNode {
			snap.rootNode[x] = root
			if v := s.net.Explicit(x); v != tn.NoValue {
				snap.defaults[x] = v
			}
		}
		s.rootsDirty = false
	}
	s.lastSnap = snap
	return snap
}

func viewOf(snap *epochSnap) *tn.View {
	if snap == nil {
		return nil
	}
	return snap.view
}

// sameBacking reports whether two equal-length non-empty int slices share
// their backing array (binIDs sharing is only safe along the same array:
// a rebuild allocates a fresh one).
func sameBacking(a, b []int) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// publishLocked folds pending mutations into the artifact and publishes a
// fresh epoch. A failed fold leaves the previous epoch serving and
// surfaces the error; the store stays marked for rebuild, so a later
// operation retries. No-op publications (nothing changed since the
// current epoch) are skipped.
func (s *Store) publishLocked() error {
	if err := s.flushLocked(); err != nil {
		s.pubStale.Store(true) // the epoch lags the writer state; readers retry
		return err
	}
	if prev := s.lastSnap; prev == nil || prev.version != s.net.Version() || prev.comp != s.comp {
		s.pub.PublishTagged(s.snapLocked(), s.LSN())
	}
	s.pubStale.Store(false)
	return nil
}

// rebase raises the epoch numbering to at least seq and publishes a
// fresh epoch at the new height. The durable store calls it once after
// recovery: replay may publish fewer epochs than the pre-crash run did
// (batching), and clients hold pre-crash epoch numbers as
// read-your-writes bounds, so the post-restart numbering must continue
// — never restart below — the pre-crash one.
func (s *Store) rebase(seq uint64) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.pub.Rebase(seq)
	s.pub.PublishTagged(s.snapLocked(), s.LSN())
}

// extraRootNames returns the names of the store's extra roots —
// declared via options or registered by object mentions — in
// registration order. The durable store persists them so a recovered
// plan has the same root set.
func (s *Store) extraRootNames() []string {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	names := make([]string, 0, len(s.extraRoots))
	for _, x := range s.extraRoots {
		names = append(names, s.net.Name(x))
	}
	return names
}

// refresh retries a failed publication: reads call it when pubStale says
// the current epoch lags the writer state.
func (s *Store) refresh() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.publishLocked()
}

// binID maps an original user ID to its binarized node.
func (s *Store) binID(x int) int {
	if x < len(s.binIDs) {
		return s.binIDs[x]
	}
	return x
}

// addTrustLocked adds truster -> trusted to the store's network and the
// twin. Unlike Network.AddTrust it rejects self-trust and duplicate
// mappings immediately instead of at the next validation. Callers hold
// wmu, as for every *Locked translator below.
func (s *Store) addTrustLocked(truster, trusted string, priority int) error {
	if truster == trusted {
		return fmt.Errorf("trustmap: user %q cannot trust itself", truster)
	}
	t := s.net.AddUser(truster)
	z := s.net.AddUser(trusted)
	for _, m := range s.net.In(t) {
		if m.Parent == z {
			return fmt.Errorf("trustmap: mapping %q -> %q already exists; use UpdateTrust", trusted, truster)
		}
	}
	// Pre-mutation shape of the truster decides translatability.
	pre := append([]tn.Mapping(nil), s.net.In(t)...)
	k := len(pre)
	s.net.AddMapping(z, t, priority)
	if s.needRebuild {
		return nil
	}
	s.ensureBinUser(truster, t)
	s.ensureBinUser(trusted, z)
	bt, bz := s.binID(t), s.binID(z)
	root, hasCarrier := s.rootNode[t]
	switch {
	case hasCarrier && root == bt:
		// A root gains its first parent: hoist the belief onto a helper
		// that outranks it, exactly as Binarize does.
		s.hoistBelief(t)
		s.bin.AddMapping(bz, bt, 1)
	case hasCarrier && k == 0:
		// A hoisted carrier is the sole binarized parent (the last real
		// parent was revoked earlier); it keeps outranking real parents.
		s.bin.AddMapping(bz, bt, 1)
	case !hasCarrier && k == 0:
		s.bin.AddMapping(bz, bt, 2)
	case !hasCarrier && k == 1:
		// Two parents now: re-derive the {1,2} (or tied {1,1}) encoding.
		z0, p0 := pre[0].Parent, pre[0].Priority
		bz0 := s.binID(z0)
		switch {
		case p0 == priority:
			s.bin.SetMappingPriority(bz0, bt, 1)
			s.bin.AddMapping(bz, bt, 1)
		case p0 > priority:
			s.bin.AddMapping(bz, bt, 1)
		default:
			s.bin.SetMappingPriority(bz0, bt, 1)
			s.bin.AddMapping(bz, bt, 2)
		}
	default:
		// Three or more binarized parents: cascade territory.
		s.needRebuild = true
	}
	return nil
}

// removeTrustLocked revokes truster -> trusted and reports whether the
// mapping existed.
func (s *Store) removeTrustLocked(truster, trusted string) bool {
	t, z := s.net.UserID(truster), s.net.UserID(trusted)
	if t < 0 || z < 0 {
		return false
	}
	pre := append([]tn.Mapping(nil), s.net.In(t)...)
	k := len(pre)
	if !s.net.RemoveMapping(z, t) {
		return false
	}
	if s.needRebuild {
		return true
	}
	bt := s.binID(t)
	hoisted := 0
	if root, ok := s.rootNode[t]; ok && root != bt {
		hoisted = 1 // a helper carries the belief above the real parents
	}
	if k+hoisted > 2 {
		s.needRebuild = true // the binarization had a cascade
		return true
	}
	s.bin.RemoveMapping(s.binID(z), bt)
	// A surviving sole real parent becomes the preferred edge (priority 2),
	// the encoding Binarize emits for single-parent nodes. With a hoisted
	// belief the helper already holds priority 2 and survivors stay at 1.
	if hoisted == 0 && k == 2 {
		for _, m := range pre {
			if m.Parent != z {
				s.bin.SetMappingPriority(s.binID(m.Parent), bt, 2)
			}
		}
	}
	return true
}

// updateTrustLocked re-prioritizes truster -> trusted and reports whether
// the mapping existed.
func (s *Store) updateTrustLocked(truster, trusted string, priority int) bool {
	t, z := s.net.UserID(truster), s.net.UserID(trusted)
	if t < 0 || z < 0 {
		return false
	}
	k := len(s.net.In(t))
	if !s.net.SetMappingPriority(z, t, priority) {
		return false
	}
	if s.needRebuild {
		return true
	}
	bt := s.binID(t)
	hoisted := 0
	if root, ok := s.rootNode[t]; ok && root != bt {
		hoisted = 1
	}
	switch {
	case k+hoisted > 2:
		s.needRebuild = true // priorities are encoded in the cascade shape
	case hoisted == 0 && k == 2:
		// Re-derive the two binarized priorities from the new order.
		post := s.net.In(t)
		if post[0].Priority == post[1].Priority {
			s.bin.SetMappingPriority(s.binID(post[0].Parent), bt, 1)
			s.bin.SetMappingPriority(s.binID(post[1].Parent), bt, 1)
		} else {
			s.bin.SetMappingPriority(s.binID(post[0].Parent), bt, 2)
			s.bin.SetMappingPriority(s.binID(post[1].Parent), bt, 1)
		}
		// Else: a sole real parent (with or without a hoisted belief above
		// it) keeps its binarized priority; nothing to do.
	}
	return true
}

// setBeliefLocked states user's network-level belief. A value update on
// an existing belief is free for the plan: the resolution plan is
// belief-value-independent, so the next epoch shares the compiled
// artifact and only swaps the defaults.
func (s *Store) setBeliefLocked(user, value string) error {
	if value == "" {
		return fmt.Errorf("trustmap: empty value; use RemoveBelief to revoke")
	}
	x := s.net.AddUser(user)
	k := len(s.net.In(x))
	s.net.SetExplicit(x, tn.Value(value))
	s.rootsDirty = true
	if s.needRebuild {
		return nil
	}
	s.ensureBinUser(user, x)
	switch root, hasCarrier := s.rootNode[x]; {
	case hasCarrier:
		// The belief carrier exists already — x itself, its hoisted helper,
		// or an ExtraRoots placeholder. The engine sees a pure value update
		// and keeps the whole plan.
		s.bin.SetExplicit(root, tn.Value(value))
	case k == 0:
		bx := s.binID(x)
		s.bin.SetExplicit(bx, tn.Value(value))
		s.rootNode[x] = bx
	case k == 1:
		s.hoistBelief(x)
	default:
		s.needRebuild = true // three binarized parents: cascade
	}
	return nil
}

// removeBeliefLocked revokes user's network-level belief and reports
// whether there was one (revoking an absent belief is a no-op).
func (s *Store) removeBeliefLocked(user string) bool {
	x := s.net.UserID(user)
	if x < 0 || !s.net.HasExplicit(x) {
		return false
	}
	k := len(s.net.In(x))
	s.net.SetExplicit(x, tn.NoValue)
	s.rootsDirty = true
	if s.needRebuild {
		return true
	}
	if s.isExtraRoot(x) {
		// The user stays a root for per-object beliefs; only the
		// network-level default disappears. The binarized belief carrier
		// keeps a placeholder, exactly as a fresh rebuild would seed it.
		s.bin.SetExplicit(s.rootNode[x], "seed")
		return true
	}
	bx := s.binID(x)
	switch {
	case k == 0:
		s.bin.SetExplicit(bx, tn.NoValue)
		delete(s.rootNode, x)
	case k == 1:
		// Drop the hoisted helper; the sole real parent becomes preferred.
		helper := s.rootNode[x]
		s.bin.SetExplicit(helper, tn.NoValue)
		s.bin.RemoveMapping(helper, bx)
		for _, m := range s.bin.In(bx) {
			s.bin.SetMappingPriority(m.Parent, bx, 2)
		}
		delete(s.rootNode, x)
	default:
		s.needRebuild = true // cascade shape changes
	}
	return true
}

// hoistBelief moves x's explicit belief onto a fresh helper root wired
// above x's existing sole parent, mirroring Binarize's step 1: the helper
// takes priority 2 and the real parent priority 1.
func (s *Store) hoistBelief(x int) {
	bx := s.binID(x)
	v := s.net.Explicit(x)
	if v == tn.NoValue {
		v = "seed"
	}
	s.bin.SetExplicit(bx, tn.NoValue) // the helper carries it from now on
	for _, m := range s.bin.In(bx) {
		s.bin.SetMappingPriority(m.Parent, bx, 1)
	}
	helper := s.bin.AddUser(s.net.Name(x) + "#b0")
	s.bin.SetExplicit(helper, v)
	s.bin.AddMapping(helper, bx, 2)
	s.rootNode[x] = helper
	s.rootsDirty = true
}

// ensureBinUser registers a user created after compilation in the
// binarized twin. Original and binarized IDs diverge from here on; binIDs
// carries the mapping.
func (s *Store) ensureBinUser(name string, x int) {
	for len(s.binIDs) <= x {
		s.binIDs = append(s.binIDs, -1)
	}
	if s.binIDs[x] < 0 {
		s.binIDs[x] = s.bin.AddUser(name)
	}
}

func (s *Store) isExtraRoot(x int) bool {
	_, ok := s.extraSet[x]
	return ok
}

// addExtraRootLocked records x as an extra root (idempotent). Callers
// hold wmu (or, in newStore, exclusive ownership).
func (s *Store) addExtraRootLocked(x int) {
	if _, ok := s.extraSet[x]; ok {
		return
	}
	s.extraSet[x] = struct{}{}
	s.extraRoots = append(s.extraRoots, x)
}

// flushLocked folds pending binarized mutations into the compiled
// artifact — rebuilding from scratch when a structural mutation demands
// it. Callers hold wmu.
func (s *Store) flushLocked() error {
	if s.needRebuild {
		return s.rebuild()
	}
	muts := s.bin.DrainJournal()
	if len(muts) == 0 {
		return nil
	}
	next, st, err := s.comp.Apply(muts, engine.ApplyOptions{MaxDirtyFraction: s.maxDirty})
	if err != nil {
		// The translation produced something the engine will not splice;
		// recover with a rebuild rather than failing the publication.
		return s.rebuild()
	}
	s.stats.LastApply = st
	switch {
	case st.FullRecompile:
		s.stats.FullRecompiles++
	case next == s.comp:
		s.stats.ValueOnlyUpdates++
	default:
		s.stats.IncrementalApplies++
	}
	s.comp = next
	return nil
}

// snapshot pins the epoch a read should serve from. An in-flight store
// write's publication is coming, so the current epoch stays correct to
// serve and the read never touches the writer lock. Only after a failed
// publication does the read upgrade to a writer and retry it first, so
// the failure surfaces instead of stale serving.
func (s *Store) snapshot() (*serve.Epoch[*epochSnap], error) {
	if s.pubStale.Load() {
		if err := s.refresh(); err != nil {
			return nil, err
		}
	}
	return s.pub.Acquire(), nil
}

// resolveSnap resolves objects against one pinned epoch: the body shared
// by the ad-hoc reads and the cached and streaming read paths (which pin
// one epoch across several batches). Each object maps root users to
// their per-object beliefs; roots missing from an object default to the
// network-level belief, and default-less roots must appear in every
// object (assumption ii). The returned resolution stays valid after the
// epoch is superseded.
func (s *Store) resolveSnap(ctx context.Context, e *serve.Epoch[*epochSnap], objects map[string]map[string]string) (*bulkResolution, error) {
	snap := e.Value()
	conv := make(map[string]map[int]tn.Value, len(objects))
	for key, bs := range objects {
		m := make(map[int]tn.Value, len(snap.rootNode))
		for user, v := range bs {
			x := snap.view.UserID(user)
			if x < 0 {
				return nil, fmt.Errorf("%w: %q in object %q", ErrUnknownUser, user, key)
			}
			root, ok := snap.rootNode[x]
			if !ok {
				return nil, fmt.Errorf("trustmap: user %q in object %q is not a root; declare it with WithExtraRoots or give it a belief", user, key)
			}
			m[root] = tn.Value(v)
		}
		for x, root := range snap.rootNode {
			if _, ok := m[root]; ok {
				continue
			}
			if v, ok := snap.defaults[x]; ok {
				m[root] = v
			} else {
				return nil, fmt.Errorf("trustmap: object %q misses a belief for root user %q (assumption ii)", key, snap.view.Name(x))
			}
		}
		conv[key] = m
	}
	res, err := snap.comp.Resolve(ctx, conv, engine.Options{Workers: s.workers})
	if err != nil {
		return nil, err
	}
	return &bulkResolution{src: snap.view, eng: res, binIDs: snap.binIDs, epoch: e.Seq()}, nil
}

// addObjectRoots registers users whose beliefs will vary per object after
// compilation, like WithExtraRoots but on a live store: the PutBelief /
// PutObject path. Users that are already roots (declared
// extras or belief holders) only gain the extra-root protection — their
// carrier survives a later RemoveBelief — without a replan; genuinely new
// roots change the plan and publish a rebuilt epoch. It reports the names
// that were not extra roots before the call, in argument order, so
// Store.AddRoots can log exactly the effective registrations.
func (s *Store) addObjectRoots(names ...string) (added []string, err error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	for _, name := range names {
		x := s.net.AddUser(name)
		if s.isExtraRoot(x) {
			continue
		}
		s.addExtraRootLocked(x)
		added = append(added, name)
		if _, isRoot := s.rootNode[x]; !isRoot {
			s.needRebuild = true // the plan gains a root: replan required
		}
	}
	if s.needRebuild {
		return added, s.publishLocked()
	}
	return added, nil
}
