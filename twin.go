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
// which it keeps current one user at a time: after each network
// mutation, reencode re-derives the touched user's binarized in-edges
// and belief carrier by tn.Binarize's rule and applies only the
// difference. Mutations that would restructure a Binarize cascade (a
// user with more than two binarized parents) or add a root to the plan
// mark the store for a full rebuild, which the next publication performs
// transparently.
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
	"slices"
	"sync"

	"trustmap/internal/engine"
	"trustmap/internal/serve"
	"trustmap/internal/tn"
	"trustmap/wire"
)

// SessionStats counts what the store's plan maintenance has done, as of
// the epoch the stats were read from: the session section of /v1/stats.
type SessionStats = wire.SessionStats

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
// on the first EpochStats call — off the publish hot path. Only the
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

// seedBelief is the placeholder belief on the carrier of an extra root
// without a default belief: it keeps the user a root of the plan, and
// every object supplies the user's real belief.
const seedBelief tn.Value = "seed"

// rebuild re-binarizes and recompiles from scratch: the fallback for
// the mutations reencode does not patch.
// Callers hold wmu (or, in newStore, exclusive ownership).
func (s *Store) rebuild() error {
	if err := s.net.Validate(); err != nil {
		return err
	}
	shape := s.net.Clone()
	for _, x := range s.extraRoots {
		if !shape.HasExplicit(x) {
			shape.SetExplicit(x, seedBelief)
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
			s.rootNode[x] = tn.Carrier(bin, x)
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

// binID maps an original user ID of the snapshot's view into its
// compiled (binarized) network: identity past the end of binIDs.
func (snap *epochSnap) binID(id int) int {
	if id >= len(snap.binIDs) {
		return id
	}
	return snap.binIDs[id]
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
		s.pub.Publish(s.snapLocked())
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
	s.pub.Publish(s.snapLocked())
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

// reencode brings user x's binarized encoding in line with x's network
// parents and belief after a mutation of either, applying only the
// difference to the twin so that engine.Apply sees exactly what changed.
// The encoding is tn.Binarize's. x's belief (or, on an extra root
// without one, the seedBelief placeholder) sits on x itself while x has
// no parents; otherwise on the helper tn.CarrierName names, which
// outranks every real parent — and, once hoisted, keeps carrying the
// belief after the real parents are gone. A revoked belief takes its
// carrier's value and mapping with it. x's in-edges then get the
// tn.EncodeParents priorities of its real parents plus the helper.
//
// More than two encoded parents, before or after the change, make a
// Binarize cascade, which is rebuilt rather than patched; only a
// value-only change to a cascaded user's carrier is folded in. pre is
// x's network in-degree before the change, and edges says whether the
// change was to x's in-edges (a trust op) rather than to its belief.
// Callers hold wmu and have already applied the change to s.net.
func (s *Store) reencode(x, pre int, edges bool) {
	if !edges {
		s.rootsDirty = true // the default belief changed
	}
	if s.needRebuild {
		return
	}
	bx := s.binNode(x)
	in := s.net.In(x)
	old, had := s.rootNode[x]
	if !had {
		old = -1
	}
	hoisted := old >= 0 && old != bx
	v := s.net.Explicit(x)
	if v == tn.NoValue && s.isExtraRoot(x) {
		v = seedBelief
	}
	hoist := v != tn.NoValue && (hoisted || len(in) > 0)
	before, after := pre, len(in)
	if hoisted {
		before++
	}
	if hoist {
		after++
	}
	if before > 2 || after > 2 {
		if edges || hoist != hoisted {
			s.needRebuild = true
		} else if old >= 0 {
			s.bin.SetExplicit(old, v) // the carrier stays; the plan does too
		}
		return
	}

	carrier := -1 // no belief, no carrier
	switch {
	case hoisted && hoist:
		carrier = old
	case hoist:
		carrier = s.bin.AddUser(tn.CarrierName(s.net.Name(x)))
	case v != tn.NoValue:
		carrier = bx
	}
	if old != carrier {
		if old >= 0 {
			s.bin.SetExplicit(old, tn.NoValue)
		}
		s.rootsDirty = true
	}
	if carrier >= 0 {
		s.bin.SetExplicit(carrier, v)
		s.rootNode[x] = carrier
	} else {
		delete(s.rootNode, x)
	}

	want := make([]tn.Mapping, 0, 2)
	for _, m := range in {
		want = append(want, tn.Mapping{Parent: s.binNode(m.Parent), Child: bx, Priority: m.Priority})
	}
	if hoist {
		top := 0
		if len(in) > 0 {
			top = in[0].Priority
		}
		want = append(want, tn.Mapping{Parent: carrier, Child: bx, Priority: top + 1})
	}
	tn.EncodeParents(want)
	for _, m := range slices.Clone(s.bin.In(bx)) {
		if !slices.ContainsFunc(want, func(w tn.Mapping) bool { return w.Parent == m.Parent }) {
			s.bin.RemoveMapping(m.Parent, bx)
		}
	}
	for _, w := range want {
		if !s.bin.SetMappingPriority(w.Parent, bx, w.Priority) {
			s.bin.AddMapping(w.Parent, bx, w.Priority)
		}
	}
}

// binNode returns x's node in the binarized twin, first registering a
// user created after compilation. Original and binarized IDs diverge
// from then on; binIDs carries the mapping.
func (s *Store) binNode(x int) int {
	for len(s.binIDs) <= x {
		s.binIDs = append(s.binIDs, -1)
	}
	if s.binIDs[x] < 0 {
		s.binIDs[x] = s.bin.AddUser(s.net.Name(x))
	}
	return s.binIDs[x]
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
		// The re-encoding produced something the engine will not splice;
		// recover with a rebuild rather than failing the publication.
		return s.rebuild()
	}
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

// resolveSnap resolves objects against one pinned epoch's snapshot: the
// body shared by the ad-hoc reads and the stored and streaming read paths
// (which pin one epoch across several batches). Each object maps root
// users to their per-object beliefs; roots missing from an object default
// to the network-level belief, and default-less roots must appear in
// every object (assumption ii). The returned result stays valid after
// the epoch is superseded.
func (s *Store) resolveSnap(ctx context.Context, snap *epochSnap, objects map[string]map[string]string) (*engine.BulkResult, error) {
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
	return snap.comp.Resolve(ctx, conv, engine.Options{Workers: s.workers})
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
