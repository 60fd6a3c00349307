package engine

// Incremental engine maintenance. A compiled artifact is expensive to
// build and cheap to query; a live community database mutates its trust
// network constantly. Apply keeps the artifact current without paying for
// a full recompile: it consumes the mutation journal of the underlying
// tn.Network, derives the dirty region, and recompiles only that.
//
// The dirty region is the forward closure of the touched nodes — children
// of added/removed/re-prioritized mappings plus users whose belief was
// granted or revoked — over the post-mutation graph. That closure is
// exactly the set of nodes whose compiled state can differ:
//
//   - reachability can only change downstream of a touched node;
//   - a node's effective preferred parent changes only when one of its
//     in-edges is touched or a parent's reachability flips, and in both
//     cases the node is downstream of a touched node;
//   - an SCC merges only along a cycle through an added edge, and every
//     node of that cycle is forward-reachable from the edge's child; an
//     SCC splits only inside a component containing a removed edge, and
//     every member is forward-reachable from that edge's child through the
//     rest of the old cycle structure (take the path suffix after the last
//     removed edge: it starts at a touched child and survives in the new
//     graph).
//
// Because the region is a forward closure it is downstream-closed, so the
// plan splice is order-trivial: every surviving component's steps keep
// their inputs, and the recomputed components form a new block of ids
// planned after all of them. Supports recompute the same way — clean
// nodes keep their bitsets (root slots are stable across generations,
// revoked roots leave tombstones), dirty nodes replay just the new steps
// against the persistent dedup table.
//
// An Apply costs what its region dirties. The successor shares the
// base's per-node and per-component pages (cow.go) and copies only the
// pages the region writes, plus their page directories; it appends to
// the support table and its CSR view in place; it walks the region as an
// ascending list on scratch the lineage hands down (lineage); and the
// flat node -> support view of the resolve path is derived on the
// successor's first read, not by Apply.
//
// Apply returns a successor artifact sharing everything clean with its
// base; results resolved against the base stay valid. The base is consumed:
// it can no longer be Apply'd (but value-only updates return the base
// itself, since the plan is belief-value-independent). When the dirty
// region exceeds MaxDirtyFraction of the network, Apply falls back to a
// full Compile — at that size the closure bookkeeping stops paying for
// itself — carrying the value dictionary over.

import (
	"fmt"
	"slices"

	"trustmap/internal/tn"
)

// ApplyOptions tunes incremental maintenance.
type ApplyOptions struct {
	// MaxDirtyFraction is the dirty-region share of the network above which
	// Apply recompiles from scratch instead of splicing. Zero means the
	// default of 0.25; values >= 1 never fall back.
	MaxDirtyFraction float64
}

// ApplyStats reports what one Apply did.
type ApplyStats struct {
	Seeds         int  // touched nodes
	DirtyNodes    int  // nodes in the recompiled region
	ReusedSteps   int  // plan steps kept from the base artifact
	NewSteps      int  // plan steps recomputed
	NewComps      int  // condensation components recomputed
	DeadComps     int  // base components invalidated
	FullRecompile bool // fell back to Compile (threshold exceeded)
}

// Apply folds the journaled mutations into the compiled artifact and
// returns the successor. muts must be the complete, ordered journal of the
// underlying network since this artifact was compiled (or since the last
// Apply): typically net.DrainJournal(). The base artifact is consumed —
// a second Apply on it fails — but results previously resolved against it
// remain valid, as does Resolve on it for callers racing a generation
// behind. Mutations that only change belief values (never the set of users
// holding beliefs) do not touch the plan; Apply then returns the base
// itself, unconsumed.
func (c *CompiledNetwork) Apply(muts []tn.Mutation, opts ApplyOptions) (*CompiledNetwork, ApplyStats, error) {
	var st ApplyStats
	if c.consumed {
		return nil, st, fmt.Errorf("engine: artifact already superseded by a previous Apply")
	}
	nuNew := c.net.NumUsers()
	ls := c.ls
	ls.grow(nuNew)

	// Pass 1: derive the seed set. Structural seeds are children of mapping
	// mutations and users whose belief appeared or disappeared; pure value
	// updates are free (the plan never looks at values). The dirty region
	// grows from the seeds in ls.list; every exit clears its marks.
	list := ls.list[:0]
	defer func() {
		for _, x := range list {
			ls.dirty[x] = false
		}
		ls.list = list[:0]
	}()
	for _, m := range muts {
		x := -1
		switch m.Kind {
		case tn.MutAddMapping, tn.MutRemoveMapping, tn.MutSetPriority:
			x = m.Child
		case tn.MutSetExplicit:
			if (m.OldValue == tn.NoValue) != (m.Value == tn.NoValue) {
				x = m.User
			}
		}
		if x >= 0 && !ls.dirty[x] {
			ls.dirty[x] = true
			list = append(list, x)
		}
	}
	if len(list) == 0 {
		c.g.Grow(nuNew) // journal may still have grown the user set
		if nuNew == c.nodes.len() {
			return c, st, nil // pure value updates: the plan is untouched
		}
		// Only users were added (no edges, no beliefs): everything compiled
		// stays valid, but the per-node tables must cover the new IDs.
		// Build a grown successor sharing all compiled state.
		c.ensureSupports()
		c.consumed = true
		n := &CompiledNetwork{
			net:        c.net,
			g:          c.g,
			ls:         ls,
			rootSlots:  c.rootSlots,
			rootPos:    c.rootPos,
			nodes:      c.nodes.next(),
			comps:      c.comps,
			deadComps:  c.deadComps,
			nsteps:     c.nsteps,
			steps:      c.steps,
			supports:   c.supports,
			supportIDs: c.supportIDs,
			nodeSup:    c.nodeSup.next(),
			supOff:     c.supOff,
			supRoots:   c.supRoots,
			dict:       c.dict,
			pool:       c.pool,
		}
		n.nodes.grow(nuNew)
		n.nodeSup.grow(nuNew)
		n.supportsOnce.Do(func() {})
		return n, st, nil
	}
	st.Seeds = len(list)
	c.ensureSupports()
	c.consumed = true

	// Pass 2: replay the structural mutations into the owned adjacency.
	c.g.Grow(nuNew)
	for _, m := range muts {
		switch m.Kind {
		case tn.MutAddMapping:
			c.g.AddEdge(m.Parent, m.Child)
		case tn.MutRemoveMapping:
			if !c.g.RemoveEdge(m.Parent, m.Child) {
				return nil, st, fmt.Errorf("engine: journal removes unknown mapping %d -> %d", m.Parent, m.Child)
			}
		}
	}

	// The touched nodes are where a binary-network violation can appear;
	// everything else kept its incoming shape and belief/root status.
	for _, x := range list {
		if len(c.net.In(x)) > 2 {
			return nil, st, fmt.Errorf("engine: node %s has more than two incoming mappings after mutation; re-binarize", c.net.Name(x))
		}
		if c.net.HasExplicit(x) && len(c.net.In(x)) > 0 {
			return nil, st, fmt.Errorf("engine: node %s holds an explicit belief and incoming mappings after mutation; re-binarize", c.net.Name(x))
		}
	}

	// Dirty region: forward closure of the seeds over the new graph,
	// walked from here on as an ascending list.
	for head := 0; head < len(list); head++ {
		for _, y := range c.g.Out(list[head]) {
			if !ls.dirty[y] {
				ls.dirty[y] = true
				list = append(list, y)
			}
		}
	}
	slices.Sort(list)
	for i, x := range list {
		ls.pos[x] = int32(i)
	}
	st.DirtyNodes = len(list)

	frac := opts.MaxDirtyFraction
	if frac == 0 {
		frac = 0.25
	}
	if float64(len(list)) > frac*float64(nuNew) {
		st.FullRecompile = true
		full, err := Compile(c.net)
		if err != nil {
			return nil, st, err
		}
		full.dict = c.dict // keep the interning and arena steady state
		full.pool = c.pool
		return full, st, nil
	}

	// Successor artifact: it shares every page of the per-node and
	// per-component tables its dirty region does not write (cow.go), the
	// support table, which it only appends to, and the lineage. Of the flat
	// tables the resolve path reads, the root tables are copied only when a
	// belief is granted or revoked, and nodeSupport is derived from the
	// pages on first use (ensureFlat).
	n := &CompiledNetwork{
		net:        c.net,
		g:          c.g, // ownership transfers with consumption
		ls:         ls,
		rootSlots:  c.rootSlots,
		rootPos:    c.rootPos,
		nodes:      c.nodes.next(),
		comps:      c.comps.next(),
		deadComps:  c.deadComps,
		nsteps:     c.nsteps,
		supports:   c.supports,
		supportIDs: c.supportIDs,
		nodeSup:    c.nodeSup.next(),
		supOff:     c.supOff,
		supRoots:   c.supRoots,
		dict:       c.dict,
		pool:       c.pool,
	}
	n.supportsOnce.Do(func() {}) // supports are spliced below, not rebuilt
	n.nodes.grow(nuNew)
	n.nodeSup.grow(nuNew)

	// Root slots: replay belief grants/revocations in journal order. Slots
	// are append-only so clean bitsets keep their meaning; a revoked root
	// leaves a tombstone no live support references (its downstream is
	// dirty by construction).
	copied := false
	for _, m := range muts {
		if m.Kind != tn.MutSetExplicit {
			continue
		}
		granted := m.OldValue == tn.NoValue && m.Value != tn.NoValue
		revoked := m.OldValue != tn.NoValue && m.Value == tn.NoValue
		if !granted && !revoked {
			continue
		}
		if !copied {
			n.rootSlots = slices.Clone(c.rootSlots)
			n.rootPos = grown(c.rootPos, nuNew, -1)
			copied = true
		}
		switch {
		case granted && n.rootPos[m.User] < 0:
			n.rootPos[m.User] = int32(len(n.rootSlots))
			n.rootSlots = append(n.rootSlots, m.User)
		case revoked && n.rootPos[m.User] >= 0:
			n.rootSlots[n.rootPos[m.User]] = -1
			n.rootPos[m.User] = -1
		}
	}

	// Old components containing a dirty node die (the closure argument
	// above guarantees they are entirely dirty), and the dirty nodes start
	// over unreachable.
	for _, x := range list {
		s := n.nodes.ref(x)
		if cv := int(s.comp); cv >= 0 && n.comps.at(cv).members != nil {
			dead := n.comps.ref(cv)
			n.nsteps -= len(dead.steps)
			dead.members, dead.steps = nil, nil
			st.DeadComps++
		}
		*s = nodeState{comp: -1, pref: -1}
	}
	n.deadComps += st.DeadComps
	st.ReusedSteps = n.nsteps

	// Reachability inside the dirty region: seeded by dirty roots and by
	// edges from clean reachable parents (clean reachability is unchanged),
	// then propagated forward within the region.
	queue := ls.queue[:0]
	for _, x := range list {
		if c.net.HasExplicit(x) || slices.ContainsFunc(c.net.In(x), func(m tn.Mapping) bool {
			return !ls.dirty[m.Parent] && n.nodes.at(m.Parent).reach
		}) {
			n.nodes.ref(x).reach = true
			queue = append(queue, x)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, y := range n.g.Out(queue[head]) {
			if ls.dirty[y] && !n.nodes.at(y).reach {
				n.nodes.ref(y).reach = true
				queue = append(queue, y)
			}
		}
	}
	ls.queue = queue[:0]

	// Preferred parents (parents' reachability and touched in-edges are
	// settled now) and the condensation of the dirty region: fresh
	// components take the next block of ids, and descending local SCC ids
	// are a topological order among them.
	region := ls.region[:0]
	for _, x := range list {
		n.nodes.ref(x).pref = n.preferredOf(x)
		if n.nodes.at(x).reach {
			region = append(region, x)
		}
	}
	ls.region = region
	nsub := n.g.SCCOf(region, func(v int) bool { return ls.dirty[v] && n.nodes.at(v).reach }, &ls.scc)
	st.NewComps = nsub
	base := n.comps.len()
	open := ls.openIDs[:0]
	for _, x := range region {
		n.nodes.ref(x).comp = int32(base + ls.scc.Comp(x))
		if !c.net.HasExplicit(x) {
			open = append(open, x)
		}
	}
	ls.openIDs = open
	n.addComps(region, nsub, func(x int) int { return int(n.nodes.at(x).comp) - base })

	// Plan splice: the surviving components keep their runs (their
	// inputs are clean: the region is downstream-closed), and only the
	// fresh block is planned.
	steps, ranges := n.planInto(base, base+nsub, open, ls.ranges[:0])
	ls.ranges = ranges[:0]
	n.setRuns(steps, ranges)
	st.NewSteps = len(steps)
	n.maybeCompactComps()

	// Support splice: replay only the new steps. Sources are clean nodes
	// (their interned support) or earlier dirty nodes; dirty roots seed
	// fresh singletons at the current slot width.
	words := (len(n.rootSlots) + 63) / 64
	local := ls.local[:0]
	for _, x := range list {
		var b bitset
		if x < len(n.rootPos) && n.rootPos[x] >= 0 {
			b = newBitset(words)
			b.set(int(n.rootPos[x]))
		}
		local = append(local, b)
	}
	supOf := func(z int) bitset {
		if ls.dirty[z] {
			return local[ls.pos[z]]
		}
		if id := n.nodeSup.at(z); id >= 0 {
			return n.supports[id]
		}
		return nil
	}
	for _, s := range steps {
		switch s.Kind {
		case StepCopy:
			b := supOf(s.Source)
			if b == nil {
				b = newBitset(words)
			}
			local[ls.pos[s.Target]] = b
		case StepFlood:
			u := newBitset(words)
			for _, z := range s.Sources {
				u.or(supOf(z))
			}
			for _, x := range s.Members {
				local[ls.pos[x]] = u
			}
		}
	}
	oldSupports := len(n.supports)
	for i, x := range list {
		id := int32(-1)
		if b := local[i]; n.nodes.at(x).reach && b != nil && !b.empty() {
			id = n.internSupport(b)
		}
		n.setSupport(x, id)
	}
	clear(local)
	ls.local = local[:0]
	if !n.maybeCompactSupports() {
		n.appendSupportRuns(oldSupports)
	}
	return n, st, nil
}

// maybeCompactComps renumbers the live components once more than half
// of the ids issued are dead: ids are never reused, so a long lineage
// would otherwise grow the component table with every Apply. The live
// components become one block, numbered so that the plan visits them in
// the order it did.
func (n *CompiledNetwork) maybeCompactComps() {
	if n.comps.len() < 64 || 2*n.deadComps <= n.comps.len() {
		return
	}
	live := n.comps.len() - n.deadComps
	comps := newCow(live, component{})
	id := live
	n.eachComp(func(old int) {
		id--
		comp := n.comps.at(old)
		comp.block = int32(live)
		*comps.ref(id) = comp
		for _, x := range comp.members {
			n.nodes.ref(x).comp = int32(id)
		}
	})
	n.comps, n.deadComps = comps, 0
}

// setSupport points node x at support id (-1: none), keeping the
// lineage's reference counts.
func (n *CompiledNetwork) setSupport(x int, id int32) {
	ls := n.ls
	if old := n.nodeSup.at(x); old >= 0 {
		if ls.supRefs[old]--; ls.supRefs[old] == 0 {
			ls.liveSupports--
		}
	}
	if id >= 0 {
		if ls.supRefs[id] == 0 {
			ls.liveSupports++
		}
		ls.supRefs[id]++
	}
	*n.nodeSup.ref(x) = id
}

// maybeCompactSupports rebuilds the support table when repeated Applies
// have left it more than half garbage: supports no longer referenced by
// any node would otherwise be gathered on every resolved object forever.
// It reports whether it rebuilt the table (and its CSR view).
func (n *CompiledNetwork) maybeCompactSupports() bool {
	ls := n.ls
	if len(n.supports) < 64 || 2*ls.liveSupports > len(n.supports) {
		return false
	}
	remap := make([]int32, len(n.supports))
	supports := make([]bitset, 0, ls.liveSupports)
	ids := make(map[string]int32, ls.liveSupports)
	for old, b := range n.supports {
		if ls.supRefs[old] == 0 {
			remap[old] = -1
			continue
		}
		id := int32(len(supports))
		supports = append(supports, b)
		ids[b.key()] = id
		remap[old] = id
	}
	for x := 0; x < n.nodeSup.len(); x++ {
		if id := n.nodeSup.at(x); id >= 0 {
			*n.nodeSup.ref(x) = remap[id]
		}
	}
	n.supports = supports
	n.supportIDs = ids
	n.countSupportRefs()
	n.flattenSupports()
	return true
}
