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
//   - a node's effective incoming table changes only when one of its
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
// plan splice is order-trivial: every surviving step's inputs are clean,
// and all recomputed steps append after them. Supports recompute the same
// way — clean nodes keep their bitsets (root slots are stable across
// generations, revoked roots leave tombstones), dirty nodes replay just
// the appended steps against the persistent dedup table.
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

	"trustmap/internal/graph"
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

	// Pass 1: derive the seed set. Structural seeds are children of mapping
	// mutations and users whose belief appeared or disappeared; pure value
	// updates are free (the plan never looks at values).
	seeds := make(map[int]bool)
	for _, m := range muts {
		switch m.Kind {
		case tn.MutAddMapping, tn.MutRemoveMapping, tn.MutSetPriority:
			seeds[m.Child] = true
		case tn.MutSetExplicit:
			if (m.OldValue == tn.NoValue) != (m.Value == tn.NoValue) {
				seeds[m.User] = true
			}
		}
	}
	if len(seeds) == 0 {
		c.g.Grow(nuNew) // journal may still have grown the user set
		if nuNew == len(c.reach) {
			return c, st, nil // pure value updates: the plan is untouched
		}
		// Only users were added (no edges, no beliefs): everything compiled
		// stays valid, but the per-node tables must cover the new IDs.
		// Build a grown successor sharing all compiled state.
		c.ensureSupports()
		c.consumed = true
		n := &CompiledNetwork{
			net:         c.net,
			g:           c.g,
			reach:       growCopy(c.reach, nuNew),
			rootSlots:   append([]int(nil), c.rootSlots...),
			rootPos:     growCopyI32(c.rootPos, nuNew),
			in:          c.in.grow(nuNew),
			comp:        growCopyInt(c.comp, nuNew, -1),
			ncomp:       c.ncomp,
			deadComps:   c.deadComps,
			sccMembers:  c.sccMembers,
			sccOrder:    c.sccOrder,
			steps:       c.steps,
			supports:    c.supports,
			supportIDs:  c.supportIDs,
			nodeSupport: growCopyI32(c.nodeSupport, nuNew),
			supOff:      c.supOff,
			supRoots:    c.supRoots,
			dict:        c.dict,
			pool:        c.pool,
			// Supports and root slots are untouched, so every cached
			// signature result stays valid: carry the cache over.
			sigs: c.sigs,
		}
		n.supportsOnce.Do(func() {})
		return n, st, nil
	}
	st.Seeds = len(seeds)
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
	for x := range seeds {
		if len(c.net.In(x)) > 2 {
			return nil, st, fmt.Errorf("engine: node %s has more than two incoming mappings after mutation; re-binarize", c.net.Name(x))
		}
		if c.net.HasExplicit(x) && len(c.net.In(x)) > 0 {
			return nil, st, fmt.Errorf("engine: node %s holds an explicit belief and incoming mappings after mutation; re-binarize", c.net.Name(x))
		}
	}

	// Dirty region: forward closure of the seeds over the new graph.
	dirty := make([]bool, nuNew)
	queue := make([]int, 0, len(seeds))
	for x := range seeds {
		dirty[x] = true
		queue = append(queue, x)
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range c.g.Out(x) {
			if !dirty[y] {
				dirty[y] = true
				queue = append(queue, y)
			}
		}
	}
	nDirty := 0
	for _, d := range dirty {
		if d {
			nDirty++
		}
	}
	st.DirtyNodes = nDirty

	frac := opts.MaxDirtyFraction
	if frac == 0 {
		frac = 0.25
	}
	if float64(nDirty) > frac*float64(nuNew) {
		st.FullRecompile = true
		full, err := Compile(c.net)
		if err != nil {
			return nil, st, err
		}
		full.dict = c.dict // keep the interning and arena steady state
		full.pool = c.pool
		return full, st, nil
	}

	// Successor artifact: copy-on-write of the per-node tables. The copies
	// are plain O(U+E) memmoves — the expensive parts (bitsets, member
	// slices) are shared with the base for clean nodes, and the incoming
	// CSR is respliced flat (the row arrays of a binary network are at most
	// twice the node count, so this is the same order as the other copies).
	n := &CompiledNetwork{
		net:         c.net,
		g:           c.g, // ownership transfers with consumption
		reach:       growCopy(c.reach, nuNew),
		rootSlots:   append([]int(nil), c.rootSlots...),
		rootPos:     growCopyI32(c.rootPos, nuNew),
		comp:        growCopyInt(c.comp, nuNew, -1),
		ncomp:       c.ncomp,
		deadComps:   c.deadComps,
		sccMembers:  append([][]int(nil), c.sccMembers...),
		supports:    c.supports,
		supportIDs:  c.supportIDs,
		nodeSupport: growCopyI32(c.nodeSupport, nuNew),
		dict:        c.dict,
		pool:        c.pool,
		sigs:        newSigCache(defaultSigCacheCap), // signatures resolve differently now
	}
	n.supportsOnce.Do(func() {}) // supports are spliced below, not rebuilt

	// Root slots: replay belief grants/revocations in journal order. Slots
	// are append-only so clean bitsets keep their meaning; a revoked root
	// leaves a tombstone no live support references (its downstream is
	// dirty by construction).
	for _, m := range muts {
		if m.Kind != tn.MutSetExplicit {
			continue
		}
		granted := m.OldValue == tn.NoValue && m.Value != tn.NoValue
		revoked := m.OldValue != tn.NoValue && m.Value == tn.NoValue
		switch {
		case granted && n.rootPos[m.User] < 0:
			n.rootPos[m.User] = int32(len(n.rootSlots))
			n.rootSlots = append(n.rootSlots, m.User)
		case revoked && n.rootPos[m.User] >= 0:
			n.rootSlots[n.rootPos[m.User]] = -1
			n.rootPos[m.User] = -1
		}
	}

	// Reachability inside the dirty region: seeded by dirty roots and by
	// edges from clean reachable parents (clean reachability is unchanged),
	// then propagated forward within the region.
	queue = queue[:0]
	for x := 0; x < nuNew; x++ {
		if !dirty[x] {
			continue
		}
		n.reach[x] = false
		if c.net.HasExplicit(x) {
			n.reach[x] = true
			queue = append(queue, x)
			continue
		}
		for _, m := range c.net.In(x) {
			if !dirty[m.Parent] && n.reach[m.Parent] {
				n.reach[x] = true
				queue = append(queue, x)
				break
			}
		}
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range n.g.Out(x) {
			if dirty[y] && !n.reach[y] {
				n.reach[y] = true
				queue = append(queue, y)
			}
		}
	}

	// Effective incoming tables (parents' reachability and touched in-edges
	// are settled now): clean nodes copy their CSR rows from the base,
	// dirty nodes recompute.
	n.in = c.in.splice(c.net, n.reach, dirty, nuNew)

	// Condensation of the dirty region. Old components containing a dirty
	// node die (the closure argument above guarantees they are entirely
	// dirty); fresh components take ids from ncomp upward, and descending
	// local SCC ids are a topological order among them.
	dead := make(map[int]bool)
	var region []int // dirty reachable nodes, ascending: the SCC roots
	for x := 0; x < nuNew; x++ {
		if dirty[x] {
			if cv := n.comp[x]; cv >= 0 {
				if !dead[cv] {
					dead[cv] = true
					n.sccMembers[cv] = nil
				}
				n.comp[x] = -1
			}
			if n.reach[x] {
				region = append(region, x)
			}
		}
	}
	st.DeadComps = len(dead)
	n.deadComps += len(dead)
	scratch := new(graph.SCCScratch)
	nsub := n.g.SCCOf(region, func(v int) bool { return dirty[v] && n.reach[v] }, scratch)
	st.NewComps = nsub
	newComps := make([]int, 0, nsub)
	for local := nsub - 1; local >= 0; local-- {
		newComps = append(newComps, n.ncomp+local)
	}
	n.sccMembers = append(n.sccMembers, make([][]int, nsub)...)
	for _, x := range region { // ascending member order, as Compile builds it
		cx := n.ncomp + scratch.Comp(x)
		n.comp[x] = cx
		n.sccMembers[cx] = append(n.sccMembers[cx], x)
	}
	n.ncomp += nsub
	n.sccOrder = make([]int, 0, len(c.sccOrder)+nsub)
	for _, comp := range c.sccOrder {
		if !dead[comp] {
			n.sccOrder = append(n.sccOrder, comp)
		}
	}
	n.sccOrder = append(n.sccOrder, newComps...)

	// Plan splice: keep steps whose targets are clean (their sources are
	// necessarily clean too — the region is downstream-closed), then replan
	// just the dirty components. Flood members share one component, so
	// checking one member suffices.
	n.steps = make([]Step, 0, len(c.steps))
	for _, s := range c.steps {
		if s.Kind == StepCopy && !dirty[s.Target] {
			n.steps = append(n.steps, s)
		} else if s.Kind == StepFlood && !dirty[s.Members[0]] {
			n.steps = append(n.steps, s)
		}
	}
	st.ReusedSteps = len(n.steps)
	closed := make([]bool, nuNew)
	for x := 0; x < nuNew; x++ {
		if !dirty[x] || !n.reach[x] || c.net.HasExplicit(x) {
			closed[x] = true
		}
	}
	n.planInto(newComps, closed, scratch)
	st.NewSteps = len(n.steps) - st.ReusedSteps

	// Support splice: replay only the appended steps. Sources are clean
	// nodes (their interned support) or earlier dirty nodes; dirty roots
	// seed fresh singletons at the current slot width.
	words := (len(n.rootSlots) + 63) / 64
	local := make(map[int]bitset, nDirty)
	for _, r := range n.rootSlots {
		if r >= 0 && dirty[r] {
			b := newBitset(words)
			b.set(int(n.rootPos[r]))
			local[r] = b
		}
	}
	supOf := func(z int) bitset {
		if b, ok := local[z]; ok {
			return b
		}
		if id := n.nodeSupport[z]; id >= 0 {
			return n.supports[id]
		}
		return nil
	}
	for _, s := range n.steps[st.ReusedSteps:] {
		switch s.Kind {
		case StepCopy:
			if b := supOf(s.Source); b != nil {
				local[s.Target] = b
			} else {
				local[s.Target] = newBitset(words)
			}
		case StepFlood:
			u := newBitset(words)
			for _, z := range s.Sources {
				u.or(supOf(z))
			}
			for _, x := range s.Members {
				local[x] = u
			}
		}
	}
	for x := 0; x < nuNew; x++ {
		if !dirty[x] {
			continue
		}
		b := local[x]
		if !n.reach[x] || b == nil || b.empty() {
			n.nodeSupport[x] = -1
			continue
		}
		n.nodeSupport[x] = n.internSupport(b)
	}
	n.maybeCompactSupports()
	n.flattenSupports()
	return n, st, nil
}

// maybeCompactSupports rebuilds the support table when repeated Applies
// have left it more than half garbage: supports no longer referenced by
// any node would otherwise be gathered on every resolved object forever.
func (n *CompiledNetwork) maybeCompactSupports() {
	if len(n.supports) < 64 {
		return
	}
	live := 0
	seen := make([]bool, len(n.supports))
	for _, id := range n.nodeSupport {
		if id >= 0 && !seen[id] {
			seen[id] = true
			live++
		}
	}
	if 2*live > len(n.supports) {
		return
	}
	remap := make([]int32, len(n.supports))
	supports := make([]bitset, 0, live)
	ids := make(map[string]int32, live)
	for old, b := range n.supports {
		if !seen[old] {
			remap[old] = -1
			continue
		}
		id := int32(len(supports))
		supports = append(supports, b)
		ids[b.key()] = id
		remap[old] = id
	}
	for x, id := range n.nodeSupport {
		if id >= 0 {
			n.nodeSupport[x] = remap[id]
		}
	}
	n.supports = supports
	n.supportIDs = ids
}

func growCopy(src []bool, size int) []bool {
	out := make([]bool, size)
	copy(out, src)
	return out
}

func growCopyI32(src []int32, size int) []int32 {
	out := make([]int32, size)
	copy(out, src)
	for i := len(src); i < size; i++ {
		out[i] = -1
	}
	return out
}

func growCopyInt(src []int, size, fill int) []int {
	out := make([]int, size)
	copy(out, src)
	for i := len(src); i < size; i++ {
		out[i] = fill
	}
	return out
}
