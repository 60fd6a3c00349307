// Package engine compiles the object-independent structure of a binary
// trust network into a reusable plan, resolves arbitrarily many objects
// against it concurrently, and maintains the compiled artifact
// incrementally under network mutations.
//
// The paper's bulk setting (Section 4) fixes the trust mappings across all
// objects; only the root beliefs vary per object. Under its two
// assumptions, the control flow of Algorithm 1 — which node closes by a
// Step-1 copy from its preferred parent and which strongly connected
// component closes by a Step-2 flood — is the same for every object.
// Compile runs that control flow exactly once and records it as a step
// list (the plan), together with the structures the planner itself needs:
// per node, its reachability, its condensation component and its
// effective preferred parent; per condensation component, its members and
// its run of the plan, in a topological order of the condensation DAG.
//
// Compilation goes one step further than recording the plan. Every step is
// either a copy (poss(x) := poss(z)) or a flood (poss of a component :=
// the union of its closed parents' poss), and every root starts with a
// singleton set, so by induction poss(x) for any node is the union of the
// beliefs of a *fixed* subset of roots — its root support. Compile replays
// the plan symbolically over root-index bitsets — in parallel across
// independent condensation components — and deduplicates the resulting
// supports, after which resolving one object is a trivial gather: for each
// distinct support, collect the object's root values and sort them. (The
// supports are derived on first use, so plan-only consumers such as the
// SQL lowering skip that cost.) No graph traversal, no shared mutable
// state — an embarrassingly parallel scan that CompiledNetwork.Resolve
// distributes over a worker pool. The scan itself is columnar over flat
// arrays (layout.go): root beliefs are interned into an int32
// dictionary, supports are contiguous runs of root slots, and reusable
// per-worker scratch arenas keep the per-object loop at zero heap
// allocations in steady state (see intern.go). On top of the scan,
// Resolve deduplicates whole objects by their root-assignment signature
// and resolves each distinct signature exactly once, with a bounded
// per-artifact cache carrying signatures across calls (see dedup.go).
//
// Networks are living artifacts: beliefs and trust mappings are updated
// and revoked (Section 2.5 stresses that resolution is order-invariant
// under such updates). Rather than recompiling from scratch on every
// mutation, Apply (delta.go) consumes the mutation journal of the
// underlying tn.Network, computes the dirty region — the condensation
// components downstream of the touched nodes and edges — and recompiles
// only that suffix of the plan, splicing the recomputed root supports into
// the shared tables while reusing everything upstream. The planner's
// tables live in copy-on-write pages (cow.go), so a successor copies only
// what its dirty region writes. When the dirty region exceeds a threshold
// it falls back to a full Compile.
//
// Unlike the iterated global Tarjan passes of resolve.Resolve (quadratic
// on the nested-SCC family of Figure 14a), the planner runs each Step-2
// Tarjan pass over one condensation component's member list
// (graph.SCCOf), on a generation-stamped graph.SCCScratch that a whole
// Apply lineage reuses for every pass, so a pass costs that component's
// members and their out-edges and allocates nothing once the scratch is
// warm. A component left with a single open node skips Tarjan altogether.
// Compilation is therefore linear in what it plans; only a component that
// needs several flood rounds pays its size once per round.
package engine

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"trustmap/internal/graph"
	"trustmap/internal/tn"
)

// StepKind discriminates plan steps.
type StepKind int

const (
	// StepCopy is Step 1 of Algorithm 1: copy the preferred parent's
	// possible values to the child.
	StepCopy StepKind = iota
	// StepFlood is Step 2: flood a strongly connected component with the
	// union of its closed parents' possible values.
	StepFlood
)

// Step is one replayable resolution step of the compiled plan.
type Step struct {
	Kind    StepKind
	Target  int   // StepCopy: the node being closed
	Source  int   // StepCopy: its preferred parent
	Members []int // StepFlood: the component being closed, ascending
	Sources []int // StepFlood: closed nodes with edges into the component, ascending
}

// PriorityBucket groups one node's incoming trust mappings that share a
// priority. A node's buckets are ordered by priority descending; parents
// within a bucket ascend. Only mappings from reachable parents appear:
// removing unreachable nodes can promote a node's remaining parent to
// preferred (Section 2.2), and bucketing makes that promotion — and tie
// detection — a single slice lookup.
type PriorityBucket struct {
	Priority int
	Parents  []int
}

// CompiledNetwork is the per-network artifact shared by all object
// resolutions. Compile once, Resolve many times, from any number of
// goroutines. Mutations go through Apply, which returns a successor
// artifact and leaves results resolved against this one valid.
type CompiledNetwork struct {
	net *tn.Network
	g   *graph.Digraph // out-adjacency; owned, maintained by Apply
	// ls is the writer-side state of the artifact's Apply lineage; it
	// passes to the successor with g.
	ls *lineage

	// rootSlots assigns every root (user with an explicit belief) a stable
	// bitset index: rootSlots[i] is the user occupying slot i, or -1 for a
	// tombstone left by a revoked belief. Slot stability is what lets Apply
	// splice new supports next to old ones: a clean node's bitset stays
	// meaningful across mutations. rootPos is the inverse (user -> slot);
	// it may be shorter than the network, past which no user is a root.
	rootSlots []int
	rootPos   []int32

	// The planner's state, per node and per condensation component, in
	// copy-on-write pages (cow.go): an Apply successor shares every page
	// its dirty region does not write. Component ids are never reused;
	// Apply invalidates the ids of the components it replans and issues
	// fresh ones.
	nodes     cow[nodeState]
	comps     cow[component]
	deadComps int // ids invalidated by Apply
	nsteps    int // plan steps over the live components

	// steps is the plan in one slice and planRanges each component's run
	// of it, in plan order: the unit of parallelism for buildSupports
	// (components at the same dependency depth replay concurrently). Only
	// Compile records them; the live components' step runs are the plan of
	// an Apply successor (Steps flattens them).
	steps      []Step
	planRanges []stepRange

	// Root supports are derived from the steps lazily (sync.Once): plan-only
	// consumers like the SQL lowering never pay for them. supportIDs is the
	// persistent dedup table (trimmed bitset key -> id) that Apply extends.
	supportsOnce sync.Once
	supports     []bitset         // distinct root supports, indexed by support ID
	supportIDs   map[string]int32 // shared along a lineage; Apply extends it
	nodeSup      cow[int32]       // node -> support ID, -1 when poss is empty
	// The flat views the resolve hot path reads: nodeSupport is nodeSup in
	// one slice, derived on first use (flatOnce), so an Apply successor
	// nobody resolves against never pays for it; supOff/supRoots are the
	// CSR view of supports (layout.go).
	flatOnce    sync.Once
	nodeSupport []int32
	supOff      []int32
	supRoots    []int32

	// dict interns belief values for the columnar resolve path and pool
	// recycles the per-worker scratch arenas; both survive Apply, so a
	// long-lived session reaches a steady state where resolving an object
	// allocates nothing even across mutations.
	dict *valueDict
	pool *sync.Pool

	consumed bool // set by Apply: this artifact has a successor
}

// nodeState is the planner's view of one node.
type nodeState struct {
	comp  int32 // condensation component, -1 when unreachable
	pref  int32 // effective preferred parent, -1 on a tie or with no reachable parent
	reach bool  // reachable from a root
}

// component is one condensation component's share of the plan.
type component struct {
	members []int  // ascending; nil once Apply invalidated the id
	steps   []Step // the component's contiguous run of the plan
	// block is one past the last id issued together with this one:
	// Compile issues one block of ids, each Apply one more, and the plan
	// visits the blocks in order and each block's ids descending.
	block int32
}

// stepRange is one condensation component's contiguous slice of the plan.
type stepRange struct{ comp, lo, hi int32 }

// lineage is the writer-side state of one Apply lineage: per-node scratch
// that Compile sizes and every Apply and planner pass reuses, and the
// support reference counts. Only the newest artifact of a lineage uses
// it. Every scratch mark is cleared by the pass that set it, so a pass
// costs what it visits.
type lineage struct {
	dirty   []bool  // Apply: x is in the dirty region
	pos     []int32 // Apply: x's index in the ascending dirty list
	open    []bool  // planInto: x is not closed yet
	kidHead []int32 // planInto: first open node whose preferred parent is x, or -1
	kidNext []int32 // planInto: the next open node with the same preferred parent
	scc     graph.SCCScratch
	list    []int    // Apply: the dirty region, ascending
	region  []int    // Apply: its reachable nodes; Compile: every reachable node
	openIDs []int    // planInto's open list
	queue   []int    // breadth-first and Step-1 queues
	local   []bitset // Apply: the dirty nodes' new supports, by dirty index
	ranges  []stepRange

	// supRefs counts the nodes referencing each support id and
	// liveSupports the ids with a reference: maybeCompactSupports's
	// trigger without a scan of every node.
	supRefs      []int32
	liveSupports int
}

// grow sizes the per-node scratch for at least nu nodes: exactly at
// Compile, with a quarter of headroom when Apply meets new users.
func (ls *lineage) grow(nu int) {
	have := len(ls.dirty)
	if have >= nu {
		return
	}
	if have > 0 {
		nu = max(nu, have+have/4)
	}
	ls.dirty = grown(ls.dirty, nu, false)
	ls.pos = grown(ls.pos, nu, 0)
	ls.open = grown(ls.open, nu, false)
	ls.kidHead = grown(ls.kidHead, nu, -1)
	ls.kidNext = grown(ls.kidNext, nu, -1)
}

// grown returns s extended to length n with fill, in one allocation.
func grown[T any](s []T, n int, fill T) []T {
	out := make([]T, n)
	for i := copy(out, s); i < n; i++ {
		out[i] = fill
	}
	return out
}

// Stats summarizes a compiled network for diagnostics. It converts to
// wire.EngineStats, the engine section of /v1/stats, so the two field
// lists must stay identical.
type Stats struct {
	Users            int
	Mappings         int
	Roots            int
	Reachable        int
	SCCs             int
	NontrivialSCCs   int
	CopySteps        int
	FloodSteps       int
	DistinctSupports int
}

// Compile precomputes the resolution plan for a binary trust network.
// Explicit beliefs mark which users are roots; their values are irrelevant
// to the plan. The network must not be mutated afterwards except through
// the journal/Apply protocol (see delta.go).
func Compile(network *tn.Network) (*CompiledNetwork, error) {
	if !network.IsBinary() {
		return nil, fmt.Errorf("engine: network is not binary; apply tn.Binarize first")
	}
	nu := network.NumUsers()
	c := &CompiledNetwork{
		net:  network,
		g:    network.Graph(),
		ls:   new(lineage),
		dict: newValueDict(),
		pool: &sync.Pool{},
	}
	ls := c.ls
	ls.grow(nu)
	c.rootPos = make([]int32, nu)
	for x := 0; x < nu; x++ {
		c.rootPos[x] = -1
		if network.HasExplicit(x) {
			c.rootPos[x] = int32(len(c.rootSlots))
			c.rootSlots = append(c.rootSlots, x)
		}
	}

	// Condensation of the reachable subgraph. SCCOf rooted at every
	// reachable node numbers components in reverse topological order (an
	// edge between components always goes from a higher id to a lower
	// one), so visiting ids descending is a topological order.
	reach := c.g.Reachable(c.liveRoots(), nil)
	c.nodes = newCow(nu, nodeState{comp: -1, pref: -1})
	nreach := 0
	for x := 0; x < nu; x++ {
		if reach[x] {
			c.nodes.ref(x).reach = true
			nreach++
		}
	}
	ls.region = make([]int, 0, nreach)
	for x := 0; x < nu; x++ {
		if reach[x] {
			ls.region = append(ls.region, x)
		}
	}
	ncomp := c.g.SCCOf(ls.region, func(v int) bool { return reach[v] }, &ls.scc)
	ls.openIDs = make([]int, 0, nreach)
	for x := 0; x < nu; x++ {
		s := c.nodes.ref(x)
		s.pref = c.preferredOf(x)
		if reach[x] {
			s.comp = int32(ls.scc.Comp(x))
			if !network.HasExplicit(x) {
				ls.openIDs = append(ls.openIDs, x)
			}
		}
	}
	c.comps = newCow(0, component{})
	c.addComps(ls.region, ncomp, func(x int) int { return int(c.nodes.at(x).comp) })

	c.steps, c.planRanges = c.planInto(0, ncomp, ls.openIDs, make([]stepRange, 0, ncomp))
	c.setRuns(c.steps, c.planRanges)
	return c, nil
}

// addComps issues a block of ncomp fresh component ids, the next ones,
// and fills their member lists from members (ascending), where local(x)
// is x's component within the block.
func (c *CompiledNetwork) addComps(members []int, ncomp int, local func(x int) int) {
	// Counting sort: end[i] ends up one past component i's run in flat.
	end := make([]int32, ncomp)
	for _, x := range members {
		end[local(x)]++
	}
	var sum int32
	for i, k := range end {
		sum += k
		end[i] = sum - k // the run's start, advanced to its end below
	}
	flat := make([]int, len(members))
	for _, x := range members {
		l := local(x)
		flat[end[l]] = x
		end[l]++
	}
	base := c.comps.len()
	c.comps.grow(base + ncomp)
	lo := int32(0)
	for i, hi := range end {
		*c.comps.ref(base + i) = component{members: flat[lo:hi:hi], block: int32(base + ncomp)}
		lo = hi
	}
}

// setRuns hands each planned component its run of steps.
func (c *CompiledNetwork) setRuns(steps []Step, ranges []stepRange) {
	for _, r := range ranges {
		c.comps.ref(int(r.comp)).steps = steps[r.lo:r.hi:r.hi]
	}
	c.nsteps += len(steps)
}

// preferredOf derives x's effective preferred parent from its incoming
// mappings and its parents' reachability: the sole reachable parent of
// the top priority, or -1 on a tie or with no reachable parent.
func (c *CompiledNetwork) preferredOf(x int) int32 {
	top := -1
	topPrio := 0
	for _, m := range c.net.In(x) { // sorted: priority desc, parent asc
		if !c.nodes.at(m.Parent).reach {
			continue
		}
		if top >= 0 {
			if m.Priority == topPrio {
				return -1
			}
			break
		}
		top, topPrio = m.Parent, m.Priority
	}
	return int32(top)
}

// liveRoots returns the users currently holding an explicit belief,
// in slot order.
func (c *CompiledNetwork) liveRoots() []int {
	var out []int
	for _, r := range c.rootSlots {
		if r >= 0 {
			out = append(out, r)
		}
	}
	return out
}

// ensureSupports builds the root supports of a fresh Compile on first
// use; an Apply successor is born with them.
func (c *CompiledNetwork) ensureSupports() { c.supportsOnce.Do(c.buildSupports) }

// ensureFlat derives the flat node -> support view the resolve path
// reads, on first use: it reads only the artifact's own frozen pages, so
// concurrent readers may race to it.
func (c *CompiledNetwork) ensureFlat() {
	c.ensureSupports()
	c.flatOnce.Do(func() {
		c.nodeSupport = make([]int32, c.nodeSup.len())
		for x := range c.nodeSupport {
			c.nodeSupport[x] = c.nodeSup.at(x)
		}
	})
}

// EnsureSupports derives the root supports and the resolve path's flat
// views now if they have not been derived yet. Publishers sharing an
// artifact with lock-free readers must call it before publication:
// deriving a fresh Compile's supports reads the underlying network
// (which may keep mutating afterwards), so leaving it to a reader's first
// Resolve would race the writer. Idempotent and cheap once derived.
func (c *CompiledNetwork) EnsureSupports() { c.ensureFlat() }

// preferredParent returns x's effective preferred parent: the sole
// reachable parent of the top priority. ok is false on a tie or when x has
// no reachable parents.
func (c *CompiledNetwork) preferredParent(x int) (int, bool) {
	z := c.nodes.at(x).pref
	return int(z), z >= 0
}

// planInto records the control flow of Algorithm 1 over the condensation
// components lo..hi-1, visited descending (a topological order of one
// block of ids), as steps, and returns them with each planned component's
// run appended to ranges. Each component is planned on its own: Step 1
// drains the copies its closed parents enable, and every Step-2 round
// runs SCCOf rooted at the component's member list on the lineage's
// scratch, so a round costs the component's members and their out-edges,
// not the whole graph. A component left with one open node floods it
// without a Tarjan pass. open lists the nodes to resolve, ascending; every
// other node counts as closed: roots, unreachable nodes, and — on the
// incremental path — every clean node.
func (c *CompiledNetwork) planInto(lo, hi int, open []int, ranges []stepRange) (steps []Step, _ []stepRange) {
	ls := c.ls
	steps = make([]Step, 0, len(open)) // every step closes an open node
	for _, x := range open {
		ls.open[x] = true
	}
	// The open nodes whose effective preferred parent is z form a linked
	// list from kidHead[z], ascending, for O(1) discovery of applicable
	// Step-1 copies.
	for i := len(open) - 1; i >= 0; i-- {
		x := open[i]
		if z := c.nodes.at(x).pref; z >= 0 {
			ls.kidNext[x] = ls.kidHead[z]
			ls.kidHead[z] = int32(x)
		}
	}
	defer func() {
		for _, x := range open {
			ls.open[x] = false
			if z := c.nodes.at(x).pref; z >= 0 {
				ls.kidHead[z] = -1
			}
		}
	}()

	var (
		comp  int   // the component being planned
		queue []int // Step-1 queue, local to comp
		nOpen int   // comp's members not yet closed
	)
	closed := func(x int) bool { return !ls.open[x] }
	// Parents outside comp are already closed (topological order), so the
	// initial scan plus enqueues on close find every applicable copy.
	enqueue := func(z int) {
		for x := ls.kidHead[z]; x >= 0; x = ls.kidNext[x] {
			if ls.open[x] && int(c.nodes.at(int(x)).comp) == comp {
				queue = append(queue, int(x))
			}
		}
	}
	isOpen := func(v int) bool { return int(c.nodes.at(v).comp) == comp && ls.open[v] }
	flood := func(members []int) {
		var sources []int
		for _, x := range members {
			for _, m := range c.net.In(x) {
				if closed(m.Parent) && c.nodes.at(m.Parent).reach {
					sources = append(sources, m.Parent)
				}
			}
		}
		sort.Ints(sources)
		sources = slices.Compact(sources)
		steps = append(steps, Step{Kind: StepFlood, Members: members, Sources: sources})
		for _, x := range members {
			ls.open[x] = false
		}
		nOpen -= len(members)
		for _, x := range members {
			enqueue(x)
		}
	}

	queue = ls.queue[:0]
	for comp = hi - 1; comp >= lo; comp-- {
		firstStep := len(steps)
		members := c.comps.at(comp).members
		queue = queue[:0]
		nOpen = 0
		for _, x := range members {
			if closed(x) {
				continue
			}
			nOpen++
			if z, ok := c.preferredParent(x); ok && closed(z) {
				queue = append(queue, x)
			}
		}
		for nOpen > 0 {
			// (S1) Drain preferred-edge copies.
			for head := 0; head < len(queue); head++ {
				x := queue[head]
				if closed(x) {
					continue
				}
				z, _ := c.preferredParent(x)
				steps = append(steps, Step{Kind: StepCopy, Target: x, Source: z})
				ls.open[x] = false
				nOpen--
				enqueue(x)
			}
			queue = queue[:0]
			if nOpen == 0 {
				break
			}
			if nOpen == 1 {
				// A lone open node is its own minimal SCC.
				for _, x := range members {
					if !closed(x) {
						flood([]int{x})
						break
					}
				}
				continue
			}
			// (S2) Flood the minimal SCCs of the remaining open members.
			// Restricting Tarjan to this component is equivalent to the
			// global pass of resolve.Resolve: all nodes outside it are
			// either closed (earlier components) or unreachable from here
			// (later components), so sub-component minimality within the
			// member slice equals global minimality. Rooting the pass at
			// the ascending member list numbers sub-components exactly as
			// a whole-graph pass would.
			nsub := c.g.SCCOf(members, isOpen, &ls.scc)
			if nsub == 0 {
				break
			}
			hasIncoming := make([]bool, nsub)
			memberList := make([][]int, nsub)
			for _, v := range members {
				sv := ls.scc.Comp(v)
				if sv < 0 {
					continue
				}
				memberList[sv] = append(memberList[sv], v)
				for _, m := range c.net.In(v) {
					if sp := ls.scc.Comp(m.Parent); sp >= 0 && sp != sv {
						hasIncoming[sv] = true
					}
				}
			}
			for sv, sub := range memberList {
				if !hasIncoming[sv] {
					flood(sub)
				}
			}
		}
		if len(steps) > firstStep {
			ranges = append(ranges, stepRange{comp: int32(comp), lo: int32(firstStep), hi: int32(len(steps))})
		}
	}
	ls.queue = queue[:0]
	return steps, ranges
}

// buildSupports replays the plan symbolically over root-index bitsets:
// after it, nodeSupport[x] identifies the fixed set of roots whose beliefs
// make up poss(x) for every object, deduplicated across nodes. The replay
// distributes across independent condensation components; interning stays
// sequential so support IDs are deterministic.
func (c *CompiledNetwork) buildSupports() {
	nu := c.net.NumUsers()
	words := (len(c.rootSlots) + 63) / 64
	byNode := make([]bitset, nu)
	for i, r := range c.rootSlots {
		if r < 0 {
			continue
		}
		b := newBitset(words)
		b.set(i)
		byNode[r] = b
	}
	c.replaySteps(byNode, words, runtime.GOMAXPROCS(0))
	c.nodeSupport = make([]int32, nu)
	c.supportIDs = make(map[string]int32)
	for x := 0; x < nu; x++ {
		b := byNode[x]
		if b == nil || b.empty() {
			c.nodeSupport[x] = -1
			continue
		}
		c.nodeSupport[x] = c.internSupport(b)
	}
	c.flatOnce.Do(func() {}) // nodeSupport is built; nodeSup is its paged copy
	c.nodeSup = newCow(nu, int32(-1))
	for x, id := range c.nodeSupport {
		if id >= 0 {
			*c.nodeSup.ref(x) = id
		}
	}
	c.countSupportRefs()
	c.flattenSupports()
}

// countSupportRefs recounts the lineage's support references from
// nodeSup.
func (c *CompiledNetwork) countSupportRefs() {
	ls := c.ls
	ls.supRefs = append(ls.supRefs[:0], make([]int32, len(c.supports))...) // internSupport has sized it
	ls.liveSupports = 0
	for x := 0; x < c.nodeSup.len(); x++ {
		if id := c.nodeSup.at(x); id >= 0 {
			if ls.supRefs[id] == 0 {
				ls.liveSupports++
			}
			ls.supRefs[id]++
		}
	}
}

// replayStep folds one plan step into the per-node bitsets.
func replayStep(byNode []bitset, s Step, words int) {
	switch s.Kind {
	case StepCopy:
		byNode[s.Target] = byNode[s.Source] // alias: supports are immutable
	case StepFlood:
		u := newBitset(words)
		for _, z := range s.Sources {
			u.or(byNode[z]) // or(nil) is a no-op: z may be support-less
		}
		for _, x := range s.Members {
			byNode[x] = u
		}
	}
}

// minParallelRanges gates the component-parallel replay: below it the
// scheduling overhead exceeds the bitset work.
const minParallelRanges = 64

// replaySteps computes every node's support bitset by replaying the plan.
// Components whose inputs come only from roots or already-replayed
// components are independent, so the replay runs level by level over the
// condensation DAG — level = longest dependency chain through components
// that own steps — with a worker pool bounded by workers per level. Steps
// write only their own component's nodes and read only seeds or lower
// levels, so levels are data-race-free by construction; a level barrier
// orders them.
func (c *CompiledNetwork) replaySteps(byNode []bitset, words, workers int) {
	ranges := c.planRanges
	if workers <= 1 || len(ranges) < minParallelRanges {
		for _, s := range c.steps {
			replayStep(byNode, s, words)
		}
		return
	}
	// Dependency depth per range. Ranges are appended in topological order
	// of the condensation, so every dependency has a smaller index and one
	// forward pass settles the levels. Components without steps (roots,
	// flood-less singletons) are seeds: depth 0, no range.
	compRange := make(map[int]int32, len(ranges))
	for ri, r := range ranges {
		compRange[int(r.comp)] = int32(ri)
	}
	level := make([]int32, len(ranges))
	maxLevel := int32(0)
	bump := func(ri int, z int) {
		if pi, ok := compRange[int(c.nodes.at(z).comp)]; ok && int(pi) != ri && level[pi]+1 > level[ri] {
			level[ri] = level[pi] + 1
		}
	}
	for ri, r := range ranges {
		for _, s := range c.steps[r.lo:r.hi] {
			if s.Kind == StepCopy {
				bump(ri, s.Source)
			} else {
				for _, z := range s.Sources {
					bump(ri, z)
				}
			}
		}
		if level[ri] > maxLevel {
			maxLevel = level[ri]
		}
	}
	byLevel := make([][]stepRange, maxLevel+1)
	for ri, r := range ranges {
		byLevel[level[ri]] = append(byLevel[level[ri]], r)
	}
	var wg sync.WaitGroup
	for _, rs := range byLevel {
		n := len(rs)
		w := workers
		if w > n {
			w = n
		}
		if w <= 1 {
			for _, r := range rs {
				for _, s := range c.steps[r.lo:r.hi] {
					replayStep(byNode, s, words)
				}
			}
			continue
		}
		chunk := (n + w - 1) / w
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(rs []stepRange) {
				defer wg.Done()
				for _, r := range rs {
					for _, s := range c.steps[r.lo:r.hi] {
						replayStep(byNode, s, words)
					}
				}
			}(rs[lo:hi])
		}
		wg.Wait() // level barrier: the next level reads this level's outputs
	}
}

// internSupport deduplicates a root-support bitset against the persistent
// table, appending it when new, and returns its ID.
func (c *CompiledNetwork) internSupport(b bitset) int32 {
	k := b.key()
	id, ok := c.supportIDs[k]
	if !ok {
		id = int32(len(c.supports))
		c.supportIDs[k] = id
		c.supports = append(c.supports, b)
		c.ls.supRefs = append(c.ls.supRefs, 0)
	}
	return id
}

// Net returns the compiled network's underlying trust network. It must not
// be mutated except through the journal/Apply protocol.
func (c *CompiledNetwork) Net() *tn.Network { return c.net }

// Roots returns the root nodes (users with explicit beliefs), ascending.
func (c *CompiledNetwork) Roots() []int {
	out := c.liveRoots()
	sort.Ints(out)
	return out
}

// Steps returns the compiled plan. On a Compile result the slice is
// shared (do not modify); on an Apply successor it is built from the live
// components' runs on each call.
func (c *CompiledNetwork) Steps() []Step {
	if c.steps != nil || c.nsteps == 0 {
		return c.steps
	}
	out := make([]Step, 0, c.nsteps)
	c.eachComp(func(id int) { out = append(out, c.comps.at(id).steps...) })
	return out
}

// eachComp calls f with every live component id in plan order: a
// topological order of the condensation DAG.
func (c *CompiledNetwork) eachComp(f func(id int)) {
	for lo := 0; lo < c.comps.len(); {
		hi := int(c.comps.at(lo).block)
		for id := hi - 1; id >= lo; id-- {
			if c.comps.at(id).members != nil {
				f(id)
			}
		}
		lo = hi
	}
}

// Incoming returns the priority-bucketed effective incoming-trust table of
// node x: its mappings from reachable parents (diagnostic; it reads the
// live network, so it must not race a mutator).
func (c *CompiledNetwork) Incoming(x int) []PriorityBucket {
	if x < 0 || x >= c.nodes.len() {
		return nil
	}
	var out []PriorityBucket
	for _, m := range c.net.In(x) { // sorted: priority desc, parent asc
		if !c.nodes.at(m.Parent).reach {
			continue
		}
		if k := len(out); k > 0 && out[k-1].Priority == m.Priority {
			out[k-1].Parents = append(out[k-1].Parents, m.Parent)
		} else {
			out = append(out, PriorityBucket{Priority: m.Priority, Parents: []int{m.Parent}})
		}
	}
	return out
}

// NumSCCs returns the number of strongly connected components of the
// reachable subgraph.
func (c *CompiledNetwork) NumSCCs() int { return c.comps.len() - c.deadComps }

// SCCMembers returns the member slice of condensation component i,
// ascending, or nil when the id was invalidated by Apply. The slice is
// shared; do not modify.
func (c *CompiledNetwork) SCCMembers(i int) []int { return c.comps.at(i).members }

// SCCEntries returns the trust mappings entering condensation component i
// from other components: the edges along which flooded values arrive.
// Derived on demand — it is diagnostic, not on the resolution path.
func (c *CompiledNetwork) SCCEntries(i int) []tn.Mapping {
	var out []tn.Mapping
	for _, v := range c.SCCMembers(i) {
		for _, m := range c.net.In(v) {
			if cp := int(c.nodes.at(m.Parent).comp); cp >= 0 && cp != i {
				out = append(out, m)
			}
		}
	}
	return out
}

// SCCOrder returns a topological order of the live condensation DAG: the
// order in which the planner visited components.
func (c *CompiledNetwork) SCCOrder() []int {
	out := make([]int, 0, c.NumSCCs())
	c.eachComp(func(id int) { out = append(out, id) })
	return out
}

// Support returns the root nodes whose beliefs constitute poss(x) for
// every object, ascending; nil when poss(x) is always empty.
func (c *CompiledNetwork) Support(x int) []int {
	c.ensureSupports()
	id := c.nodeSup.at(x)
	if id < 0 {
		return nil
	}
	var out []int
	c.supports[id].each(func(i int) { out = append(out, c.rootSlots[i]) })
	sort.Ints(out)
	return out
}

// Stats summarizes the compiled artifact. It reads the live network's
// user and mapping counts, so it must not race a mutator; see
// StatsFrozen for the concurrent-reader variant.
func (c *CompiledNetwork) Stats() Stats {
	return c.statsWithCounts(c.net.NumUsers(), c.net.NumMappings())
}

// StatsFrozen is Stats with the user and mapping counts supplied by the
// caller (captured when the artifact was current) instead of read from
// the live network. Everything else it touches is frozen per artifact,
// so StatsFrozen is safe on a retired artifact while the underlying
// network is concurrently mutated.
func (c *CompiledNetwork) StatsFrozen(users, mappings int) Stats {
	return c.statsWithCounts(users, mappings)
}

func (c *CompiledNetwork) statsWithCounts(users, mappings int) Stats {
	c.ensureSupports()
	st := Stats{
		Users:            users,
		Mappings:         mappings,
		Roots:            len(c.liveRoots()),
		SCCs:             c.NumSCCs(),
		DistinctSupports: len(c.supports),
	}
	for x := 0; x < c.nodes.len(); x++ {
		if c.nodes.at(x).reach {
			st.Reachable++
		}
	}
	c.eachComp(func(id int) {
		comp := c.comps.at(id)
		if len(comp.members) > 1 {
			st.NontrivialSCCs++
		}
		for _, s := range comp.steps {
			if s.Kind == StepCopy {
				st.CopySteps++
			} else {
				st.FloodSteps++
			}
		}
	})
	return st
}

// bitset is a fixed-width set of root indices. Widths may differ between
// generations of an incrementally maintained artifact; all operations and
// the dedup key treat missing high words as zero.
type bitset []uint64

func newBitset(words int) bitset { return make(bitset, words) }

func (b bitset) set(i int) { b[i/64] |= 1 << (i % 64) }

func (b bitset) or(o bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// key returns a map key identifying the set, independent of the bitset
// width: trailing zero words are trimmed.
func (b bitset) key() string {
	n := len(b)
	for n > 0 && b[n-1] == 0 {
		n--
	}
	var stack [64]byte // the string conversion copies: buf need not escape
	buf := stack[:0]
	for _, w := range b[:n] {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(w>>s))
		}
	}
	return string(buf)
}

// each calls f with every set index, ascending.
func (b bitset) each(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			f(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
