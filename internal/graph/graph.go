// Package graph provides the directed-graph algorithms that the conflict
// resolution algorithms of the paper are built on: Tarjan's strongly
// connected components (used by Algorithms 1 and 2 on every iteration of
// their Step 2: SCC over the whole graph, or SCCOf over a caller's root
// list on reusable, generation-stamped scratch, so a pass costs only what
// it visits), condensation, reachability, topological order, and the
// max-flow based disjoint-path checks used by the possible-pairs extension
// (Proposition 2.13).
//
// Graphs are dense: nodes are the integers 0..N-1. All algorithms are
// deterministic: neighbours are visited in insertion order.
package graph

import "fmt"

// Digraph is a directed graph over nodes 0..N-1 with parallel edges allowed.
type Digraph struct {
	n   int
	adj [][]int // adj[u] lists v for every edge u->v, in insertion order
	m   int
}

// New returns an empty digraph with n nodes and no edges.
func New(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Digraph{n: n, adj: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// M returns the number of edges.
func (g *Digraph) M() int { return g.m }

// AddEdge inserts the directed edge u->v.
func (g *Digraph) AddEdge(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	g.adj[u] = append(g.adj[u], v)
	g.m++
}

// RemoveEdge deletes one instance of the directed edge u->v, preserving the
// insertion order of u's remaining out-edges, and reports whether an edge
// was removed. It supports incremental adjacency maintenance (the engine's
// delta path); out-of-range endpoints report false.
func (g *Digraph) RemoveEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	for i, w := range g.adj[u] {
		if w == v {
			g.adj[u] = append(g.adj[u][:i], g.adj[u][i+1:]...)
			g.m--
			return true
		}
	}
	return false
}

// Grow extends the graph to n nodes, keeping existing nodes and edges.
// Shrinking is not supported; a smaller n is a no-op.
func (g *Digraph) Grow(n int) {
	for g.n < n {
		g.adj = append(g.adj, nil)
		g.n++
	}
}

// Out returns the out-neighbours of u. The returned slice is shared with the
// graph and must not be modified.
func (g *Digraph) Out(u int) []int { return g.adj[u] }

// Reverse returns a new graph with every edge direction flipped.
func (g *Digraph) Reverse() *Digraph {
	r := New(g.n)
	for u, vs := range g.adj {
		for _, v := range vs {
			r.AddEdge(v, u)
		}
	}
	return r
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph {
	c := New(g.n)
	for u, vs := range g.adj {
		c.adj[u] = append([]int(nil), vs...)
	}
	c.m = g.m
	return c
}

// SCC computes the strongly connected components of the subgraph of g
// induced by the nodes for which active returns true (pass nil for the whole
// graph). It returns comp, where comp[v] is the component index of v (or -1
// for inactive nodes), and the number of components. Components are numbered
// in reverse topological order of the condensation: if there is an edge from
// component a to component b (a != b) then comp value of a is greater than
// that of b. Consequently component 0 is always a sink (minimal in the
// paper's orientation: no outgoing edges to other components).
//
// The implementation is Tarjan's algorithm with an explicit stack so that
// deep graphs (long chains) do not overflow the goroutine stack. It is
// SCCOf rooted at every node, on a scratch of its own.
func (g *Digraph) SCC(active func(int) bool) (comp []int, ncomp int) {
	var s SCCScratch
	s.reset(g.n)
	for v := 0; v < g.n; v++ {
		s.visit(g, v, active)
	}
	comp = make([]int, g.n)
	for v := range comp {
		comp[v] = s.Comp(v)
	}
	return comp, s.ncomp
}

// SCCScratch is the reusable state of SCCOf. Its per-node arrays are
// stamped with a generation per call instead of being cleared, so a call
// costs only what it visits. The zero value is ready to use; a scratch must
// not be shared by concurrent calls.
type SCCScratch struct {
	gen   uint32
	stamp []uint32 // stamp[v] == gen: v was visited by the current call
	index []int32
	low   []int32
	comp  []int32 // -1 while v is on the Tarjan stack
	stack []int
	dfs   []sccFrame
	next  int32
	ncomp int
}

// sccFrame is one explicit-DFS frame: a node and its next out-edge index.
type sccFrame struct{ v, ei int }

// SCCOf computes the strongly connected components of the subgraph
// induced by active (nil for every node), rooting Tarjan's DFS at roots in
// order, on caller-owned scratch. Roots must be ascending and must include
// every active node; inactive roots are skipped. The numbering then equals
// SCC(active)'s, and a call costs O(len(roots) + the out-edges of the
// active nodes) with no allocation once s has grown to g's size. It
// returns the number of components; s.Comp reads the labelling until the
// next call on s.
func (g *Digraph) SCCOf(roots []int, active func(int) bool, s *SCCScratch) (ncomp int) {
	s.reset(g.n)
	for _, r := range roots {
		s.visit(g, r, active)
	}
	return s.ncomp
}

// Comp returns v's component from the last SCCOf call on s, or -1 when
// that call did not label v.
func (s *SCCScratch) Comp(v int) int {
	if v < 0 || v >= len(s.stamp) || s.stamp[v] != s.gen {
		return -1
	}
	return int(s.comp[v])
}

// reset starts a new generation over n nodes. Stamps are cleared only when
// the generation counter wraps, so no stale stamp can match.
func (s *SCCScratch) reset(n int) {
	if len(s.stamp) < n {
		s.stamp = grown(s.stamp, n)
		s.index = grown(s.index, n)
		s.low = grown(s.low, n)
		s.comp = grown(s.comp, n)
	}
	s.gen++
	if s.gen == 0 {
		clear(s.stamp)
		s.gen = 1
	}
	s.next, s.ncomp = 0, 0
}

// grown returns s extended with zeros to length n, in one allocation.
func grown[T uint32 | int32](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

// visit runs Tarjan's DFS from root unless root is inactive or already
// visited in this generation, numbering every component it closes.
func (s *SCCScratch) visit(g *Digraph, root int, active func(int) bool) {
	if s.stamp[root] == s.gen || (active != nil && !active(root)) {
		return
	}
	s.open(root)
	s.dfs = append(s.dfs[:0], sccFrame{v: root})
	for len(s.dfs) > 0 {
		f := &s.dfs[len(s.dfs)-1]
		v := f.v
		advanced := false
		for f.ei < len(g.adj[v]) {
			w := g.adj[v][f.ei]
			f.ei++
			if s.stamp[w] != s.gen {
				if active != nil && !active(w) {
					continue
				}
				s.open(w)
				s.dfs = append(s.dfs, sccFrame{v: w})
				advanced = true
				break
			}
			if s.comp[w] < 0 && s.index[w] < s.low[v] {
				s.low[v] = s.index[w]
			}
		}
		if advanced {
			continue
		}
		// v is finished.
		if s.low[v] == s.index[v] {
			for {
				w := s.stack[len(s.stack)-1]
				s.stack = s.stack[:len(s.stack)-1]
				s.comp[w] = int32(s.ncomp)
				if w == v {
					break
				}
			}
			s.ncomp++
		}
		s.dfs = s.dfs[:len(s.dfs)-1]
		if len(s.dfs) > 0 {
			p := s.dfs[len(s.dfs)-1].v
			if s.low[v] < s.low[p] {
				s.low[p] = s.low[v]
			}
		}
	}
}

// open stamps v, numbers it, and pushes it on the Tarjan stack.
func (s *SCCScratch) open(v int) {
	s.stamp[v] = s.gen
	s.index[v] = s.next
	s.low[v] = s.next
	s.comp[v] = -1
	s.next++
	s.stack = append(s.stack, v)
}

// Condense builds the condensation of g given a component labelling (as
// produced by SCC): one node per component, with duplicate inter-component
// edges removed. Nodes with comp[v] < 0 are ignored.
func (g *Digraph) Condense(comp []int, ncomp int) *Digraph {
	c := New(ncomp)
	seen := make(map[[2]int]bool)
	for u, vs := range g.adj {
		cu := comp[u]
		if cu < 0 {
			continue
		}
		for _, v := range vs {
			cv := comp[v]
			if cv < 0 || cv == cu {
				continue
			}
			k := [2]int{cu, cv}
			if !seen[k] {
				seen[k] = true
				c.AddEdge(cu, cv)
			}
		}
	}
	return c
}

// Reachable returns the set of nodes reachable from any node in from,
// restricted to nodes for which active returns true (nil means all nodes).
// Source nodes are included if active.
func (g *Digraph) Reachable(from []int, active func(int) bool) []bool {
	seen := make([]bool, g.n)
	var queue []int
	for _, s := range from {
		if s < 0 || s >= g.n {
			continue
		}
		if active != nil && !active(s) {
			continue
		}
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if seen[v] || (active != nil && !active(v)) {
				continue
			}
			seen[v] = true
			queue = append(queue, v)
		}
	}
	return seen
}

// TopoOrder returns a topological order of g (Kahn's algorithm) and true,
// or nil and false if g has a cycle.
func (g *Digraph) TopoOrder() ([]int, bool) {
	indeg := make([]int, g.n)
	for _, vs := range g.adj {
		for _, v := range vs {
			indeg[v]++
		}
	}
	var queue []int
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, g.n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != g.n {
		return nil, false
	}
	return order, true
}

// IsAcyclic reports whether g has no directed cycle.
func (g *Digraph) IsAcyclic() bool {
	_, ok := g.TopoOrder()
	return ok
}
