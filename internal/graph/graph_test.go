package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSCCSimpleCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	comp, n := g.SCC(nil)
	if n != 2 {
		t.Fatalf("want 2 components, got %d", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("0,1,2 should share a component: %v", comp)
	}
	if comp[3] == comp[0] {
		t.Errorf("3 should be its own component: %v", comp)
	}
	// Reverse topological numbering: edge comp[2]->comp[3] means comp[2] > comp[3].
	if comp[2] <= comp[3] {
		t.Errorf("component numbering not reverse-topological: %v", comp)
	}
}

func TestSCCSingletons(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	comp, n := g.SCC(nil)
	if n != 3 {
		t.Fatalf("want 3 components, got %d (%v)", n, comp)
	}
	if !(comp[2] < comp[1] && comp[1] < comp[0]) {
		t.Errorf("chain should number sinks first: %v", comp)
	}
}

func TestSCCSelfLoop(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	comp, n := g.SCC(nil)
	if n != 2 || comp[0] == comp[1] {
		t.Fatalf("self loop should not merge nodes: n=%d comp=%v", n, comp)
	}
}

func TestSCCActiveFilter(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(2, 3)
	active := func(v int) bool { return v != 1 }
	comp, n := g.SCC(active)
	if comp[1] != -1 {
		t.Errorf("inactive node labelled: %v", comp)
	}
	if n != 3 {
		t.Errorf("want 3 components without node 1, got %d (%v)", n, comp)
	}
}

func TestSCCDeepChainNoOverflow(t *testing.T) {
	// 200k-node path exercises the explicit-stack DFS.
	n := 200000
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	_, ncomp := g.SCC(nil)
	if ncomp != n {
		t.Fatalf("want %d components, got %d", n, ncomp)
	}
}

// TestSCCOfDeepChainNoOverflow is the deep-chain case through SCCOf.
func TestSCCOfDeepChainNoOverflow(t *testing.T) {
	n := 200000
	g := New(n)
	roots := make([]int, n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
		roots[i+1] = i + 1
	}
	var s SCCScratch
	if ncomp := g.SCCOf(roots, nil, &s); ncomp != n {
		t.Fatalf("want %d components, got %d", n, ncomp)
	}
	if s.Comp(0) != n-1 || s.Comp(n-1) != 0 {
		t.Fatalf("chain numbering: comp(0)=%d comp(n-1)=%d", s.Comp(0), s.Comp(n-1))
	}
}

// randomActiveCase draws a digraph with self-loops and parallel edges, an
// active subset, and an ascending root list covering it: sometimes exactly
// the active nodes, sometimes every node.
func randomActiveCase(rng *rand.Rand) (*Digraph, func(int) bool, []int) {
	n := 1 + rng.Intn(40)
	g := New(n)
	for e := 0; e < rng.Intn(3*n); e++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		switch rng.Intn(8) {
		case 0:
			v = u // self-loop
		case 1:
			g.AddEdge(u, v) // parallel pair
		}
		g.AddEdge(u, v)
	}
	on := make([]bool, n)
	var roots []int
	every := rng.Intn(3) == 0
	for v := range on {
		on[v] = rng.Intn(4) != 0
		if on[v] || every {
			roots = append(roots, v)
		}
	}
	return g, func(v int) bool { return on[v] }, roots
}

// checkSCCOf asserts SCCOf's labelling and count equal SCC(active)'s.
func checkSCCOf(t *testing.T, g *Digraph, active func(int) bool, roots []int, s *SCCScratch) {
	t.Helper()
	want, wantN := g.SCC(active)
	if got := g.SCCOf(roots, active, s); got != wantN {
		t.Fatalf("SCCOf found %d components, SCC %d", got, wantN)
	}
	for v := range want {
		if got := s.Comp(v); got != want[v] {
			t.Fatalf("node %d: SCCOf comp %d, SCC comp %d (roots %v)", v, got, want[v], roots)
		}
	}
}

func TestSCCOfMatchesSCC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s SCCScratch // shared across graphs of varying size
	for i := 0; i < 2000; i++ {
		g, active, roots := randomActiveCase(rng)
		checkSCCOf(t, g, active, roots, &s)
	}
}

func TestSCCOfZeroAllocsWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, active, roots := randomActiveCase(rng)
	for len(roots) < 20 {
		g, active, roots = randomActiveCase(rng)
	}
	var s SCCScratch
	g.SCCOf(roots, active, &s)
	if a := testing.AllocsPerRun(100, func() { g.SCCOf(roots, active, &s) }); a != 0 {
		t.Fatalf("warm SCCOf allocated %.1f times per call", a)
	}
}

// TestSCCOfGenerationWrap starts the generation counter just below the
// wrap after stamping every node: stamps from before the wrap must not
// label nodes a later call never visited.
func TestSCCOfGenerationWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, _, _ := randomActiveCase(rng)
	for g.N() < 10 {
		g, _, _ = randomActiveCase(rng)
	}
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	var s SCCScratch
	g.SCCOf(all, nil, &s) // stamps every node with generation 1
	s.gen = math.MaxUint32 - 1
	for i := 0; i < 6; i++ { // crosses MaxUint32, 0 and 1
		on := make([]bool, g.N())
		var roots []int
		for v := range on {
			if on[v] = rng.Intn(3) == 0; on[v] {
				roots = append(roots, v)
			}
		}
		checkSCCOf(t, g, func(v int) bool { return on[v] }, roots, &s)
	}
}

// naiveSCC computes components by mutual reachability, O(n^2) reference.
func naiveSCC(g *Digraph) []int {
	n := g.N()
	reach := make([][]bool, n)
	for v := 0; v < n; v++ {
		reach[v] = g.Reachable([]int{v}, nil)
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for v := 0; v < n; v++ {
		if comp[v] >= 0 {
			continue
		}
		for w := v; w < n; w++ {
			if comp[w] < 0 && reach[v][w] && reach[w][v] {
				comp[w] = next
			}
		}
		next++
	}
	return comp
}

func TestSCCMatchesNaiveOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		g := New(n)
		for e := 0; e < rng.Intn(3*n); e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		comp, _ := g.SCC(nil)
		ref := naiveSCC(g)
		// Same partition: comp[a]==comp[b] iff ref[a]==ref[b].
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if (comp[a] == comp[b]) != (ref[a] == ref[b]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCNumberingIsReverseTopological(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		g := New(n)
		for e := 0; e < rng.Intn(3*n); e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		comp, _ := g.SCC(nil)
		for u := 0; u < n; u++ {
			for _, v := range g.Out(u) {
				if comp[u] != comp[v] && comp[u] <= comp[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCondense(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	g.AddEdge(0, 2) // duplicate inter-component edge after condensation
	g.AddEdge(2, 4)
	comp, n := g.SCC(nil)
	c := g.Condense(comp, n)
	if c.N() != 3 {
		t.Fatalf("want 3 condensed nodes, got %d", c.N())
	}
	if c.M() != 2 {
		t.Fatalf("want 2 condensed edges (dedup), got %d", c.M())
	}
	if !c.IsAcyclic() {
		t.Error("condensation must be acyclic")
	}
}

func TestReachable(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	r := g.Reachable([]int{0}, nil)
	want := []bool{true, true, true, false, false}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Reachable[%d]=%v want %v", i, r[i], want[i])
		}
	}
	// Filter blocks node 1.
	r = g.Reachable([]int{0}, func(v int) bool { return v != 1 })
	if r[2] {
		t.Error("node 2 should be unreachable when 1 is blocked")
	}
}

func TestTopoOrder(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	order, ok := g.TopoOrder()
	if !ok {
		t.Fatal("DAG reported cyclic")
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	for u := 0; u < 4; u++ {
		for _, v := range g.Out(u) {
			if pos[u] >= pos[v] {
				t.Errorf("topo violation %d before %d", u, v)
			}
		}
	}
	g.AddEdge(3, 0)
	if _, ok := g.TopoOrder(); ok {
		t.Error("cycle not detected")
	}
}

func TestReverseClone(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	r := g.Reverse()
	if len(r.Out(1)) != 1 || r.Out(1)[0] != 0 {
		t.Errorf("reverse edge wrong: %v", r.Out(1))
	}
	c := g.Clone()
	c.AddEdge(2, 0)
	if g.M() != 2 || c.M() != 3 {
		t.Errorf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
}

func TestTwoDisjointPathsUnpaired(t *testing.T) {
	// Two parallel tracks: 0->2->4, 1->3->5.
	g := New(6)
	g.AddEdge(0, 2)
	g.AddEdge(2, 4)
	g.AddEdge(1, 3)
	g.AddEdge(3, 5)
	if !g.TwoDisjointPathsUnpaired(0, 1, 4, 5) {
		t.Error("parallel tracks should have disjoint paths")
	}
	// Funnel through a single cut vertex.
	h := New(6)
	h.AddEdge(0, 2)
	h.AddEdge(1, 2)
	h.AddEdge(2, 3)
	h.AddEdge(3, 4)
	h.AddEdge(3, 5)
	if h.TwoDisjointPathsUnpaired(0, 1, 4, 5) {
		t.Error("single cut vertex cannot carry two disjoint paths")
	}
}

func TestTwoDisjointPathsPaired(t *testing.T) {
	// Crossed-only case: s1 reaches t2 and s2 reaches t1 disjointly, but the
	// demanded pairing s1->t1, s2->t2 requires crossing through shared nodes.
	g := New(4)
	g.AddEdge(0, 3) // s1 -> t2
	g.AddEdge(1, 2) // s2 -> t1
	if g.TwoDisjointPathsPaired(0, 2, 1, 3, nil) {
		t.Error("paired check must reject crossed-only configuration")
	}
	if !g.TwoDisjointPathsUnpaired(0, 1, 2, 3) {
		t.Error("unpaired check should accept crossed configuration")
	}
	// Straight configuration.
	h := New(4)
	h.AddEdge(0, 2)
	h.AddEdge(1, 3)
	if !h.TwoDisjointPathsPaired(0, 2, 1, 3, nil) {
		t.Error("paired straight paths should be found")
	}
	// Degenerate zero-length pair.
	if !h.TwoDisjointPathsPaired(0, 0, 1, 3, nil) {
		t.Error("zero-length first path with disjoint second should pass")
	}
	if h.TwoDisjointPathsPaired(0, 0, 0, 3, nil) {
		t.Error("shared endpoint with zero-length path must fail")
	}
}

func TestTwoDisjointPathsPairedActiveFilter(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 2)
	g.AddEdge(1, 4)
	g.AddEdge(1, 3)
	// Without filter, 1 can reach 3 directly.
	if !g.TwoDisjointPathsPaired(0, 2, 1, 3, nil) {
		t.Fatal("expected paired paths")
	}
	// Deactivating node 3 kills the second path.
	if g.TwoDisjointPathsPaired(0, 2, 1, 3, func(v int) bool { return v != 3 }) {
		t.Error("inactive target should fail")
	}
}

func TestEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range edge")
		}
	}()
	g := New(2)
	g.AddEdge(0, 5)
}

// TestRemoveEdgeAndGrow covers the incremental-maintenance primitives used
// by the engine's delta path.
func TestRemoveEdgeAndGrow(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1) // parallel edge
	if !g.RemoveEdge(0, 1) {
		t.Fatal("existing edge not removed")
	}
	if g.M() != 2 {
		t.Fatalf("M=%d want 2", g.M())
	}
	out := g.Out(0)
	if len(out) != 2 || out[0] != 2 || out[1] != 1 {
		t.Fatalf("out(0)=%v want [2 1] (one parallel instance removed, order kept)", out)
	}
	if g.RemoveEdge(1, 0) || g.RemoveEdge(-1, 0) || g.RemoveEdge(0, 9) {
		t.Error("absent or out-of-range edge reported removed")
	}
	g.Grow(5)
	if g.N() != 5 {
		t.Fatalf("N=%d want 5", g.N())
	}
	g.AddEdge(4, 0)
	g.Grow(2) // shrink is a no-op
	if g.N() != 5 || g.M() != 3 {
		t.Errorf("after no-op shrink: N=%d M=%d", g.N(), g.M())
	}
}
