package engine

// Tests for incremental engine maintenance (Apply): edge-case mutations —
// re-rooting, preferred-parent promotion, SCC splits and merges, belief
// grants and revocations — plus randomized mutation-sequence parity
// against a from-scratch Compile and against Algorithm 1.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"trustmap/internal/resolve"
	"trustmap/internal/tn"
	"trustmap/internal/workload"
)

// mustCompile compiles with journaling enabled on the network.
func mustCompile(t *testing.T, n *tn.Network) *CompiledNetwork {
	t.Helper()
	n.EnableJournal()
	n.DrainJournal()
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustApply drains the network journal into the artifact.
func mustApply(t *testing.T, c *CompiledNetwork, opts ApplyOptions) (*CompiledNetwork, ApplyStats) {
	t.Helper()
	next, st, err := c.Apply(c.net.DrainJournal(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return next, st
}

// liveRootObjects builds one object with deterministic per-root beliefs.
func liveRootObjects(c *CompiledNetwork, salt int) map[string]map[int]tn.Value {
	bs := make(map[int]tn.Value)
	for _, r := range c.Roots() {
		bs[r] = tn.Value(fmt.Sprintf("v%d", (r+salt)%3))
	}
	return map[string]map[int]tn.Value{"k": bs}
}

// assertParityWithFresh checks that the incrementally maintained artifact
// resolves every node of every object identically to a from-scratch
// Compile of the same network and to Algorithm 1 run per object.
func assertParityWithFresh(t *testing.T, label string, c *CompiledNetwork, workers int) {
	t.Helper()
	fresh, err := Compile(c.net.Clone())
	if err != nil {
		t.Fatalf("%s: fresh compile: %v", label, err)
	}
	objs := liveRootObjects(c, 1)
	got, err := c.Resolve(context.Background(), objs, Options{Workers: workers})
	if err != nil {
		t.Fatalf("%s: incremental resolve: %v", label, err)
	}
	want, err := fresh.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatalf("%s: fresh resolve: %v", label, err)
	}
	nu := c.net.NumUsers()
	for k, bs := range objs {
		per := c.net.Clone()
		for x, v := range bs {
			per.SetExplicit(x, v)
		}
		oracle := resolve.Resolve(per)
		for x := 0; x < nu; x++ {
			g := got.Possible(x, k)
			w := want.Possible(x, k)
			o := oracle.Possible(x)
			if !sameValues(g, w) {
				t.Fatalf("%s: poss(%s, %s): apply %v vs fresh %v", label, c.net.Name(x), k, g, w)
			}
			if !sameValues(g, o) {
				t.Fatalf("%s: poss(%s, %s): apply %v vs algorithm 1 %v", label, c.net.Name(x), k, g, o)
			}
		}
	}
}

func sameValues(a, b []tn.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chain builds root -> a -> b -> c with a second root feeding b.
func chainNet() *tn.Network {
	n := tn.New()
	r := n.AddUser("r")
	r2 := n.AddUser("r2")
	a := n.AddUser("a")
	b := n.AddUser("b")
	cc := n.AddUser("c")
	n.SetExplicit(r, "seed")
	n.SetExplicit(r2, "seed")
	n.AddMapping(r, a, 2)
	n.AddMapping(a, b, 2)
	n.AddMapping(r2, b, 1)
	n.AddMapping(b, cc, 2)
	return n
}

func TestApplyValueOnlyUpdateReturnsBase(t *testing.T) {
	n := chainNet()
	c := mustCompile(t, n)
	n.SetExplicit(n.UserID("r"), "other") // value change: plan-invariant
	next, st := mustApply(t, c, ApplyOptions{MaxDirtyFraction: 1})
	if next != c || st.DirtyNodes != 0 {
		t.Fatalf("value-only update must return the base artifact, stats %+v", st)
	}
	// The base must remain applicable afterwards.
	n.RemoveMapping(n.UserID("r2"), n.UserID("b"))
	next, _ = mustApply(t, c, ApplyOptions{})
	if next == c {
		t.Fatal("structural update must produce a successor")
	}
	assertParityWithFresh(t, "after value+structural", next, 2)
}

func TestApplyRemoveLastMappingRerootsNode(t *testing.T) {
	n := chainNet()
	c := mustCompile(t, n)
	a := n.UserID("a")
	// Revoke a's only incoming mapping: a becomes a root without belief,
	// so a and everything only it fed lose their possible values.
	n.RemoveMapping(n.UserID("r"), a)
	next, st := mustApply(t, c, ApplyOptions{MaxDirtyFraction: 1})
	if !next.net.IsRoot(a) {
		t.Fatal("a must be re-rooted")
	}
	if st.FullRecompile || st.DirtyNodes == 0 {
		t.Fatalf("expected incremental apply, stats %+v", st)
	}
	if sup := next.Support(a); sup != nil {
		t.Fatalf("re-rooted node without belief must have empty support, got %v", sup)
	}
	// b is still fed by r2: promotion of the remaining parent.
	if sup := next.Support(n.UserID("b")); len(sup) != 1 || sup[0] != n.UserID("r2") {
		t.Fatalf("support(b)=%v want [r2]", sup)
	}
	assertParityWithFresh(t, "re-root", next, 1)
}

func TestApplyPromotionInsideSCCSplit(t *testing.T) {
	// Oscillator {x1,x2} flooded from roots x3, x4. Removing x1 -> x2
	// breaks the cycle: x2 copies from x4 (promotion), x1 copies from x2.
	n := tn.New()
	x1, x2 := n.AddUser("x1"), n.AddUser("x2")
	x3, x4 := n.AddUser("x3"), n.AddUser("x4")
	n.AddMapping(x2, x1, 100)
	n.AddMapping(x3, x1, 50)
	n.AddMapping(x1, x2, 80)
	n.AddMapping(x4, x2, 40)
	n.SetExplicit(x3, "seed")
	n.SetExplicit(x4, "seed")
	c := mustCompile(t, n)
	if c.Stats().NontrivialSCCs != 1 {
		t.Fatalf("precondition: oscillator SCC missing: %+v", c.Stats())
	}
	n.RemoveMapping(x1, x2)
	next, st := mustApply(t, c, ApplyOptions{MaxDirtyFraction: 1})
	if st.FullRecompile {
		t.Fatalf("must stay incremental: %+v", st)
	}
	if got := next.Stats().NontrivialSCCs; got != 0 {
		t.Fatalf("SCC must split into trivial components, still %d nontrivial", got)
	}
	if sup := next.Support(x2); len(sup) != 1 || sup[0] != x4 {
		t.Fatalf("support(x2)=%v want [x4]", sup)
	}
	if sup := next.Support(x1); len(sup) != 1 || sup[0] != x4 {
		t.Fatalf("support(x1)=%v want [x4] (copied through x2)", sup)
	}
	assertParityWithFresh(t, "scc-split", next, 3)
}

func TestApplyAddEdgeMergesSCC(t *testing.T) {
	// r -> a -> b; adding b -> a at equal priority with r creates the
	// cycle {a,b} flooded from r.
	n := tn.New()
	r := n.AddUser("r")
	a := n.AddUser("a")
	b := n.AddUser("b")
	n.SetExplicit(r, "seed")
	n.AddMapping(r, a, 2)
	n.AddMapping(a, b, 2)
	c := mustCompile(t, n)
	n.AddMapping(b, a, 2)
	next, st := mustApply(t, c, ApplyOptions{MaxDirtyFraction: 1})
	if st.FullRecompile {
		t.Fatalf("must stay incremental: %+v", st)
	}
	if got := next.Stats().NontrivialSCCs; got != 1 {
		t.Fatalf("expected one nontrivial SCC after merge, got %d", got)
	}
	assertParityWithFresh(t, "scc-merge", next, 2)
}

func TestApplyBeliefGrantAndRevoke(t *testing.T) {
	n := chainNet()
	c := mustCompile(t, n)
	// Grant a belief to a brand-new user wired under c.
	nu := n.AddUser("newroot")
	n.SetExplicit(nu, "w")
	n.AddMapping(nu, n.UserID("c"), 1)
	next, st := mustApply(t, c, ApplyOptions{MaxDirtyFraction: 1})
	if st.FullRecompile {
		t.Fatalf("small grant must stay incremental: %+v", st)
	}
	if got := len(next.Roots()); got != 3 {
		t.Fatalf("roots=%d want 3", got)
	}
	assertParityWithFresh(t, "grant", next, 2)

	// Revoke r2's belief: its slot becomes a tombstone, downstream loses
	// the support entry.
	n.SetExplicit(n.UserID("r2"), tn.NoValue)
	final, st := mustApply(t, next, ApplyOptions{MaxDirtyFraction: 1})
	if st.FullRecompile {
		t.Fatalf("revocation must stay incremental: %+v", st)
	}
	if got := len(final.Roots()); got != 2 {
		t.Fatalf("roots=%d want 2 after revocation", got)
	}
	for _, x := range []string{"a", "b", "c"} {
		for _, root := range final.Support(n.UserID(x)) {
			if root == n.UserID("r2") {
				t.Fatalf("support(%s) still references revoked root r2", x)
			}
		}
	}
	assertParityWithFresh(t, "revoke", final, 1)
}

func TestApplyThresholdFallback(t *testing.T) {
	n := chainNet()
	c := mustCompile(t, n)
	n.RemoveMapping(n.UserID("r"), n.UserID("a"))
	// a/b/c dirty out of 5 users: 0.6 > 0.5 forces the fallback.
	next, st, err := c.Apply(n.DrainJournal(), ApplyOptions{MaxDirtyFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullRecompile {
		t.Fatalf("expected full recompile, stats %+v", st)
	}
	assertParityWithFresh(t, "fallback", next, 1)
}

func TestApplyConsumedBaseRejected(t *testing.T) {
	n := chainNet()
	c := mustCompile(t, n)
	n.RemoveMapping(n.UserID("r2"), n.UserID("b"))
	muts := n.DrainJournal()
	if _, _, err := c.Apply(muts, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Apply(nil, ApplyOptions{}); err == nil {
		t.Fatal("consumed artifact must reject further Apply")
	}
}

func TestApplyNonBinaryMutationRejected(t *testing.T) {
	n := chainNet()
	c := mustCompile(t, n)
	// Third incoming mapping on b.
	n.AddMapping(n.UserID("r"), n.UserID("b"), 3)
	if _, _, err := c.Apply(n.DrainJournal(), ApplyOptions{}); err == nil {
		t.Fatal("non-binary mutation must be rejected")
	}

	n2 := chainNet()
	c2 := mustCompile(t, n2)
	// Explicit belief on a node with parents.
	n2.SetExplicit(n2.UserID("a"), "v")
	if _, _, err := c2.Apply(n2.DrainJournal(), ApplyOptions{}); err == nil {
		t.Fatal("belief on an internal node must be rejected")
	}
}

func TestApplyResultsSurviveApply(t *testing.T) {
	// A BulkResult resolved before a mutation keeps answering from the
	// base artifact's tables after the successor exists.
	n := chainNet()
	c := mustCompile(t, n)
	objs := liveRootObjects(c, 0)
	before, err := c.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantC := append([]tn.Value(nil), before.Possible(n.UserID("c"), "k")...)
	n.RemoveMapping(n.UserID("b"), n.UserID("c"))
	next, _ := mustApply(t, c, ApplyOptions{})
	if got := before.Possible(n.UserID("c"), "k"); !sameValues(got, wantC) {
		t.Fatalf("old result changed after Apply: %v want %v", got, wantC)
	}
	objsAfter := liveRootObjects(next, 0)
	after, err := next.Resolve(context.Background(), objsAfter, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Possible(n.UserID("c"), "k"); got != nil {
		t.Fatalf("c is cut off, poss=%v want none", got)
	}
}

// randomBinaryMutation applies one random binary-invariant-preserving
// mutation to n, returning false if no mutation applied.
func randomBinaryMutation(rng *rand.Rand, n *tn.Network) bool {
	for attempt := 0; attempt < 20; attempt++ {
		nu := n.NumUsers()
		switch rng.Intn(6) {
		case 0: // add mapping
			x := rng.Intn(nu)
			if len(n.In(x)) >= 2 || n.HasExplicit(x) {
				continue
			}
			z := rng.Intn(nu)
			if z == x {
				continue
			}
			dup := false
			for _, m := range n.In(x) {
				if m.Parent == z {
					dup = true
				}
			}
			if dup {
				continue
			}
			n.AddMapping(z, x, 1+rng.Intn(3))
			return true
		case 1: // remove mapping
			x := rng.Intn(nu)
			in := n.In(x)
			if len(in) == 0 {
				continue
			}
			n.RemoveMapping(in[rng.Intn(len(in))].Parent, x)
			return true
		case 2: // re-prioritize
			x := rng.Intn(nu)
			in := n.In(x)
			if len(in) == 0 {
				continue
			}
			n.SetMappingPriority(in[rng.Intn(len(in))].Parent, x, 1+rng.Intn(3))
			return true
		case 3: // grant belief (roots only, to stay binary)
			x := rng.Intn(nu)
			if len(n.In(x)) > 0 || n.HasExplicit(x) {
				continue
			}
			n.SetExplicit(x, tn.Value(fmt.Sprintf("v%d", rng.Intn(3))))
			return true
		case 4: // revoke belief
			x := rng.Intn(nu)
			if !n.HasExplicit(x) {
				continue
			}
			n.SetExplicit(x, tn.NoValue)
			return true
		case 5: // add user, sometimes wired in
			id := n.AddUser(fmt.Sprintf("u%d", nu))
			if rng.Intn(2) == 0 {
				z := rng.Intn(nu)
				if z != id {
					n.AddMapping(z, id, 1+rng.Intn(3))
				}
			}
			return true
		}
	}
	return false
}

// ensureRoot guarantees at least one explicit belief so the network stays
// interesting (engine handles zero roots, but everything is empty then).
func ensureRoot(rng *rand.Rand, n *tn.Network) {
	for x := 0; x < n.NumUsers(); x++ {
		if n.HasExplicit(x) {
			return
		}
	}
	for attempt := 0; attempt < 50; attempt++ {
		x := rng.Intn(n.NumUsers())
		if len(n.In(x)) == 0 {
			n.SetExplicit(x, "v0")
			return
		}
	}
}

// TestApplyParityRandomMutations is the randomized mutation-sequence
// parity satellite: chains of Apply batches must agree with a fresh
// Compile and with Algorithm 1 at every checkpoint, across worker counts.
func TestApplyParityRandomMutations(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			net := workload.RandomBTN(rng, 8+rng.Intn(20), 0.3, []tn.Value{"v0", "v1", "v2"})
			c := mustCompile(t, net)
			workers := []int{1, 2, 4, 8}
			for batch := 0; batch < 25; batch++ {
				nMuts := 1 + rng.Intn(4)
				for i := 0; i < nMuts; i++ {
					randomBinaryMutation(rng, net)
				}
				ensureRoot(rng, net)
				// Alternate between never-fall-back (pure incremental) and
				// default options (exercises the threshold path too).
				opts := ApplyOptions{MaxDirtyFraction: 1}
				if batch%3 == 2 {
					opts = ApplyOptions{}
				}
				next, _, err := c.Apply(net.DrainJournal(), opts)
				if err != nil {
					t.Fatal(err)
				}
				c = next
				assertParityWithFresh(t, fmt.Sprintf("batch %d", batch), c, workers[batch%len(workers)])
			}
		})
	}
}

// TestApplyLongChainCompaction drives enough mutations through one artifact
// lineage to trigger support-table and component-table compaction and
// re-checks parity.
func TestApplyLongChainCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	net := workload.RandomBTN(rng, 60, 0.3, []tn.Value{"v0", "v1", "v2"})
	c := mustCompile(t, net)
	for batch := 0; batch < 120; batch++ {
		randomBinaryMutation(rng, net)
		ensureRoot(rng, net)
		next, _, err := c.Apply(net.DrainJournal(), ApplyOptions{MaxDirtyFraction: 1})
		if err != nil {
			t.Fatal(err)
		}
		c = next
	}
	c.EnsureSupports()
	live := make(map[int32]bool)
	for _, id := range c.nodeSupport {
		if id >= 0 {
			live[id] = true
		}
	}
	if len(c.supports) >= 64 && len(c.supports) > 2*len(live) {
		t.Errorf("support table not compacted: %d entries, %d live", len(c.supports), len(live))
	}
	if ids := c.comps.len(); ids >= 64 && ids > 2*c.NumSCCs() {
		t.Errorf("component table not compacted: %d ids, %d live", ids, c.NumSCCs())
	}
	assertParityWithFresh(t, "long chain", c, 4)
}

// TestApplyAddUserOnlyGrows covers the batch that adds users without any
// structural mutation: the successor's per-node tables must cover the new
// IDs (a bare grown base used to panic in Support for the new user).
func TestApplyAddUserOnlyGrows(t *testing.T) {
	n := chainNet()
	c := mustCompile(t, n)
	c.ensureSupports() // the pre-grown tables are the regression trigger
	nu := n.AddUser("latecomer")
	next, st := mustApply(t, c, ApplyOptions{})
	if st.DirtyNodes != 0 || st.Seeds != 0 {
		t.Fatalf("user-only batch must not dirty anything: %+v", st)
	}
	if sup := next.Support(nu); sup != nil {
		t.Fatalf("isolated new user support=%v want nil", sup)
	}
	if got := next.Incoming(nu); got != nil {
		t.Fatalf("isolated new user incoming=%v want none", got)
	}
	objs := liveRootObjects(next, 0)
	r, err := next.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if poss, err := r.Lookup(nu, "k"); err != nil || poss != nil {
		t.Fatalf("lookup(latecomer)=%v,%v want empty,nil", poss, err)
	}
	// Wiring the user in afterwards goes through the normal delta path.
	n.SetExplicit(nu, "w")
	n.AddMapping(nu, n.UserID("c"), 3)
	final, _ := mustApply(t, next, ApplyOptions{MaxDirtyFraction: 1})
	assertParityWithFresh(t, "latecomer wired", final, 2)
}
