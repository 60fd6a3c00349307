package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"trustmap/internal/tn"
	"trustmap/internal/workload"
)

// buildOscillator returns the Figure 4b network (binary, two roots).
func buildOscillator() *tn.Network {
	n := tn.New()
	x1 := n.AddUser("x1")
	x2 := n.AddUser("x2")
	x3 := n.AddUser("x3")
	x4 := n.AddUser("x4")
	n.AddMapping(x2, x1, 100)
	n.AddMapping(x3, x1, 50)
	n.AddMapping(x1, x2, 80)
	n.AddMapping(x4, x2, 40)
	n.SetExplicit(x3, "seed")
	n.SetExplicit(x4, "seed")
	return n
}

func TestCompileOscillator(t *testing.T) {
	n := buildOscillator()
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Roots(); len(got) != 2 {
		t.Fatalf("roots=%v want 2", got)
	}
	steps := c.Steps()
	if len(steps) != 1 || steps[0].Kind != StepFlood {
		t.Fatalf("steps=%+v want one flood", steps)
	}
	if len(steps[0].Members) != 2 || len(steps[0].Sources) != 2 {
		t.Errorf("flood shape wrong: %+v", steps[0])
	}
	st := c.Stats()
	if st.FloodSteps != 1 || st.CopySteps != 0 || st.NontrivialSCCs != 1 {
		t.Errorf("stats wrong: %+v", st)
	}
	// x1 and x2 are flooded from both roots; they share one support.
	x1, x2 := n.UserID("x1"), n.UserID("x2")
	if c.nodeSupport[x1] != c.nodeSupport[x2] {
		t.Errorf("flooded members must share a support: %d vs %d", c.nodeSupport[x1], c.nodeSupport[x2])
	}
	sup := c.Support(x1)
	if len(sup) != 2 || sup[0] != n.UserID("x3") || sup[1] != n.UserID("x4") {
		t.Errorf("support of x1 = %v, want [x3 x4]", sup)
	}
	// Condensation introspection: 3 SCCs ({x3}, {x4}, {x1,x2}); the
	// nontrivial one has two members and two entry edges, and the roots
	// precede it in the planner's topological order.
	if c.NumSCCs() != 3 {
		t.Fatalf("SCCs=%d want 3", c.NumSCCs())
	}
	order := c.SCCOrder()
	pos := make(map[int]int, len(order))
	for i, comp := range order {
		pos[comp] = i
	}
	for i := 0; i < c.NumSCCs(); i++ {
		m := c.SCCMembers(i)
		if len(m) != 2 {
			continue
		}
		if len(c.SCCEntries(i)) != 2 {
			t.Errorf("entry edges of {x1,x2} = %v, want 2", c.SCCEntries(i))
		}
		for j := 0; j < c.NumSCCs(); j++ {
			if j != i && pos[j] > pos[i] {
				t.Errorf("root component %d ordered after its dependent %d", j, i)
			}
		}
	}
}

func TestCompileRejectsNonBinary(t *testing.T) {
	n := tn.New()
	x := n.AddUser("x")
	for _, name := range []string{"a", "b", "c"} {
		z := n.AddUser(name)
		n.AddMapping(z, x, 1+z)
	}
	if _, err := Compile(n); err == nil {
		t.Error("non-binary network must be rejected")
	}
}

func TestResolveOscillator(t *testing.T) {
	n := buildOscillator()
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	x1, x3, x4 := n.UserID("x1"), n.UserID("x3"), n.UserID("x4")
	objects := map[string]map[int]tn.Value{
		"conflict": {x3: "v", x4: "w"},
		"agree":    {x3: "u", x4: "u"},
	}
	for _, workers := range []int{1, 4} {
		r, err := c.Resolve(context.Background(), objects, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Possible(x1, "conflict"); len(got) != 2 || got[0] != "v" || got[1] != "w" {
			t.Errorf("workers=%d poss(x1, conflict)=%v want [v w]", workers, got)
		}
		if got := r.Certain(x1, "agree"); got != "u" {
			t.Errorf("workers=%d cert(x1, agree)=%q want u", workers, got)
		}
		if got := r.Certain(x1, "conflict"); got != tn.NoValue {
			t.Errorf("workers=%d cert(x1, conflict)=%q want none", workers, got)
		}
		keys := r.Keys()
		if len(keys) != 2 || keys[0] != "agree" || keys[1] != "conflict" {
			t.Errorf("keys not sorted: %v", keys)
		}
	}
}

func TestResolveMissingRootBelief(t *testing.T) {
	n := buildOscillator()
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	objects := map[string]map[int]tn.Value{
		"k1": {n.UserID("x3"): "v", n.UserID("x4"): "w"},
		"k2": {n.UserID("x3"): "v"}, // x4 missing: violates assumption ii
	}
	for _, workers := range []int{1, 3} {
		if _, err := c.Resolve(context.Background(), objects, Options{Workers: workers}); err == nil {
			t.Errorf("workers=%d: missing root belief must be rejected", workers)
		}
	}
}

func TestResolveCancelledContext(t *testing.T) {
	n := buildOscillator()
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	objects := map[string]map[int]tn.Value{
		"k1": {n.UserID("x3"): "v", n.UserID("x4"): "w"},
	}
	r, err := c.Resolve(ctx, objects, Options{Workers: 1})
	if !errors.Is(err, ErrResolveAborted) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled resolve returned %v, want ErrResolveAborted wrapping context.Canceled", err)
	}
	if r == nil {
		t.Fatal("cancelled resolve must return the partial result")
	}
	if _, err := r.Lookup(n.UserID("x1"), "k1"); !errors.Is(err, ErrResolveAborted) {
		t.Errorf("lookup of dropped object returned %v, want ErrResolveAborted", err)
	}
	if got := r.Certain(n.UserID("x1"), "k1"); got != tn.NoValue {
		t.Errorf("certain of dropped object = %q, want none", got)
	}
}

func TestResolveEmptyObjects(t *testing.T) {
	c, err := Compile(buildOscillator())
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Resolve(context.Background(), nil, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Keys()) != 0 {
		t.Errorf("keys=%v want none", r.Keys())
	}
}

func TestUnreachableNodeHasEmptyPoss(t *testing.T) {
	n := tn.New()
	r := n.AddUser("root")
	a := n.AddUser("a")
	b := n.AddUser("b") // not reachable from root
	n.SetExplicit(r, "seed")
	n.AddMapping(r, a, 2)
	_ = b
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Resolve(context.Background(), map[string]map[int]tn.Value{"k": {r: "v"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Possible(b, "k"); got != nil {
		t.Errorf("unreachable node poss=%v want nil", got)
	}
	if got := res.Possible(a, "k"); len(got) != 1 || got[0] != "v" {
		t.Errorf("poss(a)=%v want [v]", got)
	}
	if sup := c.Support(b); sup != nil {
		t.Errorf("unreachable support=%v want nil", sup)
	}
}

func TestBitset(t *testing.T) {
	b := newBitset(3)
	if !b.empty() {
		t.Error("fresh bitset must be empty")
	}
	for _, i := range []int{0, 63, 64, 130} {
		b.set(i)
	}
	var got []int
	b.each(func(i int) { got = append(got, i) })
	want := []int{0, 63, 64, 130}
	if len(got) != len(want) {
		t.Fatalf("each=%v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("each=%v want %v", got, want)
		}
	}
	o := newBitset(3)
	o.set(5)
	o.or(b)
	if o.empty() || o.key() == b.key() {
		t.Error("or/key broken")
	}
}

// planDigest hashes the compiled plan (every step's kind, target, source,
// members and sources) and its per-component step ranges with FNV-64a.
func planDigest(c *CompiledNetwork) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	putAll := func(vs []int) {
		put(len(vs))
		for _, v := range vs {
			put(v)
		}
	}
	for _, s := range c.steps {
		put(int(s.Kind))
		put(s.Target)
		put(s.Source)
		putAll(s.Members)
		putAll(s.Sources)
	}
	for _, r := range c.planRanges {
		put(int(r.comp))
		put(int(r.lo))
		put(int(r.hi))
	}
	return h.Sum64()
}

// TestCompilePlanDigest pins the plan Compile records on three network
// families: the planner's SCC strategy may change how it finds each flood,
// never which steps it emits, in which order, or how they group into
// components.
func TestCompilePlanDigest(t *testing.T) {
	vals := []tn.Value{"a", "b", "c"}
	for _, c := range []struct {
		name   string
		net    *tn.Network
		digest uint64
	}{
		{"powerlaw-tiered-1500", tn.Binarize(workload.PowerLawTiered(rand.New(rand.NewSource(1)), 1500, 2, 3, 0.1, vals)), 0x91991917813860e3},
		{"nested-scc-30", tn.Binarize(workload.NestedSCC(30)), 0x1c2be17e32a73c9e},
		{"oscillators-8", tn.Binarize(workload.OscillatorClusters(8)), 0x231c18d2d86e44a5},
	} {
		cn, err := Compile(c.net)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := planDigest(cn); got != c.digest {
			t.Errorf("%s: plan digest %#016x, want %#016x (%d steps, %d ranges)", c.name, got, c.digest, len(cn.steps), len(cn.planRanges))
		}
	}
}

// successorDigest hashes what an Apply successor resolves through: its
// flattened plan (every step's kind, target, source, members and
// sources), its support table (each support's root slots, by id) and its
// node -> support map, with FNV-64a.
func successorDigest(c *CompiledNetwork) uint64 {
	c.EnsureSupports()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	putAll := func(vs []int) {
		put(len(vs))
		for _, v := range vs {
			put(v)
		}
	}
	steps := c.Steps()
	put(len(steps))
	for _, s := range steps {
		put(int(s.Kind))
		put(s.Target)
		put(s.Source)
		putAll(s.Members)
		putAll(s.Sources)
	}
	put(len(c.supports))
	for _, b := range c.supports {
		var slots []int
		b.each(func(i int) { slots = append(slots, i) })
		putAll(slots)
	}
	put(len(c.nodeSupport))
	for _, id := range c.nodeSupport {
		put(int(id))
	}
	return h.Sum64()
}

// TestApplyPlanDigest pins what Apply splices on the three
// TestCompilePlanDigest networks, one journal step at a time: a leaf-edge
// removal, a re-prioritisation that flips a preferred parent, a belief
// revocation and its re-grant (a tombstone, then a fresh slot). The
// successors' layout may change; the steps, supports and support ids
// they resolve through may not.
func TestApplyPlanDigest(t *testing.T) {
	vals := []tn.Value{"a", "b", "c"}
	for _, c := range []struct {
		name   string
		net    *tn.Network
		digest uint64
	}{
		{"powerlaw-tiered-1500", tn.Binarize(workload.PowerLawTiered(rand.New(rand.NewSource(1)), 1500, 2, 3, 0.1, vals)), 0x26e840362394c3dc},
		{"nested-scc-30", tn.Binarize(workload.NestedSCC(30)), 0x2b6007d562ae82c2},
		{"oscillators-8", tn.Binarize(workload.OscillatorClusters(8)), 0xe7d8697f082f0c77},
	} {
		n := c.net
		cn := mustCompile(t, n)
		h := fnv.New64a()
		step := func(label string, mutate func()) {
			mutate()
			next, st, err := cn.Apply(n.DrainJournal(), ApplyOptions{MaxDirtyFraction: 1})
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, label, err)
			}
			if next == cn || st.FullRecompile {
				t.Fatalf("%s: %s: want an incremental successor, stats %+v", c.name, label, st)
			}
			cn = next
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], successorDigest(cn))
			h.Write(buf[:])
		}
		g := n.Graph()
		leaf, twoIn, root := -1, -1, -1
		for x := 0; x < n.NumUsers(); x++ {
			if len(n.In(x)) > 0 && (leaf < 0 || len(g.Out(x)) < len(g.Out(leaf))) {
				leaf = x // a leaf where there is one (oscillators have none)
			}
		}
		for x := 0; x < n.NumUsers(); x++ {
			if x != leaf && len(n.In(x)) == 2 {
				twoIn = x // the last one: a mid-sized dirty region
			}
			if root < 0 && n.HasExplicit(x) && len(g.Out(x)) > 0 {
				root = x
			}
		}
		if leaf < 0 || twoIn < 0 || root < 0 {
			t.Fatalf("%s: no edge (%d), two-parent node (%d) or root with children (%d)", c.name, leaf, twoIn, root)
		}
		step("leaf-edge removal", func() { n.RemoveMapping(n.In(leaf)[0].Parent, leaf) })
		step("re-prioritisation", func() {
			in := n.In(twoIn)
			n.SetMappingPriority(in[1].Parent, twoIn, in[0].Priority+1)
		})
		v := n.Explicit(root)
		step("belief revoke", func() { n.SetExplicit(root, tn.NoValue) })
		step("belief grant", func() { n.SetExplicit(root, v) })
		if got := h.Sum64(); got != c.digest {
			t.Errorf("%s: apply digest %#016x, want %#016x", c.name, got, c.digest)
		}
	}
}

// resolveDigest hashes poss(x, k) for every object k, in key order, and
// every node x below nu, with FNV-64a: each set is its length followed by
// its values, each value length-prefixed.
func resolveDigest(r *BulkResult, nu int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	for _, k := range r.Keys() {
		for x := 0; x < nu; x++ {
			set := r.Possible(x, k)
			put(len(set))
			for _, v := range set {
				put(len(v))
				h.Write([]byte(v))
			}
		}
	}
	return h.Sum64()
}

// digestBatches returns the two batches TestResolveDigest resolves over
// the given roots: "repeated", 240 objects cycling 6 root assignments, and
// "distinct", 300 objects (past the dedup probe window, so the scan bails
// out of grouping) that each give the first root a value of their own.
func digestBatches(roots []int) (repeated, distinct map[string]map[int]tn.Value) {
	assign := func(first tn.Value, salt int) map[int]tn.Value {
		bs := make(map[int]tn.Value, len(roots))
		for j, r := range roots {
			bs[r] = tn.Value(fmt.Sprintf("v%d", (salt*31+j*7)%5))
		}
		bs[roots[0]] = first
		return bs
	}
	repeated = make(map[string]map[int]tn.Value, 240)
	for i := 0; i < 240; i++ {
		p := i % 6
		repeated[fmt.Sprintf("r%03d", i)] = assign(tn.Value(fmt.Sprintf("p%d", p)), p)
	}
	distinct = make(map[string]map[int]tn.Value, 300)
	for i := 0; i < 300; i++ {
		distinct[fmt.Sprintf("d%03d", i)] = assign(tn.Value(fmt.Sprintf("u%d", i)), i)
	}
	return repeated, distinct
}

// TestResolveDigest pins what Resolve answers on the three
// TestCompilePlanDigest networks: poss(x, k) for every object and node,
// for a batch of repeated signatures and one of distinct signatures, each
// with dedup on and off and with 1 and 4 workers (all four must agree).
// It then resolves the repeated batch again through a value-only Apply
// successor, which must answer as the base did (the plan is
// belief-value-independent), and both batches through a structural
// successor (a leaf-edge removal). How Resolve stores its answers may
// change; the answers may not.
func TestResolveDigest(t *testing.T) {
	vals := []tn.Value{"a", "b", "c"}
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		net    *tn.Network
		digest uint64
	}{
		{"powerlaw-tiered-1500", tn.Binarize(workload.PowerLawTiered(rand.New(rand.NewSource(1)), 1500, 2, 3, 0.1, vals)), 0x3ff63767b6dda787},
		{"nested-scc-30", tn.Binarize(workload.NestedSCC(30)), 0xb43d75ba0981b3fd},
		{"oscillators-8", tn.Binarize(workload.OscillatorClusters(8)), 0xbaaa1c00642c53b7},
	} {
		n := c.net
		nu := n.NumUsers()
		cn := mustCompile(t, n)
		repeated, distinct := digestBatches(cn.Roots())
		h := fnv.New64a()
		// resolveAll resolves objs under every option set and returns the
		// digest they agree on.
		resolveAll := func(label string, cn *CompiledNetwork, objs map[string]map[int]tn.Value, opts ...Options) uint64 {
			var first uint64
			for i, o := range opts {
				r, err := cn.Resolve(ctx, objs, o)
				if err != nil {
					t.Fatalf("%s: %s %+v: %v", c.name, label, o, err)
				}
				d := resolveDigest(r, nu)
				if i == 0 {
					first = d
				} else if d != first {
					t.Fatalf("%s: %s %+v: digest %#016x, want %#016x as with %+v", c.name, label, o, d, first, opts[0])
				}
			}
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], first)
			h.Write(buf[:])
			return first
		}
		all := []Options{{Workers: 1}, {Workers: 4}, {Workers: 1, DisableDedup: true}, {Workers: 4, DisableDedup: true}}
		rep := resolveAll("repeated", cn, repeated, all...)
		resolveAll("distinct", cn, distinct, all...)

		// Value-only: the plan is belief-value-independent, so the
		// artifact carries over and answers as before.
		root := cn.Roots()[0]
		n.SetExplicit(root, "changed")
		same := mustApplyIncremental(t, cn)
		r, err := same.Resolve(ctx, repeated, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if d := resolveDigest(r, nu); d != rep {
			t.Errorf("%s: value-only successor: digest %#016x, want %#016x", c.name, d, rep)
		}

		// Structural: a leaf-edge removal splices the plan.
		g := n.Graph()
		leaf := -1
		for x := 0; x < nu; x++ {
			if len(n.In(x)) > 0 && (leaf < 0 || len(g.Out(x)) < len(g.Out(leaf))) {
				leaf = x
			}
		}
		n.RemoveMapping(n.In(leaf)[0].Parent, leaf)
		next := mustApplyIncremental(t, same)
		if next == same {
			t.Fatalf("%s: leaf-edge removal returned the base artifact", c.name)
		}
		resolveAll("structural/repeated", next, repeated, Options{Workers: 4}, Options{Workers: 1, DisableDedup: true})
		resolveAll("structural/distinct", next, distinct, Options{Workers: 4}, Options{Workers: 1, DisableDedup: true})
		if got := h.Sum64(); got != c.digest {
			t.Errorf("%s: resolve digest %#016x, want %#016x", c.name, got, c.digest)
		}
	}
}

// mustApplyIncremental drains the network journal into c, requiring no
// full recompile.
func mustApplyIncremental(t *testing.T, c *CompiledNetwork) *CompiledNetwork {
	t.Helper()
	next, st := mustApply(t, c, ApplyOptions{MaxDirtyFraction: 1})
	if st.FullRecompile {
		t.Fatalf("want an incremental Apply, stats %+v", st)
	}
	return next
}
