package trustmap

import (
	"context"
	"testing"
)

// indusNetwork builds the running example of Figures 1 and 2.
func indusNetwork() *Network {
	n := New()
	n.AddTrust("Alice", "Bob", 100)
	n.AddTrust("Alice", "Charlie", 50)
	n.AddTrust("Bob", "Alice", 80)
	return n
}

// TestFigure1b reproduces Alice's view of the three glyphs in Figure 1b.
func TestFigure1b(t *testing.T) {
	// Glyph 1: Alice herself says ship hull.
	n := indusNetwork()
	n.SetBelief("Alice", "ship hull")
	n.SetBelief("Bob", "cow")
	n.SetBelief("Charlie", "jar")
	r, err := n.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Certain("Alice"); !ok || v != "ship hull" {
		t.Errorf("glyph1: Alice sees %q want ship hull", v)
	}
	// Glyph 2: Bob says fish, Charlie says knot; Alice trusts Bob more.
	n = indusNetwork()
	n.SetBelief("Bob", "fish")
	n.SetBelief("Charlie", "knot")
	r, err = n.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Certain("Alice"); !ok || v != "fish" {
		t.Errorf("glyph2: Alice sees %q want fish", v)
	}
	// Glyph 3: Bob and Charlie agree on arrow.
	n = indusNetwork()
	n.SetBelief("Bob", "arrow")
	n.SetBelief("Charlie", "arrow")
	r, err = n.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Certain("Alice"); !ok || v != "arrow" {
		t.Errorf("glyph3: Alice sees %q want arrow", v)
	}
}

func TestUpdateAndRevoke(t *testing.T) {
	n := indusNetwork()
	n.SetBelief("Charlie", "jar")
	r, _ := n.Resolve()
	if v, _ := r.Certain("Alice"); v != "jar" {
		t.Fatalf("Alice should import jar, got %q", v)
	}
	// Update: Charlie changes his mind; re-resolving reflects it
	// (contrast with Example 1.2's stale values).
	n.SetBelief("Charlie", "cow")
	r, _ = n.Resolve()
	if v, _ := r.Certain("Alice"); v != "cow" {
		t.Fatalf("after update Alice should see cow, got %q", v)
	}
	// Revocation: no information remains.
	n.RemoveBelief("Charlie")
	r, _ = n.Resolve()
	if vs := r.Possible("Alice"); len(vs) != 0 {
		t.Fatalf("after revocation Alice should see nothing, got %v", vs)
	}
}

func TestOscillatorFacade(t *testing.T) {
	n := New()
	n.AddTrust("x1", "x2", 100)
	n.AddTrust("x1", "x3", 50)
	n.AddTrust("x2", "x1", 80)
	n.AddTrust("x2", "x4", 40)
	n.SetBelief("x3", "v")
	n.SetBelief("x4", "w")
	r, err := n.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if vs := r.Possible("x1"); len(vs) != 2 {
		t.Errorf("poss(x1)=%v want two values", vs)
	}
	if _, ok := r.Certain("x1"); ok {
		t.Error("x1 must have no certain value")
	}
	// Lineage of each possible value verifies.
	for _, v := range r.Possible("x1") {
		path, ok := r.Lineage("x1", v)
		if !ok || len(path) < 2 {
			t.Errorf("lineage(x1,%s)=%v ok=%v", v, path, ok)
		}
	}
	// Agreement: x1 and x2 agree in every stable solution.
	c, err := n.AnalyzeConflicts()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Agree("x1", "x2") {
		t.Error("x1 and x2 must agree")
	}
	if c.Agree("x3", "x4") {
		t.Error("x3 and x4 must not agree")
	}
	pairs := c.PossiblePairs("x1", "x2")
	if len(pairs) != 2 {
		t.Errorf("poss(x1,x2)=%v want diagonal pairs", pairs)
	}
	if cons := c.Consensus("x1", "x2"); len(cons) != 2 {
		t.Errorf("consensus=%v want both values", cons)
	}
}

func TestSkepticFacade(t *testing.T) {
	n := New()
	n.AddTrust("x3", "x2", 2)
	n.AddTrust("x3", "x1", 1)
	n.SetBelief("x2", "a")
	n.SetConstraint("x1", "b")
	s, err := n.ResolveSkeptic()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Certain("x3"); !ok || v != "a" {
		t.Errorf("x3 = %q want a", v)
	}
	// A node whose preferred parent rejects the incoming value goes to ⊥.
	n2 := New()
	n2.AddTrust("x", "filter", 2)
	n2.AddTrust("x", "source", 1)
	n2.SetConstraint("filter", "v")
	n2.SetBelief("source", "v")
	s2, err := n2.ResolveSkeptic()
	if err != nil {
		t.Fatal(err)
	}
	if !s2.RejectsEverything("x") {
		t.Errorf("x should reject everything, states: %v", s2.Describe("x"))
	}
}

func TestExactParadigms(t *testing.T) {
	n := New()
	n.AddTrust("x3", "x2", 2)
	n.AddTrust("x3", "x1", 1)
	n.SetBelief("x2", "a")
	n.SetConstraint("x1", "a")
	for _, p := range []Paradigm{Agnostic, Eclectic, Skeptic} {
		poss, err := n.ExactParadigm(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := poss["x3"]; len(got) != 1 || got[0] != "a" {
			t.Errorf("%v: poss(x3)=%v want [a]", p, got)
		}
	}
}

func TestBulkFacade(t *testing.T) {
	n := indusNetwork()
	objects := map[string]map[string]string{
		"glyph1": {"Bob": "cow", "Charlie": "jar"},
		"glyph2": {"Bob": "fish", "Charlie": "knot"},
		"glyph3": {"Bob": "arrow", "Charlie": "arrow"},
	}
	rows, err := n.bulkResolveFresh(context.Background(), objects, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := byObject(rows)
	cases := map[string]string{"glyph1": "cow", "glyph2": "fish", "glyph3": "arrow"}
	for obj, want := range cases {
		if v, ok := r[obj].Certain("Alice"); !ok || v != want {
			t.Errorf("Alice/%s = %q want %q", obj, v, want)
		}
	}
}

// TestBulkFacadeStrategiesAgree checks that the compiled engine returns
// identical results at several worker counts through the facade types.
// (Its parity with the SQL lowering of Section 4 and with Algorithm 1 is
// proven below the facade, in internal/engine/parity_test.go.)
func TestBulkFacadeStrategiesAgree(t *testing.T) {
	n := indusNetwork()
	objects := map[string]map[string]string{
		"glyph1": {"Bob": "cow", "Charlie": "jar"},
		"glyph2": {"Bob": "fish", "Charlie": "knot"},
		"glyph3": {"Bob": "arrow", "Charlie": "arrow"},
	}
	ref, err := n.bulkResolveFresh(context.Background(), objects, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		eng, err := n.bulkResolveFresh(context.Background(), objects, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range eng {
			obj := row.Object
			for _, user := range n.Users() {
				if a, b := row.Possible(user), ref[i].Possible(user); obj != ref[i].Object || !eqStrs(a, b) {
					t.Fatalf("workers=%d %s/%s: %v vs sequential %s %v", workers, user, obj, a, ref[i].Object, b)
				}
				ca, oka := row.Certain(user)
				cb, okb := ref[i].Certain(user)
				if ca != cb || oka != okb {
					t.Fatalf("workers=%d cert %s/%s: %q,%v vs sequential %q,%v", workers, user, obj, ca, oka, cb, okb)
				}
			}
		}
	}
}

func TestValidationErrors(t *testing.T) {
	n := New()
	n.AddTrust("a", "a", 5)
	if _, err := n.Resolve(); err == nil {
		t.Error("self trust must be rejected")
	}
	n2 := New()
	n2.SetBelief("a", "v")
	n2.SetConstraint("a", "w")
	if _, err := n2.Resolve(); err == nil {
		t.Error("belief+constraint must be rejected")
	}
	n3 := New()
	n3.AddTrust("x", "a", 1)
	n3.AddTrust("x", "b", 1) // tie
	n3.SetBelief("a", "v")
	n3.SetConstraint("b", "w")
	if _, err := n3.ResolveSkeptic(); err == nil {
		t.Error("ties must be rejected with constraints")
	}
}

func TestUnknownUserQueries(t *testing.T) {
	n := indusNetwork()
	n.SetBelief("Charlie", "jar")
	r, _ := n.Resolve()
	if vs := r.Possible("Nobody"); vs != nil {
		t.Error("unknown user should have no possible values")
	}
	if _, ok := r.Certain("Nobody"); ok {
		t.Error("unknown user should have no certain value")
	}
	if _, ok := r.Lineage("Nobody", "jar"); ok {
		t.Error("unknown user should have no lineage")
	}
}

func TestNonBinaryNetworksSupported(t *testing.T) {
	// A user trusting four others is binarized transparently.
	n := New()
	for i, name := range []string{"a", "b", "c", "d"} {
		n.AddTrust("x", name, i+1)
	}
	n.SetBelief("a", "va")
	n.SetBelief("d", "vd")
	r, err := n.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Certain("x"); !ok || v != "vd" {
		t.Errorf("x = %q want vd (highest priority)", v)
	}
}

func TestDOTExport(t *testing.T) {
	n := indusNetwork()
	n.SetBelief("Charlie", "jar")
	dot := n.DOT()
	for _, want := range []string{"digraph", `"Bob" -> "Alice"`, "jar"} {
		if !contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestResolveDeterministic: resolving twice gives identical results.
func TestResolveDeterministic(t *testing.T) {
	n := indusNetwork()
	n.SetBelief("Bob", "fish")
	n.SetBelief("Charlie", "knot")
	r1, _ := n.Resolve()
	r2, _ := n.Resolve()
	for _, u := range n.Users() {
		p1, p2 := r1.Possible(u), r2.Possible(u)
		if len(p1) != len(p2) {
			t.Fatalf("nondeterministic possible sets for %s", u)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("nondeterministic possible sets for %s", u)
			}
		}
	}
}

// TestCertainImpliesPossible: a certain value is always possible.
func TestCertainImpliesPossible(t *testing.T) {
	n := indusNetwork()
	n.SetBelief("Bob", "fish")
	n.SetBelief("Charlie", "knot")
	r, _ := n.Resolve()
	for _, u := range n.Users() {
		if v, ok := r.Certain(u); ok {
			found := false
			for _, p := range r.Possible(u) {
				if p == v {
					found = true
				}
			}
			if !found {
				t.Errorf("certain value %q of %s not possible", v, u)
			}
		}
	}
}
