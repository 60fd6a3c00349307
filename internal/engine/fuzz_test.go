package engine

// FuzzEngineParity drives random binary networks through random mutation
// sequences and asserts the three-way invariant at every checkpoint:
// incremental Apply, from-scratch Compile, and per-object Algorithm 1 all
// agree on every node's possible values. The byte input is an op tape —
// deterministic, minimizable, and friendly to coverage-guided mutation.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"trustmap/internal/resolve"
	"trustmap/internal/tn"
)

// fuzzTape decodes bytes into bounded integers.
type fuzzTape struct {
	data []byte
	pos  int
}

func (t *fuzzTape) next(bound int) int {
	if t.pos >= len(t.data) || bound <= 0 {
		return 0
	}
	b := int(t.data[t.pos])
	t.pos++
	return b % bound
}

func (t *fuzzTape) done() bool { return t.pos >= len(t.data) }

// applyTapeOp performs one binary-invariant-preserving mutation drawn from
// the tape; illegal draws are skipped.
func applyTapeOp(tape *fuzzTape, n *tn.Network) {
	nu := n.NumUsers()
	switch tape.next(6) {
	case 0: // add mapping
		x := tape.next(nu)
		z := tape.next(nu)
		if x == z || len(n.In(x)) >= 2 || n.HasExplicit(x) {
			return
		}
		for _, m := range n.In(x) {
			if m.Parent == z {
				return
			}
		}
		n.AddMapping(z, x, 1+tape.next(3))
	case 1: // remove mapping
		x := tape.next(nu)
		in := n.In(x)
		if len(in) == 0 {
			return
		}
		n.RemoveMapping(in[tape.next(len(in))].Parent, x)
	case 2: // re-prioritize
		x := tape.next(nu)
		in := n.In(x)
		if len(in) == 0 {
			return
		}
		n.SetMappingPriority(in[tape.next(len(in))].Parent, x, 1+tape.next(3))
	case 3: // grant belief on a parentless node
		x := tape.next(nu)
		if len(n.In(x)) > 0 || n.HasExplicit(x) {
			return
		}
		n.SetExplicit(x, tn.Value(fmt.Sprintf("v%d", tape.next(3))))
	case 4: // revoke belief
		x := tape.next(nu)
		if !n.HasExplicit(x) {
			return
		}
		n.SetExplicit(x, tn.NoValue)
	case 5: // add user, possibly wired to an existing parent
		id := n.AddUser(fmt.Sprintf("f%d", nu))
		if tape.next(2) == 1 {
			z := tape.next(nu)
			if z != id {
				n.AddMapping(z, id, 1+tape.next(3))
			}
		}
	}
}

func FuzzEngineParity(f *testing.F) {
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{4, 3, 1, 0, 0, 2, 1, 1, 5, 1, 3, 0, 1, 1, 2, 2, 4, 0})
	f.Add([]byte{12, 0, 1, 2, 0, 2, 1, 1, 0, 3, 2, 2, 5, 0, 4, 1, 1, 2, 0, 5, 1, 3, 0, 0, 1, 2})
	// A 3-cycle u1->u2->u3->u1 whose entries u0->u1 and u0->u2 tie with
	// the cycle edges, so Compile floods all three members through SCCOf.
	// The two batches raise u0->u1 above its tie and lower it back:
	// Apply replans the component with two open members (u1 copies, u2
	// floods alone, u3 copies), then floods the whole cycle again.
	f.Add([]byte{2, 0, 0, 2, 1, 1, 0, 3, 2, 1, 0, 1, 3, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 512 {
			t.Skip()
		}
		tape := &fuzzTape{data: data}
		nUsers := 3 + tape.next(13)
		net := tn.New()
		for i := 0; i < nUsers; i++ {
			net.AddUser(fmt.Sprintf("u%d", i))
		}
		net.SetExplicit(tape.next(nUsers), "v0")
		// Initial wiring from the tape.
		for i := 0; i < nUsers; i++ {
			applyTapeOp(tape, net)
		}
		net.EnableJournal()
		net.DrainJournal()
		c, err := Compile(net)
		if err != nil {
			t.Fatalf("seed network not binary: %v", err)
		}
		for !tape.done() {
			// A batch of 1-4 mutations, then an Apply checkpoint.
			for i, k := 0, 1+tape.next(4); i < k; i++ {
				applyTapeOp(tape, net)
			}
			opts := ApplyOptions{MaxDirtyFraction: 1}
			if tape.next(3) == 0 {
				opts = ApplyOptions{} // exercise the fallback threshold too
			}
			next, _, err := c.Apply(net.DrainJournal(), opts)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			c = next
			checkFuzzParity(t, c)
		}
	})
}

// checkFuzzParity asserts Apply ≡ fresh Compile ≡ Algorithm 1 for one
// deterministic object over the current roots, resolved both through the
// signature-dedup path (with a duplicate object exercising the fan-out and
// a second call that must answer as the first) and with dedup disabled.
func checkFuzzParity(t *testing.T, c *CompiledNetwork) {
	t.Helper()
	fresh, err := Compile(c.net.Clone())
	if err != nil {
		t.Fatalf("fresh compile: %v", err)
	}
	beliefs := make(map[int]tn.Value)
	for _, r := range c.Roots() {
		beliefs[r] = tn.Value(fmt.Sprintf("v%d", r%3))
	}
	// "k" and "kdup" share a signature; the dedup path resolves it once.
	objs := map[string]map[int]tn.Value{"k": beliefs, "kdup": beliefs}
	got, err := c.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatalf("apply resolve: %v", err)
	}
	if st := got.Dedup(); st.DistinctSignatures != 1 {
		t.Fatalf("equal objects grouped into %d signatures", st.DistinctSignatures)
	}
	nodedup, err := c.Resolve(context.Background(), objs, Options{Workers: 1, DisableDedup: true})
	if err != nil {
		t.Fatalf("nodedup resolve: %v", err)
	}
	again, err := c.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatalf("second resolve: %v", err)
	}
	want, err := fresh.Resolve(context.Background(), objs, Options{Workers: 1})
	if err != nil {
		t.Fatalf("fresh resolve: %v", err)
	}
	per := c.net.Clone()
	for x, v := range beliefs {
		per.SetExplicit(x, v)
	}
	oracle := resolve.Resolve(per)
	for x := 0; x < c.net.NumUsers(); x++ {
		for _, k := range []string{"k", "kdup"} {
			g := got.Possible(x, k)
			// Readers copy these sets without re-sorting (ObjectRow.Lookup,
			// RowReader.AppendPossible): every one must come back sorted.
			for label, set := range map[string][]tn.Value{"apply": g, "fresh": want.Possible(x, k), "nodedup": nodedup.Possible(x, k), "again": again.Possible(x, k)} {
				if !slices.IsSorted(set) {
					t.Fatalf("poss(%s, %s) from %s not sorted: %v", c.net.Name(x), k, label, set)
				}
			}
			if w := want.Possible(x, k); !sameValues(g, w) {
				t.Fatalf("poss(%s, %s): apply %v vs fresh %v", c.net.Name(x), k, g, w)
			}
			if nd := nodedup.Possible(x, k); !sameValues(g, nd) {
				t.Fatalf("poss(%s, %s): dedup %v vs nodedup %v", c.net.Name(x), k, g, nd)
			}
			if a := again.Possible(x, k); !sameValues(g, a) {
				t.Fatalf("poss(%s, %s): first batch %v vs second batch %v", c.net.Name(x), k, g, a)
			}
			if o := oracle.Possible(x); !sameValues(g, o) {
				t.Fatalf("poss(%s, %s): apply %v vs algorithm 1 %v", c.net.Name(x), k, g, o)
			}
		}
	}
}
