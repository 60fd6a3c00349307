package trustmap

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// Plan-maintenance tests: the compiled artifact a Store keeps live across
// mutations (twin.go), driven through the public Store surface — Update,
// the single-op mutators, ResolveBatch, Resolve — and observed through
// Stats().SessionStats.

// txAddTrust adds a new mapping through a one-op batch (strict: errors on
// duplicates, unlike the upserting Store.SetTrust).
func txAddTrust(s *Store, truster, trusted string, priority int) error {
	return s.Update(func(tx *StoreTx) error { return tx.AddTrust(truster, trusted, priority) })
}

// txUpdateTrust re-prioritizes an existing mapping through a one-op batch
// and reports whether it existed.
func txUpdateTrust(s *Store, truster, trusted string, priority int) (ok bool, err error) {
	err = s.Update(func(tx *StoreTx) (err error) {
		ok, err = tx.UpdateTrust(truster, trusted, priority)
		return err
	})
	return ok, err
}

// storeNet returns a facade copy of the store's own trust network: the
// input of the from-scratch oracle, since a store never writes back to
// the network it was built from.
func storeNet(s *Store) *Network {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return &Network{inner: s.net.Clone(), constraints: make(map[int][]string)}
}

// planRoots lists the users whose beliefs vary per object for a
// store whose network is n, with the given extra roots.
func planRoots(n *Network, extras []string) []string {
	seen := map[string]bool{}
	var out []string
	for x := 0; x < n.inner.NumUsers(); x++ {
		if n.inner.HasExplicit(x) {
			name := n.inner.Name(x)
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	for _, name := range extras {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// planObjects builds deterministic per-object beliefs over the roots.
func planObjects(rng *rand.Rand, roots []string, count int) map[string]map[string]string {
	out := make(map[string]map[string]string, count)
	for i := 0; i < count; i++ {
		bs := make(map[string]string, len(roots))
		for _, r := range roots {
			bs[r] = fmt.Sprintf("v%d", rng.Intn(3))
		}
		out[fmt.Sprintf("obj%d", i)] = bs
	}
	return out
}

// assertMatchesFresh fails the test where matchesFresh finds a
// divergence.
func assertMatchesFresh(t *testing.T, label string, s *Store, objects map[string]map[string]string) {
	t.Helper()
	if err := matchesFresh(s, objects); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// matchesFresh compares the store's ad-hoc batch resolution with a
// from-scratch bulkResolveFresh on the store's network and the same
// objects, for every user and object.
func matchesFresh(s *Store, objects map[string]map[string]string) error {
	got, err := s.ResolveBatch(context.Background(), objects)
	if err != nil {
		return fmt.Errorf("store resolve: %w", err)
	}
	n := storeNet(s)
	want, err := n.bulkResolveFresh(context.Background(), objects, 2)
	if err != nil {
		return fmt.Errorf("fresh resolve: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("store resolved %d rows, fresh %d", len(got), len(want))
	}
	for i, row := range got {
		k := row.Object
		if k != want[i].Object {
			return fmt.Errorf("row %d: store %q vs fresh %q", i, k, want[i].Object)
		}
		for _, u := range n.Users() {
			if g, w := row.Possible(u), want[i].Possible(u); !eqStrs(g, w) {
				return fmt.Errorf("poss(%s, %s): store %v vs fresh %v", u, k, g, w)
			}
			gc, gok := row.Certain(u)
			wc, wok := want[i].Certain(u)
			if gc != wc || gok != wok {
				return fmt.Errorf("cert(%s, %s): store %q,%v vs fresh %q,%v", u, k, gc, gok, wc, wok)
			}
		}
	}
	return nil
}

// TestSessionLifecycle walks the documented lifecycle: compile once,
// resolve many, mutate through the store, resolve again from the
// incrementally re-planned artifact.
func TestSessionLifecycle(t *testing.T) {
	n := New()
	n.AddTrust("alice", "bob", 100)
	n.AddTrust("alice", "carol", 50)
	n.AddTrust("bob", "alice", 80)
	n.AddTrust("dave", "alice", 10)
	n.SetBelief("bob", "fish")
	n.SetBelief("carol", "knot")
	// MaxDirtyFraction 1 keeps even this tiny demo network on the
	// incremental path (the default threshold would recompile it whole).
	s, err := n.NewStore(WithWorkers(2), WithMaxDirtyFraction(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	objects := map[string]map[string]string{
		"glyph1": {"bob": "fish", "carol": "knot"},
		"glyph2": {"bob": "cow", "carol": "cow"},
	}
	assertMatchesFresh(t, "initial", s, objects)

	// Mutate through the store: revoke, re-prioritize, update a belief.
	if ok, err := s.RemoveTrust(ctx, "alice", "bob"); err != nil || !ok {
		t.Fatalf("existing trust not removed: ok=%v err=%v", ok, err)
	}
	assertMatchesFresh(t, "after revoke", s, objects)
	if ok, err := txUpdateTrust(s, "alice", "carol", 120); err != nil || !ok {
		t.Fatalf("existing trust not updated: ok=%v err=%v", ok, err)
	}
	if err := txAddTrust(s, "alice", "bob", 60); err != nil {
		t.Fatal(err)
	}
	assertMatchesFresh(t, "after re-add", s, objects)
	if err := s.SetDefault(ctx, "carol", "jar"); err != nil {
		t.Fatal(err)
	}
	// carol's new default applies when an object omits her.
	r, err := s.Resolve(ctx, map[string]string{"bob": "fish"})
	if err != nil {
		t.Fatal(err)
	}
	if poss := r.Possible("carol"); len(poss) != 1 || poss[0] != "jar" {
		t.Fatalf("poss(carol)=%v want [jar] (network default)", poss)
	}
	st := s.Stats()
	if st.Compiles != 1 {
		t.Errorf("store recompiled from scratch %d times, want 1 (all mutations incremental)", st.Compiles)
	}
	if st.IncrementalApplies == 0 {
		t.Error("no incremental applies recorded")
	}
}

// TestSessionRandomizedParityWithFresh is the heavyweight re-encoding
// check: random facade networks (non-binary, cascades, hoisting) mutated
// through the store must resolve identically to a from-scratch
// bulkResolveFresh at every checkpoint — after every op on the small
// networks of the "small" regime.
func TestSessionRandomizedParityWithFresh(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			n := New()
			nUsers := 6 + rng.Intn(10)
			name := func(i int) string { return fmt.Sprintf("u%d", i) }
			for i := 0; i < nUsers; i++ {
				n.AddUser(name(i))
			}
			for i := 0; i < nUsers*2; i++ {
				a, b := rng.Intn(nUsers), rng.Intn(nUsers)
				if a != b {
					n.AddTrust(name(a), name(b), 1+rng.Intn(5))
				}
			}
			n.SetBelief(name(rng.Intn(nUsers)), "v0")
			extras := []string{name(rng.Intn(nUsers))}
			ctx := context.Background()
			s, err := n.NewStore(WithWorkers(1+rng.Intn(4)), WithExtraRoots(extras...))
			if err != nil {
				// Random graphs can violate Validate (duplicate trust from
				// the generator); skip those seeds.
				t.Skipf("seed network invalid: %v", err)
			}
			for batch := 0; batch < 15; batch++ {
				for i, k := 0, 1+rng.Intn(3); i < k; i++ {
					switch rng.Intn(5) {
					case 0:
						a, b := rng.Intn(nUsers), rng.Intn(nUsers)
						if a != b {
							txAddTrust(s, name(a), name(b), 1+rng.Intn(5)) // dup errors are no-ops
						}
					case 1:
						s.RemoveTrust(ctx, name(rng.Intn(nUsers)), name(rng.Intn(nUsers)))
					case 2:
						txUpdateTrust(s, name(rng.Intn(nUsers)), name(rng.Intn(nUsers)), 1+rng.Intn(5))
					case 3:
						if err := s.SetDefault(ctx, name(rng.Intn(nUsers)), fmt.Sprintf("v%d", rng.Intn(3))); err != nil {
							t.Fatal(err)
						}
					case 4:
						if err := s.DeleteDefault(ctx, name(rng.Intn(nUsers))); err != nil {
							t.Fatal(err)
						}
					}
				}
				roots := planRoots(storeNet(s), extras)
				if len(roots) == 0 {
					if err := s.SetDefault(ctx, name(0), "v0"); err != nil {
						t.Fatal(err)
					}
					roots = planRoots(storeNet(s), extras)
				}
				objects := planObjects(rng, roots, 3)
				assertMatchesFresh(t, fmt.Sprintf("batch %d", batch), s, objects)
			}
		})
	}
	// Small networks, where every op is likely to move a user across an
	// encoding boundary: a first parent, a hoisted belief, a revoked one.
	t.Run("small", func(t *testing.T) {
		t.Parallel()
		const seeds = 1000
		var failed []int64
		var first error
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			if err := twinParity(randomTwinCase(rng), rng); err != nil {
				if first == nil {
					first = fmt.Errorf("seed %d: %w", seed, err)
				}
				failed = append(failed, seed)
			}
		}
		if len(failed) > 0 {
			t.Fatalf("%d of %d seeds diverge from a fresh compile %v; first: %v", len(failed), seeds, failed, first)
		}
	})
}

// twinOp is one trust-network mutation of a small-network parity case,
// on users u<a> and u<b>: kind 0 adds trust a -> b with priority prio, 1
// revokes it, 2 re-prioritizes it, 3 sets a's belief to v<prio%3> and 4
// revokes it.
type twinOp struct{ kind, a, b, prio int }

// twinCase is one small-network parity case: users u0..u<users-1>, the
// trust edges of setup (kinds ignored), belief "v0" on u<belief> and
// the extra root u<extra> (none when extra is negative) at compile time,
// then ops applied one at a time.
type twinCase struct {
	users, belief, extra int
	setup, ops           []twinOp
}

// randomTwinCase draws 3–6 users, up to one setup edge per user, an
// extra root half the time and 12 mixed trust and belief ops.
func randomTwinCase(rng *rand.Rand) twinCase {
	c := twinCase{users: 3 + rng.Intn(4), extra: -1}
	c.belief = rng.Intn(c.users)
	if rng.Intn(2) == 0 {
		c.extra = rng.Intn(c.users)
	}
	op := func(kind int) twinOp {
		return twinOp{kind, rng.Intn(c.users), rng.Intn(c.users), 1 + rng.Intn(5)}
	}
	for i := rng.Intn(c.users + 1); i > 0; i-- {
		c.setup = append(c.setup, op(0))
	}
	for i := 0; i < 12; i++ {
		c.ops = append(c.ops, op(rng.Intn(5)))
	}
	return c
}

// decodeTwinCase reads a small-network parity case from fuzz bytes: the
// user count, the belief holder, the extra root and the setup edge
// count, then four bytes per op.
func decodeTwinCase(data []byte) twinCase {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	c := twinCase{users: 2 + at(0)%5}
	c.belief, c.extra = at(1)%c.users, at(2)%(c.users+1)-1
	nsetup := at(3) % (c.users + 1)
	for i := 4; i+4 <= len(data) && len(c.ops) < 24; i += 4 {
		op := twinOp{int(data[i]) % 5, int(data[i+1]) % c.users, int(data[i+2]) % c.users, 1 + int(data[i+3])%5}
		if len(c.setup) < nsetup {
			c.setup = append(c.setup, op)
		} else {
			c.ops = append(c.ops, op)
		}
	}
	return c
}

// twinParity compiles c's network into a store that folds every change
// in incrementally (WithMaxDirtyFraction(1)), applies c's ops one at a
// time, and compares the store with a fresh compile of its network
// after every op, on objects drawn from rng over the plan's roots.
func twinParity(c twinCase, rng *rand.Rand) error {
	ctx := context.Background()
	name := func(i int) string { return fmt.Sprintf("u%d", i) }
	n := New()
	for i := 0; i < c.users; i++ {
		n.AddUser(name(i))
	}
	edges := map[[2]int]bool{}
	for _, op := range c.setup {
		if op.a != op.b && !edges[[2]int{op.a, op.b}] {
			edges[[2]int{op.a, op.b}] = true
			n.AddTrust(name(op.a), name(op.b), op.prio)
		}
	}
	n.SetBelief(name(c.belief), "v0")
	opts := []StoreOption{WithWorkers(1), WithMaxDirtyFraction(1)}
	var extras []string
	if c.extra >= 0 {
		extras = []string{name(c.extra)}
		opts = append(opts, WithExtraRoots(extras...))
	}
	s, err := n.NewStore(opts...)
	if err != nil {
		return err
	}
	for i, op := range c.ops {
		a, b := name(op.a), name(op.b)
		switch op.kind {
		case 0:
			txAddTrust(s, a, b, op.prio) // self-trust and duplicates are rejected no-ops
		case 1:
			_, err = s.RemoveTrust(ctx, a, b)
		case 2:
			_, err = txUpdateTrust(s, a, b, op.prio)
		case 3:
			err = s.SetDefault(ctx, a, fmt.Sprintf("v%d", op.prio%3))
		case 4:
			err = s.DeleteDefault(ctx, a)
		}
		if err == nil {
			err = matchesFresh(s, planObjects(rng, planRoots(storeNet(s), extras), 2))
		}
		if err != nil {
			return fmt.Errorf("op %d %+v: %w", i, op, err)
		}
	}
	return nil
}

// twinWedge is the op sequence that once left a revoked hoisted belief
// on its helper: u0 states a belief while trusting u1 (the belief moves
// onto a helper above the mapping), revokes the mapping, then revokes
// the belief.
var twinWedge = []twinOp{{0, 0, 1, 1}, {3, 0, 0, 1}, {1, 0, 1, 0}, {4, 0, 0, 0}}

// FuzzStoreTwinParity drives twinParity with ops decoded from the fuzz
// input: whatever the mutation sequence, the store's incrementally
// maintained twin must resolve like a fresh compile of its network.
func FuzzStoreTwinParity(f *testing.F) {
	wedge := []byte{0, 1, 0, 0} // two users, belief on u1, no extra root, no setup edges
	for _, op := range twinWedge {
		wedge = append(wedge, byte(op.kind), byte(op.a), byte(op.b), byte(op.prio-1))
	}
	f.Add(wedge)
	f.Add([]byte{4, 0, 1, 3, 0, 1, 2, 3, 0, 2, 3, 1, 0, 3, 1, 4, 3, 1, 1, 1, 1, 1, 2, 0, 4, 1, 1, 0, 2, 1, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		if err := twinParity(decodeTwinCase(data), rand.New(rand.NewSource(int64(h.Sum64())))); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSessionGrowsUsers adds brand-new users through the store after
// compilation: binarized IDs diverge from original IDs and results must
// still map back correctly.
func TestSessionGrowsUsers(t *testing.T) {
	n := New()
	n.AddTrust("reader", "curatorA", 10) // curatorA gets a hoisted helper
	n.SetBelief("curatorA", "fish")
	s, err := n.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := txAddTrust(s, "reader", "newbie", 20); err != nil {
		t.Fatal(err)
	}
	if err := s.SetDefault(context.Background(), "newbie", "jar"); err != nil {
		t.Fatal(err)
	}
	objects := map[string]map[string]string{
		"o1": {"curatorA": "fish", "newbie": "jar"},
		"o2": {"curatorA": "cow", "newbie": "cow"},
	}
	assertMatchesFresh(t, "grown", s, objects)
	r, err := s.Resolve(context.Background(), nil) // defaults for both roots
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Certain("reader"); !ok || v != "jar" {
		t.Fatalf("cert(reader)=%q,%v want jar (newbie outranks curatorA)", v, ok)
	}
}

// TestAdoptedNetworkIsDetached mutates the network a store was built
// from. The store owns a copy, so its users, epoch, compile count and
// every resolved cell stay exactly as they were.
func TestAdoptedNetworkIsDetached(t *testing.T) {
	n := New()
	n.AddTrust("a", "b", 10)
	n.SetBelief("b", "v1")
	s, err := n.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	objects := map[string]map[string]string{"k": {"b": "x"}}
	before, err := s.ResolveBatch(ctx, objects)
	if err != nil {
		t.Fatal(err)
	}
	users, epoch := s.Users(), s.Epoch()

	n.AddTrust("a", "c", 20) // c is a brand-new user that outranks b
	n.SetBelief("c", "v2")

	after, err := s.ResolveBatch(ctx, objects)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Users(); !eqStrs(got, users) {
		t.Errorf("users=%v want %v (the caller's new user must not reach the store)", got, users)
	}
	if got := s.Epoch(); got != epoch {
		t.Errorf("epoch=%d want %d", got, epoch)
	}
	if got := s.Stats().Compiles; got != 1 {
		t.Errorf("compiles=%d want 1 (nothing to rebuild)", got)
	}
	for _, u := range users {
		if g, w := after[0].Possible(u), before[0].Possible(u); !eqStrs(g, w) {
			t.Errorf("poss(%s)=%v want %v", u, g, w)
		}
		gc, gok := after[0].Certain(u)
		wc, wok := before[0].Certain(u)
		if gc != wc || gok != wok {
			t.Errorf("cert(%s)=%q,%v want %q,%v", u, gc, gok, wc, wok)
		}
	}
	assertMatchesFresh(t, "detached", s, objects)
}

// TestSessionValueOnlyUpdateIsFree checks that changing a belief's value
// keeps the whole plan (no incremental apply, no recompile).
func TestSessionValueOnlyUpdateIsFree(t *testing.T) {
	n := New()
	n.AddTrust("a", "b", 10)
	n.SetBelief("b", "v1")
	s, err := n.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SetDefault(context.Background(), "b", "v2"); err != nil {
		t.Fatal(err)
	}
	r, err := s.Resolve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Certain("a"); v != "v2" {
		t.Fatalf("cert(a)=%q want v2", v)
	}
	st := s.Stats()
	if st.Compiles != 1 || st.IncrementalApplies != 0 || st.ValueOnlyUpdates != 1 {
		t.Errorf("stats=%+v want 1 compile, 0 applies, 1 value-only update", st)
	}
}

// TestSessionRejectsMisuse covers the mutators' and ad-hoc reads' error
// paths.
func TestSessionRejectsMisuse(t *testing.T) {
	n := New()
	n.AddTrust("a", "b", 10)
	n.SetBelief("b", "v")
	s, err := n.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := txAddTrust(s, "a", "a", 5); err == nil {
		t.Error("self-trust must be rejected")
	}
	if err := s.SetTrust(ctx, "a", "a", 5); err == nil {
		t.Error("self-trust must be rejected by the upsert too")
	}
	if err := txAddTrust(s, "a", "b", 5); err == nil {
		t.Error("duplicate trust must be rejected")
	}
	if err := s.SetDefault(ctx, "a", ""); err == nil {
		t.Error("empty belief value must be rejected")
	}
	if ok, err := s.RemoveTrust(ctx, "a", "nobody"); ok || err != nil {
		t.Errorf("unknown users must report false: ok=%v err=%v", ok, err)
	}
	if ok, err := txUpdateTrust(s, "nobody", "b", 1); ok || err != nil {
		t.Errorf("unknown users must report false: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Epoch != 1 {
		t.Errorf("rejected and no-op mutations published %d epochs, want none", st.Epoch-1)
	}
	if _, err := s.ResolveBatch(ctx, map[string]map[string]string{
		"k": {"ghost": "v"},
	}); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown object user: err=%v want ErrUnknownUser", err)
	}
	if _, err := s.ResolveBatch(ctx, map[string]map[string]string{
		"k": {"a": "v"}, // a is not a root
	}); err == nil {
		t.Error("non-root object user must be rejected")
	}
}

// TestBulkResolutionLookupSentinels covers the lookup contract on the rows
// of a bulk resolution: unknown users and objects answer with explicit
// errors instead of silent empties.
func TestBulkResolutionLookupSentinels(t *testing.T) {
	n := New()
	n.AddTrust("alice", "bob", 100)
	n.SetBelief("bob", "fish")
	objects := map[string]map[string]string{"obj1": {"bob": "fish"}}
	fresh, err := n.bulkResolveFresh(context.Background(), objects, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := n.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	served, err := s.ResolveBatch(context.Background(), objects)
	if err != nil {
		t.Fatal(err)
	}
	for label, rows := range map[string][]ObjectRow{"fresh": fresh, "store": served} {
		if len(rows) != 1 || rows[0].Object != "obj1" {
			t.Fatalf("%s: rows %v, want one row for obj1", label, rows)
		}
		r := rows[0]
		if _, _, err := r.Lookup("ghost"); !errors.Is(err, ErrUnknownUser) {
			t.Errorf("%s: unknown user: err=%v want ErrUnknownUser", label, err)
		}
		poss, cert, err := r.Lookup("alice")
		if err != nil || len(poss) != 1 || poss[0] != "fish" || cert != "fish" {
			t.Errorf("%s: lookup(alice, obj1)=%v,%q,%v want [fish],fish,nil", label, poss, cert, err)
		}
		// The silent paths remain, documented.
		if got := r.Possible("ghost"); got != nil {
			t.Errorf("%s: Possible(ghost)=%v want nil", label, got)
		}
	}
	// A row outside any batch (the zero row) and an object the store never
	// held answer ErrUnknownObject.
	unknown := ObjectRow{Object: "obj9"}
	if _, _, err := unknown.Lookup("alice"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("zero row: err=%v want ErrUnknownObject", err)
	}
	if _, ok := unknown.Certain("alice"); ok {
		t.Error("Certain on a zero row must report ok=false")
	}
	if _, _, err := s.Get(context.Background(), "alice", "obj9"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("unstored object: err=%v want ErrUnknownObject", err)
	}
}

// TestFacadeRemoveUpdateTrust exercises the new facade wrappers through a
// full resolve.
func TestFacadeRemoveUpdateTrust(t *testing.T) {
	n := New()
	n.AddTrust("alice", "bob", 100)
	n.AddTrust("alice", "carol", 50)
	n.SetBelief("bob", "fish")
	n.SetBelief("carol", "knot")
	r, _ := n.Resolve()
	if v, _ := r.Certain("alice"); v != "fish" {
		t.Fatalf("precondition: cert(alice)=%q want fish", v)
	}
	if !n.UpdateTrust("alice", "carol", 200) {
		t.Fatal("update failed")
	}
	r, _ = n.Resolve()
	if v, _ := r.Certain("alice"); v != "knot" {
		t.Fatalf("after update: cert(alice)=%q want knot", v)
	}
	if !n.RemoveTrust("alice", "carol") {
		t.Fatal("remove failed")
	}
	r, _ = n.Resolve()
	if v, _ := r.Certain("alice"); v != "fish" {
		t.Fatalf("after revoke: cert(alice)=%q want fish (bob promoted)", v)
	}
	if n.RemoveTrust("alice", "carol") || n.RemoveTrust("ghost", "bob") {
		t.Error("absent mappings must report false")
	}
}
