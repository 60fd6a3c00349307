// Package trustmap resolves data conflicts in community databases using
// priority trust mappings, implementing Gatterbauer & Suciu, "Data Conflict
// Resolution Using Trust Mappings" (SIGMOD 2010).
//
// Users state explicit beliefs about the value of an object and trust
// other users with priorities. The library computes, for every user, the
// possible and certain values over all stable solutions of the network
// (Definitions 2.4 and 2.7) in worst-case quadratic time — order-invariant,
// supporting updates and revocations — plus the paper's extensions:
// lineage, agreement checking, consensus values, constraints (negative
// beliefs) under the Skeptic paradigm, and bulk resolution of many objects
// over a compiled concurrent engine.
//
// # Store: the v2 API
//
// Store is the recommended entry point: one handle owning the trust
// network and the persistent per-object beliefs, with context-aware
// error-returning mutators, epoch-snapshot concurrent reads, streaming
// results, and incremental maintenance (a belief mutation re-resolves
// only the touched object). There is no layer underneath it in this
// package: the Store itself keeps the compiled resolution artifact
// current across trust mutations and owns the epoch publisher
// (internal/serve) that swaps each new snapshot in for lock-free readers:
//
//	st, _ := trustmap.NewStore(trustmap.WithWorkers(4))
//	ctx := context.Background()
//	st.SetTrust(ctx, "Alice", "Bob", 100)    // Alice trusts Bob (prio 100)
//	st.SetTrust(ctx, "Alice", "Charlie", 50) // ... and Charlie (prio 50)
//	st.PutBelief(ctx, "Bob", "obj1", "fish")
//	st.PutBelief(ctx, "Charlie", "obj1", "knot")
//	poss, cert, _ := st.Get(ctx, "Alice", "obj1") // [fish], "fish"
//	for row, err := range st.Resolved(ctx) {      // streaming batch reads
//		_, _ = row, err
//	}
//
// Every read answers ObjectRows, one object's resolution each with the
// epoch that served it: ResolveObject and Resolve return one row,
// ResolveAll and ResolveBatch a slice sorted by object key, and Resolved
// streams the same rows in the same order.
//
// cmd/trustd serves a Store over HTTP (schema in the wire package, typed
// Go client in the client package).
//
// # Network: single-object analysis
//
// Network remains the facade for one-shot, single-object analysis — the
// Resolution Algorithm, lineage, agreement checking, and the constraint
// paradigms:
//
//	n := trustmap.New()
//	n.AddTrust("Alice", "Bob", 100)
//	n.AddTrust("Alice", "Charlie", 50)
//	n.AddTrust("Bob", "Alice", 80)
//	n.SetBelief("Bob", "fish")
//	n.SetBelief("Charlie", "knot")
//	r, _ := n.Resolve()
//	v, _ := r.Certain("Alice")          // "fish"
//
// Network.NewStore copies a facade-built network into a new store, which
// owns the copy: later changes to the Network do not reach the store. All
// bulk and multi-object work goes through Store. For
// horizontal write scale-out, internal/shard partitions objects across
// several stores behind one router (served by cmd/trustd -cluster).
package trustmap

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"trustmap/internal/belief"
	"trustmap/internal/engine"
	"trustmap/internal/resolve"
	"trustmap/internal/skeptic"
	"trustmap/internal/tn"
)

// Network is a priority trust network under construction: users, trust
// mappings, explicit beliefs, and optional constraints. The zero value is
// not usable; call New.
type Network struct {
	inner       *tn.Network
	constraints map[int][]string // user -> rejected values
}

// New returns an empty trust network.
func New() *Network {
	return &Network{inner: tn.New(), constraints: make(map[int][]string)}
}

// AddUser registers a user. Users referenced by AddTrust or SetBelief are
// registered implicitly; AddUser is only needed for isolated users.
func (n *Network) AddUser(name string) { n.inner.AddUser(name) }

// AddTrust states that truster accepts values from trusted with the given
// priority (Definition 2.2). Higher priorities win conflicts. Priorities
// are comparable only among one truster's mappings.
func (n *Network) AddTrust(truster, trusted string, priority int) {
	t := n.inner.AddUser(truster)
	z := n.inner.AddUser(trusted)
	n.inner.AddMapping(z, t, priority)
}

// RemoveTrust revokes the trust mapping truster -> trusted and reports
// whether it existed. Revocations are first-class in the paper's model
// (Section 2.5): re-resolving afterwards yields a consistent snapshot, and
// revoking one of two mappings promotes the survivor to preferred parent
// (Section 2.2).
func (n *Network) RemoveTrust(truster, trusted string) bool {
	t, z := n.inner.UserID(truster), n.inner.UserID(trusted)
	if t < 0 || z < 0 {
		return false
	}
	return n.inner.RemoveMapping(z, t)
}

// UpdateTrust changes the priority of the existing mapping truster ->
// trusted and reports whether it existed.
func (n *Network) UpdateTrust(truster, trusted string, priority int) bool {
	t, z := n.inner.UserID(truster), n.inner.UserID(trusted)
	if t < 0 || z < 0 {
		return false
	}
	return n.inner.SetMappingPriority(z, t, priority)
}

// SetBelief states user's explicit belief (Definition 2.1). Setting a new
// value models an update; see RemoveBelief for revocations.
func (n *Network) SetBelief(user, value string) {
	if value == "" {
		panic("trustmap: empty value; use RemoveBelief to revoke")
	}
	n.inner.SetExplicit(n.inner.AddUser(user), tn.Value(value))
}

// RemoveBelief revokes user's explicit belief. Unlike update-exchange
// systems, re-resolving after a revocation yields a consistent snapshot
// with no stale values (Section 2.5).
func (n *Network) RemoveBelief(user string) {
	if id := n.inner.UserID(user); id >= 0 {
		n.inner.SetExplicit(id, tn.NoValue)
	}
}

// SetConstraint states that user rejects the given values: a set of
// negative beliefs (Section 3). Constraints are used by ResolveSkeptic;
// Resolve ignores them. A user has either an explicit belief or
// constraints, not both.
func (n *Network) SetConstraint(user string, rejected ...string) {
	id := n.inner.AddUser(user)
	n.constraints[id] = append(n.constraints[id], rejected...)
}

// Users returns all user names, sorted.
func (n *Network) Users() []string {
	out := make([]string, n.inner.NumUsers())
	for i := range out {
		out[i] = n.inner.Name(i)
	}
	sort.Strings(out)
	return out
}

// NumUsers returns the number of users.
func (n *Network) NumUsers() int { return n.inner.NumUsers() }

// NumMappings returns the number of trust mappings.
func (n *Network) NumMappings() int { return n.inner.NumMappings() }

// Validate checks the network for structural problems (self-trust,
// duplicate mappings, users with both beliefs and constraints).
func (n *Network) Validate() error {
	if err := n.inner.Validate(); err != nil {
		return err
	}
	for id := range n.constraints {
		if n.inner.HasExplicit(id) {
			return fmt.Errorf("trustmap: user %q has both an explicit belief and constraints", n.inner.Name(id))
		}
	}
	return nil
}

// Resolution holds the result of resolving a network: possible and certain
// values per user (Definition 2.7), with lineage retrieval.
type Resolution struct {
	src *tn.Network // original network (user IDs match binarized prefix)
	bin *tn.Network // binarized network actually resolved
	res *resolve.Result
}

// Resolve runs the Resolution Algorithm (Algorithm 1) on the network,
// binarizing it first if needed (Proposition 2.8). Constraints are ignored
// here; use ResolveSkeptic for constraint-aware resolution.
func (n *Network) Resolve() (*Resolution, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	b := tn.Binarize(n.inner)
	return &Resolution{src: n.inner, bin: b, res: resolve.Resolve(b)}, nil
}

func (r *Resolution) id(user string) (int, error) {
	id := r.src.UserID(user)
	if id < 0 {
		return -1, fmt.Errorf("trustmap: unknown user %q", user)
	}
	return id, nil
}

// Possible returns the values user holds in at least one stable solution,
// sorted.
func (r *Resolution) Possible(user string) []string {
	id, err := r.id(user)
	if err != nil {
		return nil
	}
	poss := r.res.Possible(id)
	out := make([]string, len(poss))
	for i, v := range poss {
		out[i] = string(v)
	}
	return out
}

// Certain returns the value user holds in every stable solution. ok is
// false if the user has no certain value (conflicting or no information).
func (r *Resolution) Certain(user string) (string, bool) {
	id, err := r.id(user)
	if err != nil {
		return "", false
	}
	v := r.res.Certain(id)
	return string(v), v != tn.NoValue
}

// Lineage explains why value is possible for user: a chain of users from
// an explicit belief to the user, following trust mappings (Section 2.5).
func (r *Resolution) Lineage(user, value string) ([]string, bool) {
	id, err := r.id(user)
	if err != nil {
		return nil, false
	}
	path, ok := r.res.Lineage(id, tn.Value(value))
	if !ok {
		return nil, false
	}
	// Helper nodes introduced by binarization are named "<user>#b0" or
	// "<user>#y<k>"; attribute them back to the originating user and fold
	// consecutive duplicates, so lineages mention only real users.
	var out []string
	for _, x := range path {
		name := r.nodeName(x)
		if len(out) == 0 || out[len(out)-1] != name {
			out = append(out, name)
		}
	}
	return out, true
}

func (r *Resolution) nodeName(x int) string {
	name := r.bin.Name(x) // the binarized network holds all node names
	if i := strings.IndexByte(name, '#'); i >= 0 {
		return name[:i]
	}
	return name
}

// ConflictAnalysis extends a resolution with pairwise information:
// poss(x,y) for every user pair (Proposition 2.13).
type ConflictAnalysis struct {
	src *tn.Network
	res *resolve.PairsResult
}

// AnalyzeConflicts runs the extended algorithm of Proposition 2.13
// (O(n^4)): pairwise possible values, agreement checking, and consensus
// values.
func (n *Network) AnalyzeConflicts() (*ConflictAnalysis, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	b := tn.Binarize(n.inner)
	return &ConflictAnalysis{src: n.inner, res: resolve.ResolvePairs(b)}, nil
}

// Agree reports whether two users hold equal values in every stable
// solution in which both are defined.
func (c *ConflictAnalysis) Agree(a, b string) bool {
	ia, ib := c.src.UserID(a), c.src.UserID(b)
	if ia < 0 || ib < 0 {
		return false
	}
	return c.res.Agree(ia, ib)
}

// AgreeingPairs lists all pairs of (original) users that agree in every
// stable solution (the agreement-checking query of Section 2.1).
func (c *ConflictAnalysis) AgreeingPairs() [][2]string {
	var out [][2]string
	for _, p := range c.res.AgreeingPairs() {
		if p[0] < c.src.NumUsers() && p[1] < c.src.NumUsers() {
			out = append(out, [2]string{c.src.Name(p[0]), c.src.Name(p[1])})
		}
	}
	return out
}

// PossiblePairs returns the joint value pairs two users can take.
func (c *ConflictAnalysis) PossiblePairs(a, b string) [][2]string {
	ia, ib := c.src.UserID(a), c.src.UserID(b)
	if ia < 0 || ib < 0 {
		return nil
	}
	pairs := c.res.PossiblePairs(ia, ib)
	out := make([][2]string, 0, len(pairs))
	for p := range pairs {
		out = append(out, [2]string{string(p[0]), string(p[1])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Consensus returns all values v such that in every stable solution, user
// a believes v exactly when user b does (Section 2.1).
func (c *ConflictAnalysis) Consensus(a, b string) []string {
	ia, ib := c.src.UserID(a), c.src.UserID(b)
	if ia < 0 || ib < 0 {
		return nil
	}
	vals := c.res.Consensus(ia, ib)
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = string(v)
	}
	return out
}

// SkepticResolution holds constraint-aware resolution results under the
// Skeptic paradigm (Section 3, Algorithm 2).
type SkepticResolution struct {
	src *tn.Network
	res *skeptic.Result
}

// ResolveSkeptic resolves the network with constraints under the Skeptic
// paradigm (Theorem 3.5, quadratic time). The network must be binary (at
// most two trusted users per user) with distinct priorities per user, as
// Section 3 requires; Agnostic and Eclectic resolution are NP-hard
// (Theorem 3.4) and available exactly via ExactParadigm.
func (n *Network) ResolveSkeptic() (*SkepticResolution, error) {
	c, err := n.constraintNet()
	if err != nil {
		return nil, err
	}
	return &SkepticResolution{src: n.inner, res: skeptic.ResolveSkeptic(c)}, nil
}

func (n *Network) constraintNet() (*skeptic.Network, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	c := skeptic.FromTN(n.inner.Clone())
	for id, rejected := range n.constraints {
		c.SetBelief(id, belief.Negatives(rejected...))
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Possible returns the positive values the user can hold in some stable
// solution under the Skeptic paradigm.
func (s *SkepticResolution) Possible(user string) []string {
	id := s.src.UserID(user)
	if id < 0 {
		return nil
	}
	return s.res.PossiblePositives(id)
}

// Certain returns the positive value held in every stable solution.
func (s *SkepticResolution) Certain(user string) (string, bool) {
	id := s.src.UserID(user)
	if id < 0 {
		return "", false
	}
	v := s.res.CertainPositive(id)
	return v, v != ""
}

// RejectsEverything reports whether the user can end up rejecting every
// value (the ⊥ state) in some stable solution.
func (s *SkepticResolution) RejectsEverything(user string) bool {
	id := s.src.UserID(user)
	return id >= 0 && s.res.HasBottom(id)
}

// Describe renders the user's possible belief sets in the paper's
// notation.
func (s *SkepticResolution) Describe(user string) []string {
	id := s.src.UserID(user)
	if id < 0 {
		return nil
	}
	var out []string
	for _, b := range s.res.PossibleBeliefSets(id) {
		out = append(out, b.String())
	}
	return out
}

// Paradigm selects a constraint-handling semantics for ExactParadigm.
type Paradigm = belief.Paradigm

// The three constraint paradigms of Section 3.1.
const (
	Agnostic = belief.Agnostic
	Eclectic = belief.Eclectic
	Skeptic  = belief.Skeptic
)

// ExactParadigm computes the possible positive values per user under any
// paradigm by exhaustive stable-solution enumeration (Definition 3.3).
// Exponential: Agnostic and Eclectic are NP-hard (Theorem 3.4), so this is
// only usable on small networks. For Skeptic prefer ResolveSkeptic.
func (n *Network) ExactParadigm(p Paradigm) (map[string][]string, error) {
	c, err := n.constraintNet()
	if err != nil {
		return nil, err
	}
	sols := skeptic.EnumerateStableSolutions(c, p, 0)
	poss := skeptic.PossiblePositives(c, sols)
	out := make(map[string][]string, n.inner.NumUsers())
	for x := 0; x < n.inner.NumUsers(); x++ {
		vals := make([]string, 0, len(poss[x]))
		for v := range poss[x] {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		out[n.inner.Name(x)] = vals
	}
	return out, nil
}

// Sentinel errors for ObjectRow.Lookup and Store.Get (match with
// errors.Is).
var (
	// ErrUnknownUser reports a user name never registered in the network.
	ErrUnknownUser = errors.New("trustmap: unknown user")
	// ErrUnknownObject reports an object key that was not part of the
	// resolved object set.
	ErrUnknownObject = errors.New("trustmap: unknown object")
)

// DedupStats counts the objects and distinct root-assignment signatures
// of the batches a store resolved; each signature resolves once per batch.
// See StoreStats.Dedup.
type DedupStats = engine.DedupStats

// DOT renders the network in Graphviz dot format (edges from trusted user
// to truster, labelled with priorities; explicit beliefs highlighted).
func (n *Network) DOT() string { return tn.DOT(n.inner) }
