// Package tn implements the trust network model of Gatterbauer & Suciu,
// "Data Conflict Resolution Using Trust Mappings" (SIGMOD 2010):
//
//   - explicit beliefs (Definition 2.1),
//   - priority trust mappings (Definition 2.2),
//   - priority trust networks (Definition 2.3),
//   - stable solutions (Definition 2.4) via an exact enumerator used as the
//     test oracle throughout the repository,
//   - binary trust networks and the binarization construction
//     (Proposition 2.8, Appendix B.3).
//
// Users are dense integer IDs with optional string names; values are
// strings. The package is deliberately free of any resolution logic beyond
// the exact enumerator: the efficient algorithms live in package resolve
// (Algorithm 1) and package skeptic (Algorithm 2).
package tn

import (
	"fmt"
	"sort"

	"trustmap/internal/graph"
)

// Value is a data value a user may believe for the (implicit) object.
// The empty string means "no value"; it is not a legal belief.
type Value string

// NoValue is the zero Value, representing the absence of a belief.
const NoValue Value = ""

// Mapping is a priority trust mapping m = (z, p, x): user Child = x trusts
// the value from user Parent = z with priority Priority = p (Definition 2.2).
// Priorities are comparable only among mappings sharing the same Child.
type Mapping struct {
	Parent   int
	Child    int
	Priority int
}

// MutationKind discriminates journal entries.
type MutationKind uint8

// The journaled mutation kinds. Only mutations that change the network are
// recorded: re-adding an existing user, removing an absent mapping, or
// setting a belief to its current value leave no trace.
const (
	MutAddUser MutationKind = iota
	MutAddMapping
	MutRemoveMapping
	MutSetPriority
	MutSetExplicit
)

// Mutation is one journaled network change. The fields used depend on Kind:
// AddUser fills User; the mapping kinds fill Parent/Child plus the relevant
// priorities; SetExplicit fills User, Value and OldValue (a revocation has
// Value == NoValue, a fresh belief has OldValue == NoValue).
type Mutation struct {
	Kind        MutationKind
	User        int
	Parent      int
	Child       int
	Priority    int
	OldPriority int
	Value       Value
	OldValue    Value
}

// Network is a priority trust network TN = (U, E, b0) (Definition 2.3).
// The zero value is not usable; call New.
type Network struct {
	names    []string
	byName   map[string]int
	in       [][]Mapping // incoming mappings per child, sorted by Priority desc, Parent asc
	explicit []Value     // b0; NoValue where undefined
	nEdges   int

	version    uint64 // bumped on every effective mutation
	journaling bool
	journal    []Mutation
}

// New returns an empty trust network.
func New() *Network {
	return &Network{byName: make(map[string]int)}
}

// Version returns a counter bumped on every effective mutation (user
// added, mapping added/removed/re-prioritized, belief changed). Callers
// holding derived artifacts compare versions to detect staleness. Like
// everything else on a Network, reading it while another goroutine
// mutates the network requires external synchronization.
func (n *Network) Version() uint64 { return n.version }

// EnableJournal starts recording mutations. The journal is the delta feed
// for incremental engine maintenance (engine.CompiledNetwork.Apply): mutate
// the network, then drain the journal and hand it to the engine.
func (n *Network) EnableJournal() { n.journaling = true }

// DisableJournal stops recording and discards any pending entries.
func (n *Network) DisableJournal() { n.journaling = false; n.journal = nil }

// DrainJournal returns the mutations recorded since the last drain (or
// since EnableJournal) and resets the journal. The caller owns the slice.
func (n *Network) DrainJournal() []Mutation {
	j := n.journal
	n.journal = nil
	return j
}

// record bumps the version and journals the mutation when enabled.
func (n *Network) record(m Mutation) {
	n.version++
	if n.journaling {
		n.journal = append(n.journal, m)
	}
}

// AddUser adds a user with the given name and returns its ID. Adding a name
// twice returns the existing ID.
func (n *Network) AddUser(name string) int {
	if id, ok := n.byName[name]; ok {
		return id
	}
	id := len(n.names)
	n.names = append(n.names, name)
	n.byName[name] = id
	n.in = append(n.in, nil)
	n.explicit = append(n.explicit, NoValue)
	n.record(Mutation{Kind: MutAddUser, User: id})
	return id
}

// UserID returns the ID for name, or -1 if unknown.
func (n *Network) UserID(name string) int {
	if id, ok := n.byName[name]; ok {
		return id
	}
	return -1
}

// Name returns the name of user x.
func (n *Network) Name(x int) string { return n.names[x] }

// NumUsers returns |U|.
func (n *Network) NumUsers() int { return len(n.names) }

// NumMappings returns |E|.
func (n *Network) NumMappings() int { return n.nEdges }

// Size returns |U| + |E|, the size measure used in the paper's experiments.
func (n *Network) Size() int { return len(n.names) + n.nEdges }

// insertMapping splices m into a child's incoming list, keeping the sort:
// Priority desc, Parent asc.
func insertMapping(in []Mapping, m Mapping) []Mapping {
	i := sort.Search(len(in), func(i int) bool {
		if in[i].Priority != m.Priority {
			return in[i].Priority < m.Priority
		}
		return in[i].Parent >= m.Parent
	})
	in = append(in, Mapping{})
	copy(in[i+1:], in[i:])
	in[i] = m
	return in
}

// AddMapping adds the trust mapping (parent, priority, child).
func (n *Network) AddMapping(parent, child, priority int) {
	if parent < 0 || parent >= len(n.names) || child < 0 || child >= len(n.names) {
		panic(fmt.Sprintf("tn: mapping (%d,%d) out of range", parent, child))
	}
	n.in[child] = insertMapping(n.in[child], Mapping{Parent: parent, Child: child, Priority: priority})
	n.nEdges++
	n.record(Mutation{Kind: MutAddMapping, Parent: parent, Child: child, Priority: priority})
}

// RemoveMapping revokes the trust mapping parent -> child. It reports
// whether the mapping existed; removing an absent mapping is a no-op.
// Revoking the sole non-preferred sibling promotes the remaining parent to
// preferred (Section 2.2); revoking the last incoming mapping re-roots the
// child.
func (n *Network) RemoveMapping(parent, child int) bool {
	if child < 0 || child >= len(n.names) {
		return false
	}
	in := n.in[child]
	for i, m := range in {
		if m.Parent == parent {
			n.in[child] = append(in[:i], in[i+1:]...)
			n.nEdges--
			n.record(Mutation{Kind: MutRemoveMapping, Parent: parent, Child: child, OldPriority: m.Priority})
			return true
		}
	}
	return false
}

// SetMappingPriority changes the priority of the mapping parent -> child,
// keeping the child's incoming list sorted. It reports whether the mapping
// existed; setting the current priority is a no-op.
func (n *Network) SetMappingPriority(parent, child, priority int) bool {
	if child < 0 || child >= len(n.names) {
		return false
	}
	in := n.in[child]
	for i, m := range in {
		if m.Parent == parent {
			if m.Priority == priority {
				return true
			}
			old := m.Priority
			copy(in[i:], in[i+1:])
			in = in[:len(in)-1]
			n.in[child] = insertMapping(in, Mapping{Parent: parent, Child: child, Priority: priority})
			n.record(Mutation{Kind: MutSetPriority, Parent: parent, Child: child, Priority: priority, OldPriority: old})
			return true
		}
	}
	return false
}

// SetExplicit sets the explicit belief b0(x) = v. Passing NoValue clears it
// (a revocation). Setting the current value is a no-op.
func (n *Network) SetExplicit(x int, v Value) {
	old := n.explicit[x]
	if old == v {
		return
	}
	n.explicit[x] = v
	n.record(Mutation{Kind: MutSetExplicit, User: x, Value: v, OldValue: old})
}

// Explicit returns b0(x), or NoValue if undefined.
func (n *Network) Explicit(x int) Value { return n.explicit[x] }

// HasExplicit reports whether b0(x) is defined.
func (n *Network) HasExplicit(x int) bool { return n.explicit[x] != NoValue }

// In returns the incoming mappings of x, sorted by priority descending
// (ties by parent ID ascending). The slice is shared; do not modify.
func (n *Network) In(x int) []Mapping { return n.in[x] }

// PreferredParent returns x's preferred parent (Section 2.2): the single
// parent, or the strictly higher-priority one of two or more. ok is false
// if x has no parents or the top priority is tied.
func (n *Network) PreferredParent(x int) (parent int, ok bool) {
	in := n.in[x]
	if len(in) == 0 {
		return -1, false
	}
	if len(in) > 1 && in[1].Priority == in[0].Priority {
		return -1, false
	}
	return in[0].Parent, true
}

// IsRoot reports whether x has no incoming mappings.
func (n *Network) IsRoot(x int) bool { return len(n.in[x]) == 0 }

// IsBinary reports whether the network is a Binary Trust Network: every
// node has at most two incoming edges and explicit beliefs are defined only
// for root nodes (Section 2.2).
func (n *Network) IsBinary() bool {
	for x := range n.names {
		if len(n.in[x]) > 2 {
			return false
		}
		if n.explicit[x] != NoValue && len(n.in[x]) > 0 {
			return false
		}
	}
	return true
}

// Graph returns the digraph of the network with an edge parent -> child for
// every mapping.
func (n *Network) Graph() *graph.Digraph {
	g := graph.New(len(n.names))
	for _, in := range n.in {
		for _, m := range in {
			g.AddEdge(m.Parent, m.Child)
		}
	}
	return g
}

// ReachableFromRoots returns the set of nodes reachable from some node with
// an explicit belief. Nodes outside this set have undefined belief in every
// stable solution and may be removed (Section 2.2).
func (n *Network) ReachableFromRoots() []bool {
	var roots []int
	for x := range n.names {
		if n.explicit[x] != NoValue {
			roots = append(roots, x)
		}
	}
	return n.Graph().Reachable(roots, nil)
}

// Domain returns the sorted set of distinct explicit values in the network.
// By the lineage requirement of Definition 2.4, every belief in every stable
// solution is drawn from this set.
func (n *Network) Domain() []Value {
	seen := make(map[Value]bool)
	var d []Value
	for _, v := range n.explicit {
		if v != NoValue && !seen[v] {
			seen[v] = true
			d = append(d, v)
		}
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// Validate checks structural sanity: no self-mappings and no duplicate
// parent-child pairs (a user states at most one priority per trusted user).
func (n *Network) Validate() error {
	for x, in := range n.in {
		seen := make(map[int]bool)
		for _, m := range in {
			if m.Parent == m.Child {
				return fmt.Errorf("tn: user %q trusts itself", n.names[x])
			}
			if seen[m.Parent] {
				return fmt.Errorf("tn: duplicate mapping %q -> %q", n.names[m.Parent], n.names[x])
			}
			seen[m.Parent] = true
		}
	}
	return nil
}

// Clone returns a deep copy of the network. The copy carries the version
// but not the journal: journaling starts disabled on the clone.
func (n *Network) Clone() *Network {
	c := New()
	c.names = append([]string(nil), n.names...)
	for k, v := range n.byName {
		c.byName[k] = v
	}
	c.in = make([][]Mapping, len(n.in))
	for i := range n.in {
		c.in[i] = append([]Mapping(nil), n.in[i]...)
	}
	c.explicit = append([]Value(nil), n.explicit...)
	c.nEdges = n.nEdges
	c.version = n.version
	return c
}

// View is an immutable snapshot of the network's name index: user IDs,
// names, and the name -> ID lookup, frozen at the user count of the
// moment it was taken. Views are what lock-free readers hold while a
// writer keeps mutating the network: user names never change once
// assigned and IDs are dense and append-only, so a View taken at U users
// stays correct forever for those U users. Snapshot reuses prev when no
// user was added since it was taken, making repeated snapshots O(1) on
// the no-new-users path.
type View struct {
	names []string // shared with the network; len-capped, append-only
	ids   map[string]int
}

// Snapshot returns a View of the network's current name index, reusing
// prev (which may be nil) when the user set has not grown since prev was
// taken. The caller must hold whatever lock serializes mutations.
func (n *Network) Snapshot(prev *View) *View {
	if prev != nil && len(prev.names) == len(n.names) {
		return prev
	}
	// Cap the slice at its current length: later in-place appends by the
	// writer land beyond this View's reach.
	v := &View{names: n.names[:len(n.names):len(n.names)], ids: make(map[string]int, len(n.names))}
	for id, name := range v.names {
		v.ids[name] = id
	}
	return v
}

// UserID returns the ID for name, or -1 if unknown to this snapshot.
func (v *View) UserID(name string) int {
	if id, ok := v.ids[name]; ok {
		return id
	}
	return -1
}

// Name returns the name of user x.
func (v *View) Name(x int) string { return v.names[x] }

// NumUsers returns the number of users in this snapshot.
func (v *View) NumUsers() int { return len(v.names) }
