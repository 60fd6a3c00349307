package tn

import "fmt"

// Binarize transforms an arbitrary trust network into an equivalent Binary
// Trust Network (Proposition 2.8, construction of Appendix B.3). The result
// has the same stable solutions when restricted to the original nodes. The
// original users keep their IDs (0..NumUsers()-1 of the input network);
// helper nodes are appended after them.
//
// Two transformations are applied:
//
//  1. Every node x with an explicit belief and at least one parent gets a
//     fresh root x0 (named CarrierName(x)) carrying the belief, connected
//     to x with a priority strictly above all of x's existing mappings.
//  2. Every node x with k > 2 parents is cascaded into a chain of binary
//     steps y_2 .. y_{k-1} following rules (a)-(e) of Figure 9, ordered
//     from lowest to highest priority so that equal-priority groups form
//     subtrees (Figure 10). Nodes with k <= 2 parents are encoded by
//     EncodeParents.
//
// In the output, binary nodes use priority 2 for a preferred edge and 1 for
// non-preferred edges, as in the paper.
func Binarize(n *Network) *Network {
	b := New()
	for _, name := range n.names {
		b.AddUser(name)
	}
	// Step 1: hoist explicit beliefs off internal nodes.
	// We record, per node, the full parent list (possibly extended with the
	// hoisted root) before cascading.
	parents := make([][]Mapping, n.NumUsers())
	for x := 0; x < n.NumUsers(); x++ {
		in := n.in[x]                       // sorted by priority desc
		for i := len(in) - 1; i >= 0; i-- { // ascending priority
			parents[x] = append(parents[x], in[i])
		}
		v := n.explicit[x]
		if v == NoValue {
			continue
		}
		if len(in) == 0 {
			b.SetExplicit(x, v)
			continue
		}
		x0 := b.AddUser(CarrierName(n.names[x]))
		b.SetExplicit(x0, v)
		parents[x] = append(parents[x], Mapping{Parent: x0, Child: x, Priority: in[0].Priority + 1})
	}
	// Step 2: emit mappings, cascading where k > 2.
	for x := 0; x < n.NumUsers(); x++ {
		ps := parents[x] // ascending priority: p1 <= p2 <= ... <= pk
		if len(ps) > 2 {
			cascade(b, n.names[x], x, ps)
			continue
		}
		EncodeParents(ps)
		for _, m := range ps {
			b.AddMapping(m.Parent, x, m.Priority)
		}
	}
	return b
}

// EncodeParents rewrites, in place, the priorities of a node's incoming
// mappings to their binarized ones, for a node with at most two parents
// (its helper belief carrier counted, see Binarize): a sole parent is
// preferred (2); of two, the higher priority is preferred (2) over the
// other (1), and a tie leaves both non-preferred (1). More parents need
// Binarize's cascade.
func EncodeParents(ps []Mapping) {
	switch len(ps) {
	case 0:
	case 1:
		ps[0].Priority = 2
	case 2:
		lo, hi := &ps[0], &ps[1]
		if lo.Priority > hi.Priority {
			lo, hi = hi, lo
		}
		if lo.Priority == hi.Priority {
			lo.Priority, hi.Priority = 1, 1
		} else {
			lo.Priority, hi.Priority = 1, 2
		}
	default:
		panic(fmt.Sprintf("tn: EncodeParents of %d parents; Binarize cascades them", len(ps)))
	}
}

// CarrierName names the helper root that carries the explicit belief of
// the user called name once that user has parents (Binarize's step 1).
func CarrierName(name string) string { return name + "#b0" }

// Carrier locates the node carrying x's explicit belief in the binarized
// network b: x itself if it stayed a root, otherwise its helper named by
// CarrierName.
func Carrier(b *Network, x int) int {
	if b.HasExplicit(x) {
		return x
	}
	if h := b.UserID(CarrierName(b.Name(x))); h >= 0 {
		return h
	}
	return x
}

// cascade emits the binary cascade for node x with parents ps (ascending
// priority, k >= 3), following rules (a)-(e) of Figure 9. Notation matches
// the paper: z_i = ps[i-1].Parent, y_1 = z_1, y_k = x, and y_2..y_{k-1} are
// fresh nodes. Priorities in the binarized graph are 2 (preferred) and 1
// (non-preferred).
func cascade(b *Network, xname string, x int, ps []Mapping) {
	k := len(ps)
	pr := func(i int) int { return ps[i-1].Priority } // p_i, 1-based
	z := func(i int) int { return ps[i-1].Parent }    // z_i, 1-based
	y := make([]int, k+1)                             // y_1..y_k, 1-based
	y[1] = z(1)
	for i := 2; i < k; i++ {
		y[i] = b.AddUser(fmt.Sprintf("%s#y%d", xname, i))
	}
	y[k] = x
	// groupStart[i] = minimal j with p_j == p_i within the maximal run of
	// equal priorities containing i.
	groupStart := make([]int, k+1)
	for i := 1; i <= k; i++ {
		if i > 1 && pr(i-1) == pr(i) {
			groupStart[i] = groupStart[i-1]
		} else {
			groupStart[i] = i
		}
	}
	for i := 2; i <= k; i++ {
		prev := pr(i - 1)
		cur := pr(i)
		// "as if p_k < p_{k+1}" for the final node.
		next := cur + 1
		if i < k {
			next = pr(i + 1)
		}
		switch {
		case pr(1) == prev && prev == cur:
			// (a): the leading group of lowest priority.
			b.AddMapping(y[i-1], y[i], 1)
			b.AddMapping(z(i), y[i], 1)
		case prev < cur && cur == next:
			// (b): first chain node of a later equal-priority group.
			b.AddMapping(z(i), y[i], 1)
			b.AddMapping(z(i+1), y[i], 1)
		case pr(1) < prev && prev == cur && cur == next:
			// (c): interior chain node of a later equal-priority group.
			b.AddMapping(y[i-1], y[i], 1)
			b.AddMapping(z(i+1), y[i], 1)
		case pr(1) < prev && prev == cur && cur < next:
			// (d): closing node of a later equal-priority group; merges the
			// group subtree (preferred) with the lower-priority accumulation.
			j := groupStart[i]
			b.AddMapping(y[j-1], y[i], 1)
			b.AddMapping(y[i-1], y[i], 2)
		case prev < cur && cur < next:
			// (e): singleton group; its parent dominates the accumulation.
			b.AddMapping(y[i-1], y[i], 1)
			b.AddMapping(z(i), y[i], 2)
		default:
			panic("tn: unreachable cascade case")
		}
	}
}
