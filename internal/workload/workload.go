// Package workload generates the trust networks and object sets used by
// the paper's experimental evaluation (Section 5 and Appendix B.5):
//
//   - chains of disconnected oscillators (the synthetic "many cycles" data
//     set of Figures 5 and 8a),
//   - scale-free networks grown by preferential attachment, this
//     repository's substitute for the paper's 270k-domain web crawl
//     (Figure 8b),
//   - the nested-SCC family that drives Algorithm 1 to its quadratic worst
//     case (Figure 14a / Figure 15),
//   - the 7-user, 12-mapping network of Figure 19 with bulk object sets
//     where a configurable fraction of objects is conflicting (Figure 8c).
//
// All generators are deterministic given their seed.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"trustmap/internal/tn"
)

// OscillatorClusters builds k disconnected copies of the Figure 4b
// oscillator: 4 users and 4 mappings each, with two explicit beliefs per
// cluster ("one out of two users has an explicit belief"). Size (|U|+|E|)
// is 8k.
func OscillatorClusters(k int) *tn.Network {
	n := tn.New()
	for i := 0; i < k; i++ {
		x1 := n.AddUser(fmt.Sprintf("c%d_x1", i))
		x2 := n.AddUser(fmt.Sprintf("c%d_x2", i))
		x3 := n.AddUser(fmt.Sprintf("c%d_x3", i))
		x4 := n.AddUser(fmt.Sprintf("c%d_x4", i))
		n.AddMapping(x2, x1, 100)
		n.AddMapping(x3, x1, 50)
		n.AddMapping(x1, x2, 80)
		n.AddMapping(x4, x2, 40)
		n.SetExplicit(x3, "v")
		n.SetExplicit(x4, "w")
	}
	return n
}

// PowerLaw grows a scale-free trust network by preferential attachment
// (Barabási–Albert style): node t attaches edgesPer incoming trust
// mappings whose parents are sampled proportionally to degree. Priorities
// are random over 100 levels; beliefFrac of the users (always including
// the first) get explicit beliefs drawn from domain. This reproduces the
// power-law degree shape of the paper's web-crawl data set.
func PowerLaw(rng *rand.Rand, users, edgesPer int, beliefFrac float64, domain []tn.Value) *tn.Network {
	return powerLaw(rng, users, edgesPer, 100, beliefFrac, domain)
}

// PowerLawTiered is PowerLaw with priorities drawn from a small number of
// tiers, the shape of systems that rank trust coarsely ("trusted",
// "normal", "fallback") rather than on a fine scale. Ties are frequent, so
// resolution floods strongly connected regions and unions many roots: the
// support-rich regime of bulk resolution, where an object's possible
// values aggregate large root sets instead of following one preferred
// chain.
func PowerLawTiered(rng *rand.Rand, users, edgesPer, tiers int, beliefFrac float64, domain []tn.Value) *tn.Network {
	return powerLaw(rng, users, edgesPer, tiers, beliefFrac, domain)
}

func powerLaw(rng *rand.Rand, users, edgesPer, prioLevels int, beliefFrac float64, domain []tn.Value) *tn.Network {
	n := tn.New()
	if users == 0 {
		return n
	}
	var endpoints []int // degree-weighted sampling pool
	for i := 0; i < users; i++ {
		x := n.AddUser(fmt.Sprintf("site%d", i))
		k := edgesPer
		if k > i {
			k = i
		}
		chosen := map[int]bool{}
		for e := 0; e < k; e++ {
			var z int
			for tries := 0; ; tries++ {
				if len(endpoints) == 0 || tries > 10 {
					z = rng.Intn(i)
				} else {
					z = endpoints[rng.Intn(len(endpoints))]
				}
				if z != x && !chosen[z] {
					break
				}
			}
			chosen[z] = true
			n.AddMapping(z, x, 1+rng.Intn(prioLevels))
			endpoints = append(endpoints, z, x)
		}
		if i == 0 || rng.Float64() < beliefFrac {
			n.SetExplicit(x, domain[rng.Intn(len(domain))])
		}
	}
	return n
}

// NestedSCC builds the quadratic worst-case family of Figure 14a: a chain
// of k oscillator stages where stage i can only be resolved after stage
// i-1, separated by preferred-edge relays, so that Algorithm 1 recomputes
// the strongly connected components of the remaining ~4(k-i) open nodes at
// every stage: Θ(k²) total work. Size is linear in k (2 + 4k users,
// 2 + 6(k-1)+... ≈ 6k mappings).
//
// The exact topology of the paper's Figure 14a is only sketched in the
// text; this family preserves its defining property - nested strongly
// connected components forcing repeated Tarjan passes - which Figure 15
// measures.
func NestedSCC(k int) *tn.Network {
	n := tn.New()
	rv := n.AddUser("root_v")
	rw := n.AddUser("root_w")
	n.SetExplicit(rv, "v")
	n.SetExplicit(rw, "w")
	prevD, prevE := rv, rw
	for i := 0; i < k; i++ {
		a := n.AddUser(fmt.Sprintf("s%d_a", i))
		b := n.AddUser(fmt.Sprintf("s%d_b", i))
		d := n.AddUser(fmt.Sprintf("s%d_d", i))
		e := n.AddUser(fmt.Sprintf("s%d_e", i))
		// Oscillator core: a and b prefer each other.
		n.AddMapping(b, a, 2)
		n.AddMapping(prevD, a, 1)
		n.AddMapping(a, b, 2)
		n.AddMapping(prevE, b, 1)
		// Preferred relays feeding the next stage.
		n.AddMapping(a, d, 1)
		n.AddMapping(b, e, 1)
		prevD, prevE = d, e
	}
	return n
}

// Fig19 builds the non-binary 7-user, 12-mapping network used for the bulk
// experiments of Figure 8c (Figure 19), with x6 and x7 as the two users
// with explicit beliefs. The figure gives the size and shape of the
// network; the exact priorities are reconstructed to exercise both a
// preferred-edge cascade and a strongly connected component.
func Fig19() (*tn.Network, []int) {
	n := tn.New()
	id := make([]int, 8) // 1-based
	for i := 1; i <= 7; i++ {
		id[i] = n.AddUser(fmt.Sprintf("x%d", i))
	}
	m := func(parent, child, prio int) { n.AddMapping(id[parent], id[child], prio) }
	m(6, 4, 2)
	m(7, 4, 1)
	m(7, 5, 2)
	m(6, 5, 1)
	m(4, 1, 3)
	m(2, 1, 2)
	m(5, 1, 1)
	m(1, 2, 1)
	m(3, 2, 2)
	m(5, 3, 2)
	m(2, 3, 1)
	m(4, 3, 3)
	n.SetExplicit(id[6], "seed")
	n.SetExplicit(id[7], "seed")
	return n, []int{id[6], id[7]}
}

// BulkObjects generates explicit beliefs for numObjects objects over the
// given root users: each object's roots agree or conflict with probability
// 1/2, as in the Figure 8c experiment. Generation draws from rng in object
// index order and never iterates a map, so the result is identical across
// runs for a given seed; iterate it via ObjectKeys for deterministic
// consumption.
func BulkObjects(rng *rand.Rand, roots []int, numObjects int) map[string]map[int]tn.Value {
	out := make(map[string]map[int]tn.Value, numObjects)
	for i := 0; i < numObjects; i++ {
		k := fmt.Sprintf("obj%d", i)
		bs := make(map[int]tn.Value, len(roots))
		if rng.Float64() < 0.5 {
			// Agreement: all roots share one value.
			v := tn.Value(fmt.Sprintf("v%d", rng.Intn(4)))
			for _, r := range roots {
				bs[r] = v
			}
		} else {
			// Conflict: distinct values per root.
			for j, r := range roots {
				bs[r] = tn.Value(fmt.Sprintf("v%d_%d", rng.Intn(4), j))
			}
		}
		out[k] = bs
	}
	return out
}

// ObjectKeys returns the keys of a BulkObjects result, sorted. Consumers
// that process objects one at a time (or stop early on a budget) must
// iterate in this order to stay deterministic across runs: ranging over
// the map directly visits objects in a different order every run.
func ObjectKeys(objs map[string]map[int]tn.Value) []string {
	keys := make([]string, 0, len(objs))
	for k := range objs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RandomBTN builds a random binary trust network with nUsers users, edge
// density controlling parent counts, and explicit beliefs on beliefFrac of
// the users (at least one).
func RandomBTN(rng *rand.Rand, nUsers int, beliefFrac float64, domain []tn.Value) *tn.Network {
	n := tn.New()
	for i := 0; i < nUsers; i++ {
		n.AddUser(fmt.Sprintf("u%d", i))
	}
	any := false
	for x := 0; x < nUsers; x++ {
		if rng.Float64() < beliefFrac {
			n.SetExplicit(x, domain[rng.Intn(len(domain))])
			any = true
		}
	}
	if !any {
		n.SetExplicit(rng.Intn(nUsers), domain[rng.Intn(len(domain))])
	}
	for x := 0; x < nUsers; x++ {
		if n.HasExplicit(x) {
			continue // keep explicit-belief users as roots (BTN form)
		}
		k := 1 + rng.Intn(2)
		added := 0
		for tries := 0; added < k && tries < 10; tries++ {
			z := rng.Intn(nUsers)
			if z == x {
				continue
			}
			dup := false
			for _, m := range n.In(x) {
				if m.Parent == z {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			n.AddMapping(z, x, 1+rng.Intn(100))
			added++
		}
	}
	return n
}
