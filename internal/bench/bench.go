// Package bench is the experiment harness regenerating the figures of the
// paper's evaluation (Section 5, Appendix B.5): it builds the workloads,
// times the Resolution Algorithm (RA), the logic-programming baseline (the
// DLV substitute), and the bulk SQL path, and renders the series the paper
// plots. Absolute numbers differ from the paper's 2009 Java/SQL-Server
// testbed; the shapes (exponential LP vs quasi-linear RA, linear bulk
// scaling, quadratic worst case) are what the harness demonstrates.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"time"

	"trustmap/internal/bulk"
	"trustmap/internal/engine"
	"trustmap/internal/lp"
	"trustmap/internal/resolve"
	"trustmap/internal/tn"
	"trustmap/internal/workload"
)

// Point is one measurement: problem size (the paper's x axis) and seconds.
type Point struct {
	X       int
	Seconds float64
	Note    string // e.g. "DNF (budget)" when the LP search is cut off
}

// Series is a named measurement curve.
type Series struct {
	Name   string
	XLabel string
	Points []Point
}

// Fprint renders the series as an aligned two-column table.
func (s Series) Fprint(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", s.Name)
	fmt.Fprintf(w, "%-14s %-14s %s\n", s.XLabel, "time[sec]", "note")
	for _, p := range s.Points {
		note := p.Note
		sec := fmt.Sprintf("%.6f", p.Seconds)
		if note != "" && p.Seconds == 0 {
			sec = "-"
		}
		fmt.Fprintf(w, "%-14d %-14s %s\n", p.X, sec, note)
	}
}

// String renders the series as text.
func (s Series) String() string {
	var b strings.Builder
	s.Fprint(&b)
	return b.String()
}

// timeIt measures f averaged over reps runs.
func timeIt(reps int, f func()) float64 {
	if reps < 1 {
		reps = 1
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start).Seconds() / float64(reps)
}

// LPBudget caps the stable-model search per instance; beyond it the point
// is reported as DNF, mirroring the cliff in the paper's Figure 5.
const LPBudget = 1 << 20

// solveLP translates a BTN and enumerates its stable models, returning the
// time and whether the budget was exhausted.
func solveLP(n *tn.Network) (float64, bool) {
	prog, _ := lp.TranslateBinary(n, nil)
	start := time.Now()
	_, err := lp.StableModels(prog, lp.Options{Budget: LPBudget})
	return time.Since(start).Seconds(), err == lp.ErrBudget
}

// Fig5 measures the logic-programming baseline on chains of k oscillators
// (network size |U|+|E| = 8k), reproducing the exponential curve of
// Figure 5.
func Fig5(ks []int) Series {
	s := Series{Name: "Fig 5: LP solver on oscillator chains", XLabel: "size(|U|+|E|)"}
	for _, k := range ks {
		n := workload.OscillatorClusters(k)
		sec, dnf := solveLP(n)
		p := Point{X: n.Size(), Seconds: sec}
		if dnf {
			p.Note = "DNF (budget)"
		}
		s.Points = append(s.Points, p)
	}
	return s
}

// Fig8aRA measures the Resolution Algorithm on oscillator chains
// (Figure 8a, "network with many cycles").
func Fig8aRA(ks []int, reps int) Series {
	s := Series{Name: "Fig 8a: RA on oscillator chains", XLabel: "size(|U|+|E|)"}
	for _, k := range ks {
		n := workload.OscillatorClusters(k)
		sec := timeIt(reps, func() { resolve.Resolve(n) })
		s.Points = append(s.Points, Point{X: n.Size(), Seconds: sec})
	}
	return s
}

// Fig8aLP is the baseline curve of Figure 8a.
func Fig8aLP(ks []int) Series {
	s := Fig5(ks)
	s.Name = "Fig 8a: LP solver on oscillator chains"
	return s
}

// Fig8bRA measures the Resolution Algorithm on scale-free networks (the
// web-crawl substitute of Figure 8b). Sizes are user counts; edge count is
// about 3x users.
func Fig8bRA(users []int, reps int, seed int64) Series {
	s := Series{Name: "Fig 8b: RA on power-law networks", XLabel: "size(|U|+|E|)"}
	for _, u := range users {
		n := workload.PowerLaw(rand.New(rand.NewSource(seed)), u, 3, 0.1, []tn.Value{"v", "w", "u"})
		b := tn.Binarize(n)
		sec := timeIt(reps, func() { resolve.Resolve(b) })
		s.Points = append(s.Points, Point{X: n.Size(), Seconds: sec})
	}
	return s
}

// Fig8bLP is the baseline on the scale-free data set.
func Fig8bLP(users []int, seed int64) Series {
	s := Series{Name: "Fig 8b: LP solver on power-law networks", XLabel: "size(|U|+|E|)"}
	for _, u := range users {
		n := workload.PowerLaw(rand.New(rand.NewSource(seed)), u, 3, 0.1, []tn.Value{"v", "w", "u"})
		b := tn.Binarize(n)
		sec, dnf := solveLP(b)
		p := Point{X: n.Size(), Seconds: sec}
		if dnf {
			p.Note = "DNF (budget)"
		}
		s.Points = append(s.Points, p)
	}
	return s
}

// Fig8c measures bulk SQL resolution over the Figure 19 network with a
// growing number of objects (half of them conflicting).
func Fig8c(objectCounts []int, seed int64) Series {
	s := Series{Name: "Fig 8c: bulk SQL resolution (7 users, 12 mappings)", XLabel: "objects"}
	net, roots := workload.Fig19()
	b := tn.Binarize(net)
	for _, count := range objectCounts {
		objs := workload.BulkObjects(rand.New(rand.NewSource(seed)), roots, count)
		plan, err := bulk.NewPlan(b)
		if err != nil {
			panic(err)
		}
		store := bulk.NewStore(plan)
		if err := store.LoadObjects(objs); err != nil {
			panic(err)
		}
		start := time.Now()
		if err := store.Resolve(); err != nil {
			panic(err)
		}
		s.Points = append(s.Points, Point{X: count, Seconds: time.Since(start).Seconds()})
	}
	return s
}

// Fig8cLP is the per-object logic-programming baseline of Figure 8c: one
// LP per object, exponential in the number of conflicting objects.
func Fig8cLP(objectCounts []int, seed int64) Series {
	s := Series{Name: "Fig 8c: LP solver per object", XLabel: "objects"}
	net, roots := workload.Fig19()
	b := tn.Binarize(net)
	for _, count := range objectCounts {
		objs := workload.BulkObjects(rand.New(rand.NewSource(seed)), roots, count)
		start := time.Now()
		dnf := false
		// Sorted iteration keeps the budget cutoff point deterministic.
		for _, k := range workload.ObjectKeys(objs) {
			per := b.Clone()
			for x, v := range objs[k] {
				per.SetExplicit(x, v)
			}
			prog, _ := lp.TranslateBinary(per, nil)
			if _, err := lp.StableModels(prog, lp.Options{Budget: LPBudget}); err == lp.ErrBudget {
				dnf = true
				break
			}
		}
		p := Point{X: count, Seconds: time.Since(start).Seconds()}
		if dnf {
			p.Note = "DNF (budget)"
		}
		s.Points = append(s.Points, p)
	}
	return s
}

// BulkWorkload builds the bulk comparison workload: a binarized power-law
// trust network with `users` users and per-object root beliefs for
// `objects` objects (half of them conflicting), deterministic in seed.
func BulkWorkload(users, objects int, seed int64) (*tn.Network, map[string]map[int]tn.Value) {
	n := workload.PowerLaw(rand.New(rand.NewSource(seed)), users, 3, 0.1, []tn.Value{"v", "w", "u", "z"})
	bin := tn.Binarize(n)
	var roots []int
	for x := 0; x < bin.NumUsers(); x++ {
		if bin.HasExplicit(x) {
			roots = append(roots, x)
		}
	}
	objs := workload.BulkObjects(rand.New(rand.NewSource(seed+1)), roots, objects)
	return bin, objs
}

// ClusteredBulkWorkload builds the signature-clustered bulk workload: a
// binarized power-law trust network with `users` users and coarse trust
// tiers (frequent priority ties flood large root sets, the support-rich
// regime), plus `objects` per-object root-belief maps drawn from
// `distinct` prototype assignments with a zipf-like skew, deterministic in
// seed. Objects sharing a prototype share the belief map, as a community
// database serving mostly-uncontested objects (or repeating a handful of
// conflict patterns) would.
func ClusteredBulkWorkload(users, objects, distinct int, seed int64) (*tn.Network, map[string]map[int]tn.Value) {
	n := workload.PowerLawTiered(rand.New(rand.NewSource(seed)), users, 3, 3, 0.1, []tn.Value{"v", "w", "u", "z"})
	bin := tn.Binarize(n)
	var roots []int
	for x := 0; x < bin.NumUsers(); x++ {
		if bin.HasExplicit(x) {
			roots = append(roots, x)
		}
	}
	protos := workload.BulkObjects(rand.New(rand.NewSource(seed+1)), roots, distinct)
	keys := workload.ObjectKeys(protos)
	rng := rand.New(rand.NewSource(seed + 2))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(keys)-1))
	objs := make(map[string]map[int]tn.Value, objects)
	for i := 0; i < objects; i++ {
		objs[fmt.Sprintf("obj%d", i)] = protos[keys[zipf.Uint64()]]
	}
	return bin, objs
}

// AllDistinctBulkWorkload perturbs one root per object with a unique
// value, so every object carries its own signature: the adversarial case
// for signature deduplication.
func AllDistinctBulkWorkload(users, objects int, seed int64) (*tn.Network, map[string]map[int]tn.Value) {
	bin, objs := BulkWorkload(users, objects, seed)
	root := -1
	for x := 0; x < bin.NumUsers(); x++ {
		if bin.HasExplicit(x) {
			root = x
			break
		}
	}
	for i, k := range workload.ObjectKeys(objs) {
		objs[k][root] = tn.Value(fmt.Sprintf("uniq%d", i))
	}
	return bin, objs
}

// DedupPoint is one clustered-workload measurement: wall time with and
// without signature dedup, each on a freshly compiled artifact.
type DedupPoint struct {
	Objects     int
	SecsDedup   float64
	SecsNoDedup float64
	Stats       engine.DedupStats
}

// BulkDedup contrasts signature-deduplicated resolution against the
// per-object scan on clustered workloads of growing object count (the
// network and the `distinct` signature prototypes stay fixed). Artifacts
// are compiled fresh per point and per strategy.
func BulkDedup(users int, objectCounts []int, distinct, workers int, seed int64) ([]Series, []DedupPoint) {
	ded := Series{Name: fmt.Sprintf("bulk: engine + signature dedup (%d signatures)", distinct), XLabel: "objects"}
	nod := Series{Name: "bulk: engine, dedup disabled", XLabel: "objects"}
	var points []DedupPoint
	for _, count := range objectCounts {
		bin, objs := ClusteredBulkWorkload(users, count, distinct, seed)
		p := DedupPoint{Objects: count}
		c, err := engine.Compile(bin)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		r, err := c.Resolve(context.Background(), objs, engine.Options{Workers: workers})
		if err != nil {
			panic(err)
		}
		p.SecsDedup = time.Since(start).Seconds()
		p.Stats = r.Dedup()
		cn, err := engine.Compile(bin)
		if err != nil {
			panic(err)
		}
		start = time.Now()
		if _, err := cn.Resolve(context.Background(), objs, engine.Options{Workers: workers, DisableDedup: true}); err != nil {
			panic(err)
		}
		p.SecsNoDedup = time.Since(start).Seconds()
		ded.Points = append(ded.Points, Point{X: count, Seconds: p.SecsDedup})
		nod.Points = append(nod.Points, Point{X: count, Seconds: p.SecsNoDedup})
		points = append(points, p)
	}
	return []Series{ded, nod}, points
}

// BulkSeqVsPar contrasts the three bulk execution strategies on the same
// power-law workload: the sequential SQL path of Section 4, the compiled
// engine on one worker, and the compiled engine on `workers` workers.
// Engine timings include per-call compilation, mirroring the SQL path
// which re-plans per call.
func BulkSeqVsPar(users int, objectCounts []int, workers int, seed int64) []Series {
	sql := Series{Name: "bulk: sequential SQL path", XLabel: "objects"}
	seq := Series{Name: "bulk: compiled engine, 1 worker", XLabel: "objects"}
	par := Series{Name: fmt.Sprintf("bulk: compiled engine, %d workers", workers), XLabel: "objects"}
	for _, count := range objectCounts {
		bin, objs := BulkWorkload(users, count, seed)
		start := time.Now()
		plan, err := bulk.NewPlan(bin)
		if err != nil {
			panic(err)
		}
		store := bulk.NewStore(plan)
		if err := store.LoadObjects(objs); err != nil {
			panic(err)
		}
		if err := store.Resolve(); err != nil {
			panic(err)
		}
		sql.Points = append(sql.Points, Point{X: count, Seconds: time.Since(start).Seconds()})

		for _, run := range []struct {
			s *Series
			w int
		}{{&seq, 1}, {&par, workers}} {
			start = time.Now()
			c, err := engine.Compile(bin)
			if err != nil {
				panic(err)
			}
			if _, err := c.Resolve(context.Background(), objs, engine.Options{Workers: run.w}); err != nil {
				panic(err)
			}
			run.s.Points = append(run.s.Points, Point{X: count, Seconds: time.Since(start).Seconds()})
		}
	}
	return []Series{sql, seq, par}
}

// IncrementalUpdate contrasts the two ways of serving a mutate-then-
// resolve workload across network sizes: recompiling the engine artifact
// from scratch after every mutation versus folding the mutation in through
// the delta path (engine.CompiledNetwork.Apply). Each mutation revokes or
// re-grants one leaf mapping — the small-dirty-region case a live
// community database hits constantly. Times are per mutation.
func IncrementalUpdate(userCounts []int, mutsPer int, seed int64) []Series {
	recompile := Series{Name: "incremental: full recompile per mutation", XLabel: "size(|U|+|E|)"}
	apply := Series{Name: "incremental: delta apply per mutation", XLabel: "size(|U|+|E|)"}
	for _, users := range userCounts {
		base, _ := BulkWorkload(users, 1, seed)
		parent, child, prio := LeafEdge(base)
		size := base.Size()

		n := base.Clone()
		start := time.Now()
		for i := 0; i < mutsPer; i++ {
			toggleMapping(n, i, parent, child, prio)
			if _, err := engine.Compile(n); err != nil {
				panic(err)
			}
		}
		recompile.Points = append(recompile.Points,
			Point{X: size, Seconds: time.Since(start).Seconds() / float64(mutsPer)})

		n = base.Clone()
		n.EnableJournal()
		c, err := engine.Compile(n)
		if err != nil {
			panic(err)
		}
		start = time.Now()
		for i := 0; i < mutsPer; i++ {
			toggleMapping(n, i, parent, child, prio)
			if c, _, err = c.Apply(n.DrainJournal(), engine.ApplyOptions{}); err != nil {
				panic(err)
			}
		}
		apply.Points = append(apply.Points,
			Point{X: size, Seconds: time.Since(start).Seconds() / float64(mutsPer)})
	}
	return []Series{recompile, apply}
}

// toggleMapping alternately revokes and re-grants one mapping.
func toggleMapping(n *tn.Network, i, parent, child, prio int) {
	if i%2 == 0 {
		n.RemoveMapping(parent, child)
	} else {
		n.AddMapping(parent, child, prio)
	}
}

// LeafEdge finds a mapping whose child has no outgoing edges, so toggling
// it dirties the smallest possible region: the canonical small-mutation
// site shared by the incremental series and BenchmarkIncrementalUpdate.
func LeafEdge(bin *tn.Network) (parent, child, prio int) {
	g := bin.Graph()
	for x := 0; x < bin.NumUsers(); x++ {
		if len(g.Out(x)) == 0 && len(bin.In(x)) > 0 {
			m := bin.In(x)[0]
			return m.Parent, x, m.Priority
		}
	}
	panic("bench: workload has no leaf with incoming mappings")
}

// Fig15 measures the Resolution Algorithm on the nested-SCC worst case
// (Figure 14a / Figure 15): quadratic in the network size.
func Fig15(ks []int, reps int) Series {
	s := Series{Name: "Fig 15: RA on nested-SCC worst case", XLabel: "size(|U|+|E|)"}
	for _, k := range ks {
		n := workload.NestedSCC(k)
		sec := timeIt(reps, func() { resolve.Resolve(n) })
		s.Points = append(s.Points, Point{X: n.Size(), Seconds: sec})
	}
	return s
}

// FitSlope estimates the log-log slope between the first and last timed
// points of a series: ~1 for linear scaling, ~2 for quadratic.
func FitSlope(s Series) float64 {
	var pts []Point
	for _, p := range s.Points {
		if p.Seconds > 0 && p.Note == "" {
			pts = append(pts, p)
		}
	}
	if len(pts) < 2 {
		return 0
	}
	a, b := pts[0], pts[len(pts)-1]
	return math.Log(b.Seconds/a.Seconds) / math.Log(float64(b.X)/float64(a.X))
}
