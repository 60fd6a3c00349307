package main

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"trustmap/internal/tn"
	"trustmap/internal/workload"
	"trustmap/wire"
)

// laps is how many equal-op-count laps the measured phase is cut into.
const laps = 20

// runSeconds is the measured-phase length the frozen op counts below were
// calibrated to on the 2-core reference box; it equals run_seconds in
// BENCHMARK.json.
const runSeconds = 15

// spec freezes one workload: every size and op count is a constant, so a
// run does fixed work and two runs of one commit do the same work.
type spec struct {
	name string

	clients    int    // closed-loop callers, each with its own connection
	durability string // trustd -durability
	cluster    int    // trustd -cluster (0 = single store)

	users   int // trust network size
	objects int // objects seeded during set-up
	protos  int // seeded objects draw beliefs from this many prototypes (0 = independent)

	unit    int // smallest op count that keeps the op mix exact
	ops     int // measured ops per client
	warmup  int // warm-up ops per client, untimed, counted in setup_s
	ckptPct int // client 0 checkpoints once, before this percentage of its measured ops

	traceOps int // workload ops replayed through the in-process ladder by -trace
}

// The four workloads. Sizes and op counts were calibrated once on the
// seed commit (see README.md, "Calibration") and are frozen here.
var specs = []*spec{
	{
		name:    "serve-read",
		clients: 2, durability: "batch",
		users: 4000, objects: 5000,
		unit: 20, ops: 80000, warmup: 6000, ckptPct: 5,
		traceOps: 2000,
	},
	{
		name:    "trust-churn",
		clients: 1, durability: "batch",
		users: 1500, objects: 500,
		unit: 40, ops: 19200, warmup: 4000, ckptPct: 96,
		traceOps: 800,
	},
	{
		name:    "ingest-recover",
		clients: 2, durability: "always",
		users: 2000, objects: 0,
		unit: 10, ops: 24000, warmup: 6000, ckptPct: 50,
		traceOps: 400,
	},
	{
		name:    "cluster-scan",
		clients: 1, durability: "batch", cluster: 4,
		users: 100, objects: 1400, protos: 32,
		unit: 144, ops: 2880, warmup: 576, ckptPct: 5,
		traceOps: 144,
	},
}

// frozen is the spec's sizes and op counts as BENCHMARK.json records them.
func (sp *spec) frozen() string {
	return fmt.Sprintf("frozen: %d users, %d objects, %d x %d ops", sp.users, sp.objects, sp.clients, sp.ops)
}

// quick shrinks the spec to smoke-test size: the same code paths and op
// mix, a few hundred ops, a second or two of wall time.
func (sp *spec) quick() *spec {
	out := *sp
	out.users = min(sp.users, 120)
	out.objects = min(sp.objects, 60)
	out.ops = laps * sp.unit
	out.warmup = sp.unit
	out.traceOps = sp.unit
	return &out
}

// lapOps is the op count of one lap of one client.
func (sp *spec) lapOps() int { return sp.ops / laps }

// domain is the belief value universe: four fixed-width values, so WAL
// and response byte counts do not depend on which value a seed drew.
var domain = []string{"v0", "v1", "v2", "v3"}

type opKind uint8

const (
	opResolve   opKind = iota // read: ResolveObject(key, users)
	opScan                    // read: full-scan group-by query
	opPutBelief               // write: PutBelief(key, user, value)
	opPutObject               // write: PutObject(key, beliefs)
	opTrust                   // write: Mutate(one spine op)
)

// op is one pre-drawn request.
type op struct {
	kind    opKind
	key     string
	users   []string          // opResolve: users to report; opScan: user restriction (nil = all)
	user    string            // opPutBelief
	value   string            // opPutBelief
	beliefs map[string]string // opPutObject
	spine   wire.Op           // opTrust
}

func (o *op) isWrite() bool { return o.kind >= opPutBelief }

// edge is one trust mapping in facade terms: truster accepts values from
// trusted at the given priority.
type edge struct {
	truster, trusted string
	prio             int
}

// world is everything generated from (spec, seed): the network and
// objects trustd is seeded with, and each client's op stream (warm-up
// followed by the measured ops). trustd never sees the seed or the
// workload name, only these inputs.
type world struct {
	sp       *spec
	users    []string
	edges    []edge            // trust edges present at seeding
	defaults map[string]string // network-level beliefs
	roots    []string          // users holding a default belief, in user order
	keys     []string          // seeded object keys, in index order
	objects  map[string]map[string]string
	streams  [][]op
}

// mix derives an independent rng stream from the seed and a lane number.
func mix(seed int64, lane int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(lane)*7919 + 17))
}

func newWorld(sp *spec, seed int64) *world {
	w := &world{sp: sp, defaults: map[string]string{}, objects: map[string]map[string]string{}}

	// The paper-shaped scale-free family with coarse priority tiers. Two
	// trusted users per user: binarization keeps such users cascade-free,
	// so spine writes can take the engine's incremental path; a third
	// parent would turn every spine write into a full rebuild.
	vals := make([]tn.Value, len(domain))
	for i, v := range domain {
		vals[i] = tn.Value(v)
	}
	net := workload.PowerLawTiered(mix(seed, 0), sp.users, 2, 3, 0.1, vals)
	for x := 0; x < net.NumUsers(); x++ {
		name := net.Name(x)
		w.users = append(w.users, name)
		for _, m := range net.In(x) {
			w.edges = append(w.edges, edge{truster: name, trusted: net.Name(m.Parent), prio: m.Priority})
		}
		if v := net.Explicit(x); v != tn.NoValue {
			w.defaults[name] = string(v)
			w.roots = append(w.roots, name)
		}
	}

	// Seeded objects: three per-object beliefs over users that hold a
	// default, so objects add no roots and every root stays covered.
	rng := mix(seed, 1)
	var protos []map[string]string
	for i := 0; i < sp.protos; i++ {
		protos = append(protos, w.drawBeliefs(rng))
	}
	var zipf *rand.Zipf
	if len(protos) > 1 {
		zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(protos)-1))
	}
	for i := 0; i < sp.objects; i++ {
		key := fmt.Sprintf("obj%06d", i)
		w.keys = append(w.keys, key)
		if zipf != nil {
			w.objects[key] = protos[zipf.Uint64()]
		} else {
			w.objects[key] = w.drawBeliefs(rng)
		}
	}

	total := sp.warmup + sp.ops
	for c := 0; c < sp.clients; c++ {
		var ops []op
		switch sp.name {
		case "serve-read":
			ops = w.genServeRead(mix(seed, 10+c), c, total)
		case "trust-churn":
			ops = w.genTrustChurn(mix(seed, 10+c), total)
		case "ingest-recover":
			ops = w.genIngest(mix(seed, 10+c), c, total)
		case "cluster-scan":
			ops = w.genClusterScan(mix(seed, 10+c), total)
		default:
			panic("benchmark: no generator for workload " + sp.name)
		}
		w.streams = append(w.streams, ops)
	}
	return w
}

// drawBeliefs draws three distinct roots and a value for each.
func (w *world) drawBeliefs(rng *rand.Rand) map[string]string {
	n := min(3, len(w.roots))
	bs := make(map[string]string, n)
	for len(bs) < n {
		bs[w.roots[rng.Intn(len(w.roots))]] = domain[rng.Intn(len(domain))]
	}
	return bs
}

// drawUsers draws n distinct users to report.
func (w *world) drawUsers(rng *rand.Rand, n int) []string {
	n = min(n, len(w.users))
	seen := make(map[int]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		if i := rng.Intn(len(w.users)); !seen[i] {
			seen[i] = true
			out = append(out, w.users[i])
		}
	}
	return out
}

// beliefUsers lists the users of one seeded object's beliefs, sorted:
// PutBelief ops overwrite one of them, so object sizes stay constant.
func (w *world) beliefUsers(key string) []string { return slices.Sorted(maps.Keys(w.objects[key])) }

// zipfKeys returns a sampler of seeded keys with Zipf(1.1) popularity;
// which key is hot is itself drawn from the seed.
func (w *world) zipfKeys(rng *rand.Rand) func() string {
	perm := rng.Perm(len(w.keys))
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(w.keys)-1))
	return func() string { return w.keys[perm[z.Uint64()]] }
}

// putBelief draws an overwrite of one existing belief of key.
func (w *world) putBelief(rng *rand.Rand, key string) op {
	us := w.beliefUsers(key)
	return op{kind: opPutBelief, key: key, user: us[rng.Intn(len(us))], value: domain[rng.Intn(len(domain))]}
}

// reprio draws a re-prioritisation of one of the given edges to a tier it
// does not hold now (so the write is never a no-op), and records the new
// tier.
func reprio(rng *rand.Rand, edges []edge) op {
	e := &edges[rng.Intn(len(edges))]
	e.prio = 1 + (e.prio-1+1+rng.Intn(2))%3
	return op{kind: opTrust, spine: wire.Op{Op: wire.OpUpdateTrust, Truster: e.truster, Trusted: e.trusted, Priority: e.prio}}
}

// genServeRead: blocks of 20 ops, 19 reads of a Zipf key for 4 users and
// 1 PutBelief on a uniformly drawn object of this client's partition
// (objects are partitioned by index so two clients never race one key).
func (w *world) genServeRead(rng *rand.Rand, c, n int) []op {
	key := w.zipfKeys(rng)
	ops := make([]op, 0, n)
	for len(ops) < n {
		at := rng.Intn(20)
		for i := 0; i < 20; i++ {
			if i == at {
				own := w.sp.clients*rng.Intn(len(w.keys)/w.sp.clients) + c
				ops = append(ops, w.putBelief(rng, w.keys[own]))
			} else {
				ops = append(ops, op{kind: opResolve, key: key(), users: w.drawUsers(rng, 4)})
			}
		}
	}
	return ops[:n]
}

// togglePool is how many trust edges trust-churn reserves for add/remove
// ops; half are seeded present and half absent.
const togglePool = 32

// reach counts, for every user, the users its beliefs can flow to: the
// forward closure along "is trusted by" edges, which is the region of the
// compiled plan a spine write at that user dirties.
func (w *world) reach() map[string]int {
	trustedBy := map[string][]string{}
	for _, e := range w.edges {
		trustedBy[e.trusted] = append(trustedBy[e.trusted], e.truster)
	}
	out := make(map[string]int, len(w.users))
	for _, u := range w.users {
		seen := map[string]bool{u: true}
		for queue := []string{u}; len(queue) > 0; queue = queue[1:] {
			for _, v := range trustedBy[queue[0]] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		out[u] = len(seen)
	}
	return out
}

// genTrustChurn: strict write/read alternation. Writes come in blocks of
// 20 in a drawn order, one of three cost classes each:
//
//   - 13 re-prioritisations of an edge the store re-splices incrementally:
//     the truster holds no default belief and reaches under 15 % of the
//     network (the engine falls back to a full recompile above 25 %);
//   - 1 re-prioritisation of an edge whose truster holds a default belief:
//     its binarization has a cascade, so the store rebuilds;
//   - 3 adds of an absent pool edge and 3 removes of a present one, both
//     incremental.
//
// The mix is exact per block, so every lap and every seed does the same
// number of rebuilds. A rebuild costs ~30 incremental writes; drawn
// uniformly over all edges, the few hub edges a seed happens to have (and
// how often it hits them) were most of the difference between two seeds'
// ops_s and recovery_s. The network size stays within three edges of
// where it started.
func (w *world) genTrustChurn(rng *rand.Rand, n int) []op {
	parents := map[string]int{}
	for _, e := range w.edges {
		parents[e.truster]++
	}
	reach := w.reach()
	// The toggle pool: one edge per truster, trusters with exactly two
	// trusted users, so a toggle moves the truster between one and two
	// parents, which the store translates without a rebuild.
	var pool, splice, rebuild, rest []edge
	taken := map[string]bool{}
	for _, i := range rng.Perm(len(w.edges)) {
		e := w.edges[i]
		_, isRoot := w.defaults[e.truster]
		small := reach[e.truster]*100 < 15*len(w.users)
		switch {
		case isRoot:
			rebuild = append(rebuild, e)
		case !small:
			rest = append(rest, e) // hub edges: seeded, never written
		case len(pool) < togglePool && parents[e.truster] == 2 && !taken[e.truster]:
			taken[e.truster] = true
			pool = append(pool, e)
		default:
			splice = append(splice, e)
		}
	}
	present := make([]bool, len(pool))
	w.edges = append(append(append([]edge(nil), splice...), rebuild...), rest...)
	for i := range pool {
		if present[i] = i%2 == 0; present[i] {
			w.edges = append(w.edges, pool[i])
		}
	}
	pick := func(want bool) int {
		var idx []int
		for i, p := range present {
			if p == want {
				idx = append(idx, i)
			}
		}
		return idx[rng.Intn(len(idx))]
	}

	key := w.zipfKeys(rng)
	ops := make([]op, 0, n)
	for len(ops) < n {
		for _, k := range rng.Perm(20) { // <13 splice, 13 rebuild, 14..16 add, 17..19 remove
			switch {
			case k < 13:
				ops = append(ops, reprio(rng, splice))
			case k == 13:
				ops = append(ops, reprio(rng, rebuild))
			case k < 17:
				i := pick(false)
				present[i] = true
				e := pool[i]
				ops = append(ops, op{kind: opTrust, spine: wire.Op{Op: wire.OpAddTrust, Truster: e.truster, Trusted: e.trusted, Priority: e.prio}})
			default:
				i := pick(true)
				present[i] = false
				e := pool[i]
				ops = append(ops, op{kind: opTrust, spine: wire.Op{Op: wire.OpRemoveTrust, Truster: e.truster, Trusted: e.trusted}})
			}
			ops = append(ops, op{kind: opResolve, key: key(), users: w.drawUsers(rng, 4)})
		}
	}
	return ops[:n]
}

// genIngest: blocks of 10 ops, 9 PutObject of a new key in this client's
// own key range and 1 ResolveObject of the oldest key this client wrote
// and has not read yet — never resolved before, so always cold.
func (w *world) genIngest(rng *rand.Rand, c, n int) []op {
	ops := make([]op, 0, n)
	written, read := 0, 0
	for len(ops) < n {
		at := 1 + rng.Intn(9) // never first: the first block has nothing to read yet
		for i := 0; i < 10; i++ {
			if i == at {
				ops = append(ops, op{kind: opResolve, key: ingestKey(c, read), users: w.drawUsers(rng, 4)})
				read++
			} else {
				ops = append(ops, op{kind: opPutObject, key: ingestKey(c, written), beliefs: w.drawBeliefs(rng)})
				written++
			}
		}
	}
	return ops[:n]
}

func ingestKey(c, i int) string { return fmt.Sprintf("c%d-%07d", c, i) }

// genClusterScan: cycles of 8 routed PutBelief writes and 1 full-scan
// query. In every 16th cycle the last write is a spine re-prioritisation
// instead, broadcast to all shards: the scan right after it finds every
// cached resolution stale.
func (w *world) genClusterScan(rng *rand.Rand, n int) []op {
	base := append([]edge(nil), w.edges...)
	ops := make([]op, 0, n)
	for cycle := 0; len(ops) < n; cycle++ {
		for i := 0; i < 8; i++ {
			if i == 7 && cycle%16 == 15 {
				ops = append(ops, reprio(rng, base))
			} else {
				ops = append(ops, w.putBelief(rng, w.keys[rng.Intn(len(w.keys))]))
			}
		}
		ops = append(ops, op{kind: opScan})
	}
	return ops[:n]
}

// scanQuery is the full-scan shape of BenchmarkQuery/fullscan: one row
// per (object, user), grouped by user, counting rows and the share whose
// stated belief survived resolution. users restricts the scanned users
// (nil = all).
func scanQuery(users []string) wire.Query {
	q := wire.Query{
		GroupBy: []string{"user"},
		Aggs:    []wire.Aggregate{{Fn: wire.AggCount, As: "n"}, {Fn: wire.AggRate, Of: "agrees", As: "acceptance"}},
	}
	if users != nil {
		vals := make([]any, len(users))
		for i, u := range users {
			vals[i] = u
		}
		q.Where = []wire.Predicate{{Col: "user", Op: wire.PredIn, Values: vals}}
	}
	return q
}

// seedOps is the spine trustd is seeded with through /v1/mutate: every
// trust edge, then every default belief in user order.
func (w *world) seedOps() []wire.Op {
	ops := make([]wire.Op, 0, len(w.edges)+len(w.roots))
	for _, e := range w.edges {
		ops = append(ops, wire.Op{Op: wire.OpSetTrust, Truster: e.truster, Trusted: e.trusted, Priority: e.prio})
	}
	for _, u := range w.roots {
		ops = append(ops, wire.Op{Op: wire.OpSetBelief, User: u, Value: w.defaults[u]})
	}
	return ops
}
