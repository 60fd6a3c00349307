package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"trustmap"
	"trustmap/internal/admission"
	"trustmap/internal/httpd"
	"trustmap/internal/query"
	"trustmap/internal/shard"
	"trustmap/internal/snapshot"
	"trustmap/wire"
)

// The traced pass. No file outside benchmark/ records spans, so the
// benchmark measures each layer from outside: one goroutine replays the
// first traceOps ops of the workload's own pre-drawn streams, then a small
// probe suite that touches every op class, through a ladder of rungs that
// each hold their own copy of the state, one rung at a time:
//
//	engine   bare engine.CompiledNetwork (Compile / Resolve / Apply)
//	store    memory trustmap.Store
//	durable  trustmap.OpenStore in the workload's fsync mode (writes only)
//	shard    4-shard shard.Router over memory stores
//	query    query.Compile + query.Run on one memory store (scans only)
//	httpd    httpd.Server.ServeHTTP on an httptest recorder
//	client   the client package over loopback TCP to that handler stack
//
// Every call is one span; spans of one op share op_id, and a rung's parent
// is the rung above it. A layer's self time is its rung's duration minus
// the rung below it, paired op by op.

// rungs in ladder order, innermost first.
var rungs = []string{"engine", "store", "durable", "shard", "query", "httpd", "client"}

// span is one traced call, as written to benchmark/out/trace-<workload>.json.
type span struct {
	Name   string `json:"name"` // <rung>.<class>
	OpID   int    `json:"op_id"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the same op's span one rung up; -1 at the top
	Probe  bool   `json:"probe,omitempty"`
}

// layerDef names one per-layer metric; BENCHMARK.json lists exactly these.
type layerDef struct{ name, unit, better string }

var layerDefs = []layerDef{
	{"engine.resolve_us", "us", "lower"},
	{"engine.apply_us", "us", "lower"},
	{"engine.compile_ms", "ms", "lower"},
	{"engine.dedup_ratio", "ratio", "lower"},
	{"engine.resolve_bytes_per_op", "B", "lower"},
	{"store.read_hit_us", "us", "lower"},
	{"store.read_miss_us", "us", "lower"},
	{"store.cache_hit_ratio", "ratio", "higher"},
	{"store.put_us", "us", "lower"},
	{"store.set_trust_us", "us", "lower"},
	{"store.incremental_ratio", "ratio", "higher"},
	{"store.epochs_reclaimed_ratio", "ratio", "higher"},
	{"wal.append_us", "us", "lower"},
	{"wal.fsyncs_per_write", "ratio", "lower"},
	{"wal.bytes_per_write", "B", "lower"},
	{"wal.replay_us_per_batch", "us", "lower"},
	{"snapshot.write_ms", "ms", "lower"},
	{"snapshot.load_ms", "ms", "lower"},
	{"snapshot.bytes_per_object", "B", "lower"},
	{"snapshot.stall_ms", "ms", "lower"},
	{"httpd.read_us", "us", "lower"},
	{"httpd.write_us", "us", "lower"},
	{"httpd.resp_bytes_per_read", "B", "lower"},
	{"httpd.shed_ratio", "ratio", "lower"},
	{"client.read_us", "us", "lower"},
	{"client.write_us", "us", "lower"},
	{"client.read_p99_ms", "ms", "lower"},
	{"client.write_p99_ms", "ms", "lower"},
	{"client.retries", "count", "lower"},
	{"shard.route_us", "us", "lower"},
	{"shard.scatter_ms", "ms", "lower"},
	{"shard.broadcast_us", "us", "lower"},
	{"shard.balance", "ratio", "lower"},
	{"query.compile_us", "us", "lower"},
	{"query.scan_ms", "ms", "lower"},
	{"query.rows_scanned_per_emitted", "ratio", "lower"},
	{"query.allocs_per_row", "count", "lower"},
	{"driver.trustd_vm_hwm_mb", "MB", "lower"},
	{"driver.lap_iqr_frac", "ratio", "lower"},
	{"driver.trace_overhead_frac", "ratio", "lower"},
}

// ladder is the state of one traced pass.
type ladder struct {
	sp  *spec
	w   *world
	ctx context.Context
	t0  time.Time

	spans []span
	// us[name][opID] is the span's duration in microseconds; op i of the
	// traced sequence has id i+1.
	us    map[string]map[int]float64
	ops   []tracedOp
	opID  int
	probe bool

	m     *model          // the state all rungs are in
	fresh map[string]bool // objects whose cached resolution is current (same on every store rung)

	// The rung a pass is running on. Rungs are built just before their
	// pass and dropped right after it: nine live copies of the state would
	// make every later rung pay the garbage collector for the earlier ones.
	eng     *engineRung
	store   *trustmap.Store
	qstore  *trustmap.Store
	handler *httpd.Server
	remote  *caller

	check          checker
	resolveBytes   uint64
	resolveCalls   int
	respBytes      int
	respReads      int
	compileUS      []float64
	rowsScanned    uint64
	rowsEmitted    uint64
	queryMallocs   uint64
	clusterBackend bool
}

// memStore returns a memory store in the world's seeded state.
func (l *ladder) memStore() (*trustmap.Store, error) {
	st, err := trustmap.NewStore()
	if err != nil {
		return nil, err
	}
	return st, l.seed(shard.NewSingleStore(st))
}

// memRouter returns a seeded 4-shard router over memory stores.
func (l *ladder) memRouter() (*shard.Router, error) {
	stores := make([]*trustmap.Store, 4)
	for i := range stores {
		st, err := trustmap.NewStore()
		if err != nil {
			return nil, err
		}
		stores[i] = st
	}
	rt, err := shard.NewRouter(stores)
	if err != nil {
		return nil, err
	}
	return rt, l.seed(rt)
}

// served returns the seeded memory backend trustd would serve for this
// workload — one store, or the 4-shard router — behind the handler stack,
// admission gates armed at 64 slots as in the subprocess.
func (l *ladder) served() (*httpd.Server, error) {
	var b shard.Backend
	var err error
	if l.clusterBackend {
		b, err = l.memRouter()
	} else {
		var st *trustmap.Store
		st, err = l.memStore()
		b = shard.NewSingleStore(st)
	}
	if err != nil {
		return nil, err
	}
	gate := admission.Config{MaxConcurrent: 64, MaxQueue: 64, QueueTimeout: time.Second}
	return httpd.NewBackend(b, httpd.Config{Reads: gate, Mutations: gate}), nil
}

// seed brings one backend to the world's seeded state with every cached
// resolution current, as set-up leaves the subprocess.
func (l *ladder) seed(b shard.Backend) error {
	if _, err := b.Mutate(l.w.seedOps()); err != nil {
		return err
	}
	for _, key := range l.w.keys {
		if err := b.PutObject(l.ctx, key, l.w.objects[key]); err != nil {
			return err
		}
	}
	for _, key := range l.w.keys {
		if _, err := b.ResolveObject(l.ctx, key); err != nil {
			return err
		}
	}
	return nil
}

// timed runs f as one span of the current op.
func (l *ladder) timed(rung, class string, f func()) {
	start := time.Since(l.t0)
	f()
	end := time.Since(l.t0)
	name := rung + "." + class
	l.spans = append(l.spans, span{Name: name, OpID: l.opID, Start: int64(start), End: int64(end), Parent: -1, Probe: l.probe})
	if l.us[name] == nil {
		l.us[name] = map[int]float64{}
	}
	l.us[name][l.opID] = float64(end-start) / 1e3
}

func (l *ladder) fail(err error) {
	if err != nil {
		l.check.check(false, "traced pass: %v", err)
	}
}

// onBackend runs one op against a backend the way the HTTP handlers do.
func (l *ladder) onBackend(b shard.Backend, o *op) {
	var err error
	switch o.kind {
	case opResolve:
		var row trustmap.ObjectRow
		if row, err = b.ResolveObject(l.ctx, o.key); err == nil {
			for _, u := range o.users {
				if _, _, err = row.Lookup(u); err != nil {
					break
				}
			}
		}
	case opScan:
		_, err = b.Query(l.ctx, scanQuery(o.users))
	case opPutBelief:
		err = b.PutBelief(l.ctx, o.user, o.key, o.value)
	case opPutObject:
		err = b.PutObject(l.ctx, o.key, o.beliefs)
	case opTrust:
		_, err = b.Mutate([]wire.Op{o.spine})
	}
	l.fail(err)
}

// request builds the HTTP request the client package would send for o.
func request(o *op) *http.Request {
	body := func(v any) *bytes.Reader {
		raw, err := json.Marshal(v)
		if err != nil {
			panic(err) // wire types always marshal
		}
		return bytes.NewReader(raw)
	}
	var r *http.Request
	switch o.kind {
	case opResolve:
		r = httptest.NewRequest(http.MethodGet, "/v1/objects/"+url.PathEscape(o.key)+"/resolution?"+url.Values{"users": o.users}.Encode(), nil)
	case opScan:
		r = httptest.NewRequest(http.MethodPost, "/v1/query", body(scanQuery(o.users)))
	case opPutBelief:
		r = httptest.NewRequest(http.MethodPut, "/v1/objects/"+url.PathEscape(o.key)+"/beliefs/"+url.PathEscape(o.user), body(wire.BeliefPutRequest{Value: o.value}))
	case opPutObject:
		r = httptest.NewRequest(http.MethodPut, "/v1/objects/"+url.PathEscape(o.key), body(wire.ObjectPutRequest{Beliefs: o.beliefs}))
	default:
		r = httptest.NewRequest(http.MethodPost, "/v1/mutate", body(wire.MutateRequest{Ops: []wire.Op{o.spine}}))
	}
	r.Header.Set("Content-Type", "application/json")
	return r
}

// tracedOp is one op of the traced sequence with the class its spans are
// filed under.
type tracedOp struct {
	op
	class string
	probe bool
}

// classify files an op under its class and moves the cache model on. Reads
// split by whether the store's cached resolution is current; that is a
// function of the op sequence alone, so it is the same on every rung.
func (l *ladder) classify(o op, probe bool) tracedOp {
	t := tracedOp{op: o, probe: probe}
	switch o.kind {
	case opResolve:
		t.class = "read_miss"
		if l.fresh[o.key] {
			t.class = "read_hit"
		}
		l.fresh[o.key] = true
	case opScan:
		t.class = "scan" // the stream does not refill the cache
	case opTrust:
		t.class = "set_trust"
		l.fresh = map[string]bool{}
	default:
		t.class = "put"
		delete(l.fresh, o.key)
	}
	l.m.apply(&o)
	return t
}

// own reports whether a span's op came from the workload's own streams
// (the checkpoint probe's id lies past the sequence).
func (l *ladder) own(id int) bool { return id <= len(l.ops) && !l.ops[id-1].probe }

// pass replays the whole traced sequence through one rung. Rung-major
// order — all ops through one rung, then all through the next — keeps
// each rung as hot as the subprocess is: interleaving the rungs op by op
// would park the loopback connection for milliseconds between calls and
// bill the wake-ups to the client layer.
func (l *ladder) pass(ops []tracedOp, each func(t *tracedOp)) {
	for i := range ops {
		l.opID, l.probe = i+1, ops[i].probe
		each(&ops[i])
	}
}

// engineAndStore is the innermost pass: the memory store runs the op, and
// the bare engine does only what the store asked of its own engine — for a
// spine write, whatever the store's session counters say the write cost.
func (l *ladder) engineAndStore(t *tracedOp) {
	if t.class == "scan" { // beneath the query executor is the raw stream
		if keys := l.eng.staleKeys(); len(keys) > 0 {
			l.engineResolve(t.class, keys...)
		}
		l.eng.stale, l.eng.allStale = map[string]bool{}, false
		l.timed("store", t.class, func() {
			for _, err := range l.store.Resolved(l.ctx) {
				l.fail(err)
			}
		})
		return
	}
	before := l.store.Stats().SessionStats
	l.timed("store", t.class, func() { l.onBackend(shard.NewSingleStore(l.store), &t.op) })
	switch t.class {
	case "read_miss":
		l.engineResolve(t.class, t.key)
	case "set_trust":
		after := l.store.Stats().SessionStats
		did := didNothing
		switch {
		case after.Compiles > before.Compiles:
			did = didRebuild
		case after.IncrementalApplies+after.FullRecompiles > before.IncrementalApplies+before.FullRecompiles:
			did = didApply
		}
		var took time.Duration
		var err error
		l.timed("engine", t.class, func() { took, err = l.eng.applySpine(t.spine, did) })
		// The span covers mutating the twin too; the metric is the engine
		// call alone.
		l.us["engine.set_trust"][l.opID] = float64(took) / 1e3
		l.fail(err)
	case "put":
		l.eng.put(&t.op)
	}
}

// engineResolve resolves objects on the bare engine as one batch and
// counts the bytes the call allocated.
func (l *ladder) engineResolve(class string, keys ...string) {
	batch, err := l.eng.batch(keys...)
	l.fail(err)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.timed("engine", class, func() { err = l.eng.resolve(l.ctx, batch) })
	runtime.ReadMemStats(&after)
	l.fail(err)
	if class == "read_miss" {
		l.resolveBytes += after.TotalAlloc - before.TotalAlloc
		l.resolveCalls++
	}
}

// queryScan is the query rung: scans are compiled and run, timed apart;
// every other op only keeps the rung's store in step.
func (l *ladder) queryScan(t *tracedOp) {
	if t.class != "scan" {
		l.onBackend(shard.NewSingleStore(l.qstore), &t.op)
		return
	}
	c0 := time.Now()
	plan, err := query.Compile(scanQuery(t.users))
	l.compileUS = append(l.compileUS, float64(time.Since(c0))/1e3)
	l.fail(err)
	if err != nil {
		return
	}
	var res *query.Result
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.timed("query", t.class, func() { res, err = query.Run(l.ctx, l.qstore, plan) })
	runtime.ReadMemStats(&after)
	l.fail(err)
	if res != nil {
		l.rowsScanned += res.Stats.RowsScanned
		l.rowsEmitted += res.Stats.RowsEmitted
		l.queryMallocs += after.Mallocs - before.Mallocs
	}
}

// serve is the httpd rung: the handler stack on a recorder.
func (l *ladder) serve(t *tracedOp) {
	req, rec := request(&t.op), httptest.NewRecorder()
	l.timed("httpd", t.class, func() { l.handler.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		l.fail(fmt.Errorf("httpd rung: %s answered %d: %s", t.describe(), rec.Code, rec.Body.String()))
	}
	if !t.isWrite() {
		l.respBytes += rec.Body.Len()
		l.respReads++
	}
}

// linkSpans points every span at the same op's span one rung up.
func (l *ladder) linkSpans() {
	order := map[string]int{}
	for i, r := range rungs {
		order[r] = i
	}
	byOp := map[int][]int{}
	for i, sp := range l.spans {
		byOp[sp.OpID] = append(byOp[sp.OpID], i)
	}
	rungOf := func(i int) int {
		r, _, _ := strings.Cut(l.spans[i].Name, ".")
		return order[r]
	}
	for _, ids := range byOp {
		sort.Slice(ids, func(a, b int) bool { return rungOf(ids[a]) < rungOf(ids[b]) })
		for k := 0; k+1 < len(ids); k++ {
			l.spans[ids[k]].Parent = ids[k+1]
		}
	}
}

// probes returns the fixed suite that follows the workload's own ops, so
// that every op class has samples on every workload: spine writes each
// followed by a cold and a warm read, belief and object puts each
// followed by a cold read, and — first, while the caches are as the
// workload left them — two scans (restricted to a sample of users where
// a full scan would exceed ~200k rows).
func (l *ladder) probes(seed int64) []op {
	rng := mix(seed, 20)
	keys := l.m.sortedKeys()
	var ops []op
	read := func(key string) op { return op{kind: opResolve, key: key, users: l.w.drawUsers(rng, 4)} }
	edges := l.m.sortedEdges()
	var users []string
	if n := len(keys); n*len(l.w.users) > 200000 {
		users = l.w.drawUsers(rng, max(1, 100000/n))
		sort.Strings(users)
	}
	ops = append(ops, op{kind: opScan, users: users}, op{kind: opScan, users: users})
	for _, i := range rng.Perm(len(edges))[:4] { // distinct edges: none of the four is a no-op
		k := edges[i]
		ops = append(ops, op{kind: opTrust, spine: wire.Op{Op: wire.OpUpdateTrust, Truster: k[0], Trusted: k[1], Priority: l.m.edges[k]%3 + 1}})
		if len(keys) > 0 {
			key := keys[rng.Intn(len(keys))]
			ops = append(ops, read(key), read(key))
		}
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("probe-%d", i)
		bs := l.w.drawBeliefs(rng)
		ops = append(ops, op{kind: opPutObject, key: key, beliefs: bs}, read(key))
		ops = append(ops, op{kind: opPutBelief, key: key, user: slices.Min(slices.Collect(maps.Keys(bs))), value: domain[rng.Intn(len(domain))]}, read(key))
	}
	return ops
}

// runLadder is the traced pass: it returns every per-layer metric, prints
// the layer-share table, and writes the spans to benchmark/out.
func runLadder(ctx context.Context, e *env, sp *spec, seed int64, pr *phaseResult) (map[string]float64, error) {
	l := &ladder{
		sp: sp, w: newWorld(sp, seed), ctx: ctx,
		us: map[string]map[int]float64{}, fresh: map[string]bool{},
		clusterBackend: sp.cluster > 1,
	}
	l.m = newModel(l.w)
	for _, key := range l.w.keys {
		l.fresh[key] = true
	}

	// The traced sequence: the workload's own ops, callers interleaved one
	// op at a time, then the probe suite.
	var ops []tracedOp
	for i, n := 0, 0; n < sp.traceOps; i++ {
		for c := 0; c < sp.clients && n < sp.traceOps; c, n = c+1, n+1 {
			ops = append(ops, l.classify(l.w.streams[c][i], false))
		}
	}
	for _, o := range l.probes(seed) {
		ops = append(ops, l.classify(o, true))
	}
	l.ops = ops
	out := map[string]float64{}
	l.t0 = time.Now()

	// engine + store
	var err error
	if l.eng, err = newEngineRung(l.w); err != nil {
		return nil, err
	}
	if l.store, err = l.memStore(); err != nil {
		return nil, err
	}
	l.pass(ops, l.engineAndStore)
	if out["engine.compile_ms"], err = l.eng.compileMS(); err != nil {
		return nil, err
	}
	if out["engine.dedup_ratio"], err = l.eng.dedupRatio(ctx); err != nil {
		return nil, err
	}
	l.eng, l.store = nil, nil
	runtime.GC()

	if err := l.durablePass(e, ops, out); err != nil {
		return nil, err
	}
	runtime.GC()

	// shard
	shards, err := l.memRouter()
	if err != nil {
		return nil, err
	}
	l.pass(ops, func(t *tracedOp) { l.timed("shard", t.class, func() { l.onBackend(shards, &t.op) }) })
	most, total := 0, 0
	for _, s := range shards.ClusterStats().PerShard {
		most, total = max(most, s.Objects), total+s.Objects
	}
	out["shard.balance"] = ratio(float64(most*shards.Shards()), float64(total))
	shards = nil
	runtime.GC()

	// query
	if l.qstore, err = l.memStore(); err != nil {
		return nil, err
	}
	l.pass(ops, l.queryScan)
	l.qstore = nil
	runtime.GC()

	// httpd
	if l.handler, err = l.served(); err != nil {
		return nil, err
	}
	l.pass(ops, l.serve)
	l.handler = nil
	runtime.GC()

	// client
	handler, err := l.served()
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	l.remote = newCaller(srv.URL, nil)
	l.pass(ops, func(t *tracedOp) {
		l.timed("client", t.class, func() { l.remote.do(l.ctx, &t.op, !l.clusterBackend) })
	})
	tracedOps, tracedSeconds := 0, 0.0
	for id, us := range mergeClasses(l.us, "client") {
		if l.own(id) {
			tracedOps++
			tracedSeconds += us / 1e6
		}
	}
	l.check.merge(l.remote.checker)
	pr.check.merge(l.check)

	out["engine.resolve_us"] = medianOf(l.us["engine.read_miss"])
	out["engine.apply_us"] = medianOf(l.us["engine.set_trust"])
	out["engine.resolve_bytes_per_op"] = ratio(float64(l.resolveBytes), float64(l.resolveCalls))
	out["store.read_hit_us"] = medianOf(l.us["store.read_hit"])
	out["store.read_miss_us"] = medianDiff(l.us["store.read_miss"], l.us["engine.read_miss"])
	out["store.put_us"] = medianOf(l.us["store.put"])
	out["store.set_trust_us"] = medianDiff(l.us["store.set_trust"], l.us["engine.set_trust"])
	out["wal.append_us"] = medianDiff(mergeClasses(l.us, "durable", "put", "set_trust"), mergeClasses(l.us, "store", "put", "set_trust"))
	out["snapshot.write_ms"] = medianOf(l.us["durable.checkpoint"]) / 1e3
	// What a handler calls beneath it: the store, or on a cluster the
	// router; for a scan, Query (the query rung, or the router's own).
	backend, backendScan := "store", "query.scan"
	if l.clusterBackend {
		backend, backendScan = "shard", "shard.scan"
	}
	below := mergeClasses(l.us, backend, "read_hit", "read_miss", "put", "set_trust")
	for id, us := range l.us[backendScan] {
		below[id] = us
	}
	out["httpd.read_us"] = medianDiff(mergeClasses(l.us, "httpd", "read_hit", "read_miss", "scan"), below)
	out["httpd.write_us"] = medianDiff(mergeClasses(l.us, "httpd", "put", "set_trust"), below)
	out["httpd.resp_bytes_per_read"] = ratio(float64(l.respBytes), float64(l.respReads))
	out["client.read_us"] = medianDiff(mergeClasses(l.us, "client", "read_hit", "read_miss", "scan"), mergeClasses(l.us, "httpd", "read_hit", "read_miss", "scan"))
	out["client.write_us"] = medianDiff(mergeClasses(l.us, "client", "put", "set_trust"), mergeClasses(l.us, "httpd", "put", "set_trust"))
	out["shard.route_us"] = medianDiff(mergeClasses(l.us, "shard", "read_hit", "read_miss", "put"), mergeClasses(l.us, "store", "read_hit", "read_miss", "put"))
	out["shard.scatter_ms"] = medianDiff(l.us["shard.scan"], l.us["query.scan"]) / 1e3
	out["shard.broadcast_us"] = medianDiff(l.us["shard.set_trust"], l.us["store.set_trust"])
	out["query.compile_us"] = median(l.compileUS)
	out["query.scan_ms"] = medianDiff(l.us["query.scan"], l.us["store.scan"]) / 1e3
	out["query.rows_scanned_per_emitted"] = ratio(float64(l.rowsScanned), float64(l.rowsEmitted))
	out["query.allocs_per_row"] = ratio(float64(l.queryMallocs), float64(l.rowsScanned))

	// Counts and tails come from the untraced subprocess run.
	b, a := pr.before, pr.after
	hits, misses := a.Store.CacheHits-b.Store.CacheHits, a.Store.CacheMisses-b.Store.CacheMisses
	out["store.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	inc := a.Session.IncrementalApplies - b.Session.IncrementalApplies
	full := a.Session.FullRecompiles - b.Session.FullRecompiles + a.Session.Compiles - b.Session.Compiles
	out["store.incremental_ratio"] = ratio(float64(inc), float64(inc+full))
	out["store.epochs_reclaimed_ratio"] = ratio(float64(a.Session.EpochsReclaimed-b.Session.EpochsReclaimed), float64((a.Epoch-b.Epoch)*uint64(max(1, sp.cluster))))
	out["wal.fsyncs_per_write"] = ratio(float64(a.Durability.WALSyncs-b.Durability.WALSyncs), float64(a.Durability.WALAppends-b.Durability.WALAppends))
	out["wal.bytes_per_write"] = ratio(float64(a.Durability.WALBytes-b.Durability.WALBytes), float64(pr.writeN))
	shed := a.Admission.Reads.Shed + a.Admission.Mutations.Shed - b.Admission.Reads.Shed - b.Admission.Mutations.Shed
	admitted := a.Admission.Reads.Admitted + a.Admission.Mutations.Admitted - b.Admission.Reads.Admitted - b.Admission.Mutations.Admitted
	out["httpd.shed_ratio"] = ratio(float64(shed), float64(admitted))
	out["snapshot.stall_ms"] = pr.stallMs
	out["client.read_p99_ms"] = pr.readTail
	out["client.write_p99_ms"] = pr.writeTail
	out["client.retries"] = float64(pr.retries)
	out["driver.trustd_vm_hwm_mb"] = pr.hwmMB
	out["driver.lap_iqr_frac"] = iqrFrac(pr.lapRates)
	// One traced connection against the per-connection untraced rate.
	out["driver.trace_overhead_frac"] = 1 - ratio(float64(tracedOps)/tracedSeconds*float64(sp.clients), pr.e2e["ops_s"])

	if out["snapshot.load_ms"], out["wal.replay_us_per_batch"], err = recoveryLayers(e, sp, pr.killedDir); err != nil {
		return nil, err
	}

	l.linkSpans()
	shares := l.shares()
	for _, line := range shares {
		fmt.Println(line)
	}
	return out, l.writeTrace(e, shares)
}

// durablePass replays the writes on a durable store in the workload's
// fsync mode, then times one checkpoint of it.
func (l *ladder) durablePass(e *env, ops []tracedOp, out map[string]float64) error {
	dir, err := e.tempDir(l.sp.name + "-ladder")
	if err != nil {
		return err
	}
	defer e.removeDir(dir)
	mode := trustmap.DurabilityBatch
	if l.sp.durability == "always" {
		mode = trustmap.DurabilityAlways
	}
	st, err := trustmap.OpenStore(dir, trustmap.WithDurability(mode))
	if err != nil {
		return err
	}
	defer st.Close()
	durable := shard.NewSingleStore(st)
	if err := l.seed(durable); err != nil {
		return err
	}
	l.pass(ops, func(t *tracedOp) {
		if t.isWrite() {
			l.timed("durable", t.class, func() { l.onBackend(durable, &t.op) })
		}
	})
	l.opID, l.probe = len(ops)+1, true
	var info trustmap.CheckpointInfo
	l.timed("durable", "checkpoint", func() { info, err = st.Checkpoint() })
	if err != nil {
		return err
	}
	fi, err := os.Stat(filepath.Join(dir, "snapshots", info.Snapshot))
	if err != nil {
		return err
	}
	out["snapshot.bytes_per_object"] = ratio(float64(fi.Size()), float64(st.NumObjects()))
	return nil
}

// mergeClasses unions one rung's samples over several op classes (all of
// them when none is named).
func mergeClasses(us map[string]map[int]float64, rung string, classes ...string) map[int]float64 {
	out := map[int]float64{}
	for name, samples := range us {
		r, class, _ := strings.Cut(name, ".")
		if r != rung || (len(classes) > 0 && !slices.Contains(classes, class)) {
			continue
		}
		for id, v := range samples {
			out[id] = v
		}
	}
	return out
}

func medianOf(samples map[int]float64) float64 {
	xs := make([]float64, 0, len(samples))
	for _, v := range samples {
		xs = append(xs, v)
	}
	return median(xs)
}

// medianDiff is the median over the ops both rungs ran of upper - lower:
// the upper rung's self time, paired op by op so that slow ops do not
// have to be slow on both rungs' medians to cancel.
func medianDiff(upper, lower map[int]float64) float64 {
	xs := make([]float64, 0, len(upper))
	for id, u := range upper {
		if lo, ok := lower[id]; ok {
			xs = append(xs, u-lo)
		}
	}
	return median(xs)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// shares attributes the time of the workload's own reads and writes to
// layers: each layer's self time (its rung minus the rung below, op by
// op) summed over the ops, as a share of the sum over all layers. Sums,
// not medians: a share says where the time went, and on trust-churn most
// of it goes to the few writes that rebuild. Probe ops are left out.
func (l *ladder) shares() []string {
	layers := []string{"engine", "store", "wal", "shard", "query", "httpd", "client"}
	var lines []string
	for _, dir := range []struct {
		name    string
		classes []string
	}{{"read", []string{"read_hit", "read_miss", "scan"}}, {"write", []string{"put", "set_trust"}}} {
		self := map[string]float64{}
		n := 0
		for _, class := range dir.classes {
			at := func(rung string, id int) float64 { return l.us[rung+"."+class][id] }
			for id := range l.us["client."+class] {
				if !l.own(id) {
					continue
				}
				n++
				backend := at("store", id)
				self["engine"] += at("engine", id)
				self["store"] += at("store", id) - at("engine", id)
				if class == "scan" { // the handler's backend call is Query, not the raw stream
					self["query"] += at("query", id) - at("store", id)
					backend = at("query", id)
				}
				if _, wrote := l.us["durable."+class][id]; wrote {
					self["wal"] += at("durable", id) - at("store", id)
				}
				if l.clusterBackend {
					self["shard"] += at("shard", id) - backend
					backend = at("shard", id)
				}
				self["httpd"] += at("httpd", id) - backend
				self["client"] += at("client", id) - at("httpd", id)
			}
		}
		if n == 0 {
			continue
		}
		total := 0.0
		for _, layer := range layers {
			self[layer] = max(self[layer], 0) // a rung faster than the one below it (4 shards on 2 cores) has no self time
			total += self[layer]
		}
		line := fmt.Sprintf("share %s/%s n=%d us_per_op=%.1f", l.sp.name, dir.name, n, total/float64(n))
		for _, layer := range layers {
			line += fmt.Sprintf(" %s=%.1f%%", layer, 100*ratio(self[layer], total))
		}
		lines = append(lines, line)
	}
	return lines
}

// writeTrace dumps the spans kept in memory during the pass.
func (l *ladder) writeTrace(e *env, shares []string) error {
	raw, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Rungs    []string `json:"rungs"`
		Shares   []string `json:"shares"`
		Spans    []span   `json:"spans"`
	}{l.sp.name, rungs, shares, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.out, "trace-"+l.sp.name+".json"), raw, 0o644)
}

// recoveryLayers splits what recovery does on the post-kill data dir (one
// store, or one per shard, opened one after another as trustd does):
// loading the newest snapshot into a compiled store, and replaying the WAL
// tail above it. It works on a copy: opening a store may heal its log.
func recoveryLayers(e *env, sp *spec, killedDir string) (loadMS, replayUSPerBatch float64, err error) {
	dir, err := e.tempDir(sp.name + "-replay")
	if err != nil {
		return 0, 0, err
	}
	defer e.removeDir(dir)
	if err := copyTree(killedDir, dir); err != nil {
		return 0, 0, err
	}
	dirs := []string{dir}
	if sp.cluster > 1 {
		dirs = dirs[:0]
		for i := 0; i < sp.cluster; i++ {
			dirs = append(dirs, filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
		}
	}
	var load, open time.Duration
	var batches uint64
	for _, d := range dirs {
		t0 := time.Now()
		snap, _, err := snapshot.Latest(filepath.Join(d, "snapshots"))
		if err != nil {
			return 0, 0, err
		}
		if snap != nil {
			n := trustmap.New()
			for _, te := range snap.Trust {
				n.AddTrust(te.Truster, te.Trusted, te.Priority)
			}
			for u, v := range snap.Beliefs {
				n.SetBelief(u, v)
			}
			st, err := n.NewStore(trustmap.WithExtraRoots(snap.ExtraRoots...))
			if err != nil {
				return 0, 0, err
			}
			for k, bs := range snap.Objects {
				if err := st.PutObject(context.Background(), k, bs); err != nil {
					return 0, 0, err
				}
			}
		}
		load += time.Since(t0)

		t0 = time.Now()
		st, err := trustmap.OpenStore(d)
		if err != nil {
			return 0, 0, err
		}
		open += time.Since(t0)
		batches += st.Durability().RecoveredBatches
		if err := st.Close(); err != nil {
			return 0, 0, err
		}
	}
	return load.Seconds() * 1e3, ratio(float64(open-load)/1e3, float64(batches)), nil
}
