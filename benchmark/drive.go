package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"trustmap/client"
	"trustmap/wire"
)

// recoveries is how many times the post-kill data dir is recovered, each
// time from a byte-identical copy; recovery_s is the median of them.
const recoveries = 5

// caller is one closed-loop client: its own connection, its own op
// stream, and the timings of every op it ran.
type caller struct {
	cl  *client.Client
	ops []op

	start []int64   // per op, ns since the phase began
	dur   []int64   // per op, ns
	laps  []float64 // lap boundaries, seconds since the phase began
	rss   []float64 // server VmRSS in MB at each lap boundary
	pid   int

	checker   // ops attempted and failed
	lastLSN   uint64
	lastEpoch uint64
	ckpt      [2]int64 // the checkpoint call's interval, ns since the phase began
}

// newCaller gives every caller a private transport, so "2 clients" is two
// TCP connections and never more. Retries are armed so that a shed or a
// dropped connection shows up in client.retries (and as a failed op)
// instead of vanishing into a latency outlier.
func newCaller(url string, ops []op) *caller {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute}
	hc := &http.Client{Transport: tr, Timeout: time.Minute}
	retry := client.RetryPolicy{MaxAttempts: 3, RetryMutations: true}
	return &caller{cl: client.New(url, client.WithHTTPClient(hc), client.WithRetry(retry)), ops: ops}
}

// requests is how many HTTP requests the caller's client has sent.
func (c *caller) requests() (n uint64) {
	for _, ep := range c.cl.Endpoints() {
		n += ep.Attempts
	}
	return n
}

func (c *caller) fail(err error) { c.add(0, 1, err) }

// do runs one op and validates its reply; any non-2xx, any reply that is
// not the shape the op asked for, and any LSN or epoch that runs
// backwards is a failed op.
func (c *caller) do(ctx context.Context, o *op, single bool) {
	c.attempted++
	var lsn, epoch uint64
	var err error
	switch o.kind {
	case opResolve:
		var res wire.ObjectResolutionResponse
		if res, err = c.cl.ResolveObject(ctx, o.key, o.users); err == nil {
			lsn, epoch = res.LSN, res.Epoch
			err = checkResolution(res, o)
		}
	case opScan:
		var res *client.QueryResult
		if res, err = c.cl.Query(ctx, scanQuery(o.users)); err == nil {
			lsn, epoch = res.LSN, c.lastEpoch // a scan's epoch is the minimum over shards: not ordered against routed writes
			if len(res.Rows) == 0 {
				err = fmt.Errorf("scan answered no groups")
			}
		}
	case opPutBelief:
		var res wire.ObjectResponse
		if res, err = c.cl.PutBelief(ctx, o.key, o.user, o.value); err == nil {
			lsn, epoch = res.LSN, res.Epoch
			if res.Beliefs[o.user] != o.value {
				err = fmt.Errorf("put-belief %s/%s acked %q, wrote %q", o.key, o.user, res.Beliefs[o.user], o.value)
			}
		}
	case opPutObject:
		var res wire.ObjectResponse
		if res, err = c.cl.PutObject(ctx, o.key, o.beliefs); err == nil {
			lsn, epoch = res.LSN, res.Epoch
			if !sameBeliefs(res.Beliefs, o.beliefs) {
				err = fmt.Errorf("put-object %s acked %v, wrote %v", o.key, res.Beliefs, o.beliefs)
			}
		}
	case opTrust:
		var res wire.MutateResponse
		if res, err = c.cl.Mutate(ctx, []wire.Op{o.spine}); err == nil {
			lsn, epoch = res.LSN, res.Epoch
			if res.Applied != 1 {
				err = fmt.Errorf("mutate applied %d ops, want 1", res.Applied)
			}
		}
	}
	switch {
	case err != nil:
		c.fail(fmt.Errorf("%s: %w", o.describe(), err))
	case lsn < c.lastLSN:
		c.fail(fmt.Errorf("%s: lsn %d after %d", o.describe(), lsn, c.lastLSN))
	case single && epoch < c.lastEpoch:
		// Only a single store has one epoch sequence; a cluster reply
		// carries its owning shard's epoch.
		c.fail(fmt.Errorf("%s: epoch %d after %d", o.describe(), epoch, c.lastEpoch))
	default:
		c.lastLSN = lsn
		if single {
			c.lastEpoch = epoch
		}
	}
}

func (o *op) describe() string {
	switch o.kind {
	case opResolve:
		return "resolve " + o.key
	case opScan:
		return "scan"
	case opPutBelief:
		return "put-belief " + o.key + "/" + o.user
	case opPutObject:
		return "put-object " + o.key
	default:
		return o.spine.Op + " " + o.spine.Truster + "->" + o.spine.Trusted
	}
}

// checkResolution validates the shape of a read reply: exactly the asked
// users, and a certain value only where it is the one possible value.
func checkResolution(res wire.ObjectResolutionResponse, o *op) error {
	if res.Object != o.key || len(res.Users) != len(o.users) {
		return fmt.Errorf("answered object %q with %d users, asked %q with %d", res.Object, len(res.Users), o.key, len(o.users))
	}
	for _, u := range o.users {
		r, ok := res.Users[u]
		if !ok {
			return fmt.Errorf("user %s missing from the reply", u)
		}
		if r.Certain != "" && (len(r.Possible) != 1 || r.Possible[0] != r.Certain) {
			return fmt.Errorf("user %s: certain %q but possible %v", u, r.Certain, r.Possible)
		}
	}
	return nil
}

func sameBeliefs(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// run drives ops [from, to) of the caller's stream, closed loop, and
// records per-op timings relative to t0 plus a lap boundary every lapOps
// ops (lapOps = 0: no laps). ckptAt (absolute op index, -1 = never) is
// where the caller issues the workload's checkpoint first.
func (c *caller) run(ctx context.Context, t0 time.Time, from, to, lapOps, ckptAt int, single bool) {
	c.start = make([]int64, 0, to-from)
	c.dur = make([]int64, 0, to-from)
	c.laps = c.laps[:0]
	if lapOps > 0 {
		c.lapBoundary(time.Since(t0))
	}
	for i := from; i < to; i++ {
		if i == ckptAt {
			begin := time.Since(t0)
			c.attempted++
			if _, err := c.cl.Checkpoint(ctx); err != nil {
				c.fail(fmt.Errorf("checkpoint: %w", err))
			}
			c.ckpt = [2]int64{int64(begin), int64(time.Since(t0))}
		}
		begin := time.Since(t0)
		c.do(ctx, &c.ops[i], single)
		end := time.Since(t0)
		c.start = append(c.start, int64(begin))
		c.dur = append(c.dur, int64(end-begin))
		if lapOps > 0 && (i-from+1)%lapOps == 0 {
			c.lapBoundary(end)
		}
	}
}

// lapBoundary records the time and samples the server's resident set: one
// small /proc read per lap, off the op path.
func (c *caller) lapBoundary(at time.Duration) {
	c.laps = append(c.laps, at.Seconds())
	kb, err := statusKB(c.pid, "VmRSS")
	if err != nil {
		c.fail(err)
	}
	c.rss = append(c.rss, float64(kb)/1024)
}

// runAll runs every caller over the same op range concurrently and
// returns once all are done.
func runAll(ctx context.Context, callers []*caller, from, to, lapOps, ckptAt int, single bool) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range callers {
		at := -1
		if i == 0 {
			at = ckptAt
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(ctx, t0, from, to, lapOps, at, single)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// phaseResult is what one untraced subprocess run measured.
type phaseResult struct {
	e2e map[string]float64 // the eight end-to-end metrics

	check checker // every op and every correctness check of the run

	measuredSeconds float64
	lapRates        []float64 // ops/s of each lap, every caller's rate summed
	verifySeconds   float64   // oracle check after the phase
	recoverSeconds  float64   // all recoveries, with their copies and read-backs
	readN, writeN   int
	readTailP       float64 // percentile actually reported as client.read_p99_ms
	writeTailP      float64
	readTail        float64
	writeTail       float64
	retries         uint64
	stallMs         float64
	hwmMB           float64 // VmHWM at the end of the phase
	before, after   wire.StatsResponse
	killedDir       string // post-SIGKILL data dir, kept for the traced pass (caller removes)
	recoverySamples []float64
}

// runPhase is one complete untraced run of a workload against a real
// trustd subprocess: set-up, measured phase, oracle check, SIGKILL and
// the recoveries. keepDir leaves the post-kill data dir in place for the
// traced pass and skips all but one recovery.
func runPhase(ctx context.Context, e *env, sp *spec, seed int64, keepDir bool) (*phaseResult, error) {
	res := &phaseResult{e2e: map[string]float64{}}
	single := sp.cluster == 0

	// ---- set-up: inputs, process, seeded state, checkpoint, warm-up ----
	setupStart := time.Now()
	w := newWorld(sp, seed)
	dataDir, err := e.tempDir(sp.name)
	if err != nil {
		return nil, err
	}
	defer func() {
		if res.killedDir != dataDir {
			e.removeDir(dataDir)
		}
	}()
	srv, err := e.start(sp, dataDir, "run")
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	if _, err := srv.waitReady(ctx, 0); err != nil {
		return nil, err
	}
	callers := make([]*caller, sp.clients)
	for c := range callers {
		callers[c] = newCaller(srv.url, w.streams[c])
		callers[c].pid = srv.pid()
	}
	admin := client.New(srv.url) // set-up, stats and oracle reads: never a caller's connection
	if mr, err := admin.Mutate(ctx, w.seedOps()); err != nil || mr.Applied != len(w.edges)+len(w.roots) {
		return nil, fmt.Errorf("seeding the spine: applied %d: %v", mr.Applied, err)
	}
	for _, key := range w.keys {
		if _, err := admin.PutObject(ctx, key, w.objects[key]); err != nil {
			return nil, fmt.Errorf("seeding object %s: %w", key, err)
		}
	}
	// Resolve every seeded object once, so the result cache starts full on
	// every seed: left to the Zipf draws, how much of it a run fills (and
	// so the server's resident set) differed by a sixth between seeds.
	for _, key := range w.keys {
		if _, err := admin.ResolveObject(ctx, key, w.users[:1]); err != nil {
			return nil, fmt.Errorf("resolving seeded object %s: %w", key, err)
		}
	}
	if _, err := admin.Checkpoint(ctx); err != nil {
		return nil, fmt.Errorf("set-up checkpoint: %w", err)
	}
	runAll(ctx, callers, 0, sp.warmup, 0, -1, single)
	var sentBefore uint64
	for _, c := range callers {
		if c.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d ops failed, first: %w", c.failed, c.firstErr)
		}
		c.attempted = 0
		sentBefore += c.requests()
	}
	res.e2e["setup_s"] = time.Since(setupStart).Seconds()

	// ---- measured phase ----
	if res.before, err = admin.Stats(ctx); err != nil {
		return nil, err
	}
	snapsBefore, err := snapshotFiles(dataDir)
	if err != nil {
		return nil, err
	}
	cpuBefore, err := cpuTicks(srv.pid())
	if err != nil {
		return nil, err
	}
	ckptAt := sp.warmup + sp.ops*sp.ckptPct/100
	elapsed := runAll(ctx, callers, sp.warmup, sp.warmup+sp.ops, sp.lapOps(), ckptAt, single)
	cpuAfter, err := cpuTicks(srv.pid())
	if err != nil {
		return nil, err
	}
	hwmKB, err := statusKB(srv.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	if res.after, err = admin.Stats(ctx); err != nil {
		return nil, err
	}
	snapsAfter, err := snapshotFiles(dataDir)
	if err != nil {
		return nil, err
	}
	res.measuredSeconds = elapsed.Seconds()

	var reads, writes []float64
	ops, acked := 0, 0
	// The stall the checkpoint imposes on its own connection is the call.
	res.stallMs = float64(callers[0].ckpt[1]-callers[0].ckpt[0]) / 1e6
	for _, c := range callers {
		res.check.merge(c.checker)
		ops += len(c.dur)
		for i, d := range c.dur {
			ms := float64(d) / 1e6
			if o := &c.ops[sp.warmup+i]; o.isWrite() {
				writes = append(writes, ms)
				acked++
				// The stall the checkpoint imposes on another connection:
				// the longest write that overlapped the call.
				if k := callers[0].ckpt; c.start[i] < k[1] && c.start[i]+d > k[0] {
					res.stallMs = max(res.stallMs, ms)
				}
			} else {
				reads = append(reads, ms)
			}
		}
		res.retries += c.requests()
	}
	// Every request beyond one per op (and per checkpoint) was a retry, and
	// a retried op is a failed op: the seed must never need one.
	res.retries -= sentBefore + uint64(res.check.attempted)
	if res.retries > 0 {
		res.check.add(0, int(res.retries), fmt.Errorf("%d requests were retried", res.retries))
	}
	sort.Float64s(reads)
	sort.Float64s(writes)
	res.readN, res.writeN = len(reads), len(writes)
	res.readTailP, res.writeTailP = tailPercentile(len(reads)), tailPercentile(len(writes))
	res.readTail, res.writeTail = percentile(reads, res.readTailP), percentile(writes, res.writeTailP)

	diskBytes := int64(res.after.Durability.WALBytes - res.before.Durability.WALBytes)
	for path, size := range snapsAfter {
		if _, old := snapsBefore[path]; !old {
			diskBytes += size // a snapshot the phase's checkpoint wrote
		}
	}

	lapOps := make([]int, len(callers))
	bounds := make([][]float64, len(callers))
	for i, c := range callers {
		lapOps[i], bounds[i] = sp.lapOps(), c.laps
	}
	res.lapRates = lapRates(lapOps, bounds)
	res.e2e["ops_s"] = median(res.lapRates)
	res.e2e["read_p50_ms"] = percentile(reads, 0.5)
	res.e2e["write_p50_ms"] = percentile(writes, 0.5)
	res.e2e["cpu_us_per_op"] = float64(cpuAfter-cpuBefore) / clockTick * 1e6 / float64(ops)
	// The highest resident set at a lap boundary, not VmHWM. The high-water
	// mark also holds the worst transient of the phase (one garbage-collection
	// cycle that fell behind four scanning shards), and on cluster-scan, a
	// 20 MB process, that alone spread it by 18 % and 32 % over two sets of
	// ten runs of one commit: wider than any bound the contract allows. VmHWM
	// is reported beside it as driver.trustd_vm_hwm_mb.
	for _, c := range callers {
		for _, mb := range c.rss {
			res.e2e["rss_peak_mb"] = max(res.e2e["rss_peak_mb"], mb)
		}
	}
	res.hwmMB = float64(hwmKB) / 1024
	res.e2e["disk_bytes_per_write"] = float64(diskBytes) / float64(acked)

	// ---- correctness on the acked state ----
	m := newModel(w)
	for _, c := range callers {
		for i := range c.ops {
			m.apply(&c.ops[i])
		}
	}
	verifyStart := time.Now()
	ref := newReference(m)
	verifyState(ctx, admin, ref, sp, seed, &res.check)
	res.verifySeconds = time.Since(verifyStart).Seconds()

	// ---- SIGKILL, then recoveries from identical copies ----
	h, ok := srv.health()
	if !ok {
		return nil, fmt.Errorf("trustd stopped answering /healthz before the kill:\n%s", srv.stderrTail())
	}
	wantLSN := h.LSN
	srv.kill()
	recoverStart := time.Now()
	n := recoveries
	if keepDir { // the traced pass wants the directory, not the statistic
		res.killedDir, n = dataDir, 1
	}
	for i := 0; i < n; i++ {
		secs, err := recoverOnce(ctx, e, sp, dataDir, wantLSN, ref, seed, i == 0 && !keepDir, &res.check)
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		res.recoverySamples = append(res.recoverySamples, secs)
	}
	res.e2e["recovery_s"] = median(res.recoverySamples)
	res.recoverSeconds = time.Since(recoverStart).Seconds()
	return res, nil
}

// recoverOnce copies the post-kill data dir, starts trustd on the copy,
// times exec -> first 200 on /healthz at the pre-kill LSN, and reads the
// acked state back (the copies are byte-identical, so every recovery
// replays exactly what the first one did; only the first is read back
// thoroughly).
func recoverOnce(ctx context.Context, e *env, sp *spec, killedDir string, wantLSN uint64, ref *reference, seed int64, thorough bool, c *checker) (secs float64, err error) {
	dir, err := e.tempDir(sp.name + "-recover")
	if err != nil {
		return 0, err
	}
	defer e.removeDir(dir)
	if err := copyTree(killedDir, dir); err != nil {
		return 0, err
	}
	t0 := time.Now()
	srv, err := e.start(sp, dir, "recover")
	if err != nil {
		return 0, err
	}
	defer srv.kill()
	rctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	h, err := srv.waitReady(rctx, wantLSN)
	if err != nil {
		return 0, err
	}
	secs = time.Since(t0).Seconds()
	c.check(h.LSN == wantLSN, "recovery: lsn %d after restart, %d before the kill", h.LSN, wantLSN)
	readBack(ctx, client.New(srv.url), ref, seed, thorough, c)
	return secs, nil
}
