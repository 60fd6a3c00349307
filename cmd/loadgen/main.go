// Command loadgen is the open-loop load harness for trustd: it fires
// requests at a fixed arrival rate — arrivals are scheduled by the clock,
// never by completions, so a slow server faces a growing backlog exactly
// as production traffic would behave — and reports exact latency
// percentiles plus the deterministic outcome counters the resilience
// layer exposes.
//
// Usage:
//
//	loadgen -addr http://localhost:7171 -rate 500 -duration 10s
//	loadgen -self -rate 2000 -duration 2s -read-limit 4 -slo-max-shed-frac 0.5
//
// -self serves the real stack (internal/httpd over a demo store) on an
// in-process loopback listener, so overload behavior is reproducible
// without deploying anything. With -addr, loadgen first seeds its own
// chain community into the target through ordinary mutate upserts
// (re-chunking if the server's batch limit objects), so the pre-drawn
// ops are valid against any trustd; nothing else on the target is
// touched.
//
// The op mix is pre-drawn from -seed before the clock starts: run i
// always issues the same i-th request, so two runs at the same rate are
// comparable sample by sample. -mutate-frac of requests are single-op
// mutates, -query-frac are selective relational queries (POST
// /v1/query, key-pushdown shaped so the greedy planner's fast path is
// what the run measures; arming it seeds loadgen's own objects into the
// target first); the rest resolve.
//
// Outcomes are counted by class — ok, shed (429), deadline (503),
// error — and every request lands in exactly one class: the conservation
// law the SLO gate and the tests rely on. Latency percentiles (p50 p90
// p99 p999) are computed exactly from the full sorted sample set, never
// estimated, and only over admitted (ok) requests: a shed's fast 429
// must not flatter the latency numbers.
//
// The -slo-* flags turn the report into a gate (exit 1 on violation):
//
//	-slo-min-ops N         total issued requests must reach N
//	-slo-max-shed-frac F   shed/(issued) must not exceed F
//	-slo-min-shed-frac F   shed/(issued) must reach F (asserts an overload run overloaded)
//	-slo-max-queue-depth N server max read-queue depth must not exceed N (requires stats)
//	-slo-max-p99 D         p99 of admitted requests must not exceed D
//
// -summary appends a GitHub-flavored markdown report (e.g. to
// $GITHUB_STEP_SUMMARY).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trustmap"
	"trustmap/client"
	"trustmap/internal/admission"
	"trustmap/internal/faultinject"
	"trustmap/internal/httpd"
	"trustmap/wire"
)

// opKind is one pre-drawn request class.
type opKind uint8

const (
	opResolve opKind = iota
	opMutate
	opQuery
)

// queryObjects is how many objects seedObjects installs and the
// pre-drawn query ops draw their key predicates from.
const queryObjects = 16

// op is one pre-drawn request: everything random is fixed before the
// clock starts.
type op struct {
	kind opKind
	user int // resolve: which user asks; mutate: which edge is re-weighted
	prio int // mutate: the new priority
}

// config is one load run, fully determined before the first request.
type config struct {
	addr      string        // target server ("" with self)
	self      bool          // serve the real stack in-process
	rate      float64       // arrivals per second
	duration  time.Duration // how long arrivals keep coming
	seed      int64
	mutFrac   float64 // fraction of arrivals that mutate
	queryFrac float64 // fraction of arrivals that run a relational query
	timeout   time.Duration

	users     int // demo community size with -self
	readLimit int // -self admission: read slots (0 = ungated)
	readQueue int
	queueWait time.Duration
	selfDelay time.Duration // -self: synthetic per-request service time

	sloMinOps     uint64
	sloShedFrac   float64 // <0 = off
	sloMinShed    float64 // <=0 = off; overload runs assert shedding DID happen
	sloQueueDepth int     // <0 = off
	sloP99        time.Duration
}

// report is the deterministic outcome of one run.
type report struct {
	Issued   uint64 `json:"issued"`
	OK       uint64 `json:"ok"`
	Shed     uint64 `json:"shed"`
	Deadline uint64 `json:"deadline"`
	Errors   uint64 `json:"errors"`

	// Exact percentiles over admitted (ok) requests.
	P50, P90, P99, P999 time.Duration

	// Admission stats scraped from the server after the run (zero-valued
	// when the target exposes none).
	Admission wire.AdmissionStats `json:"admission"`
}

// shedFrac is the shed fraction of all issued requests.
func (r *report) shedFrac() float64 {
	if r.Issued == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Issued)
}

// drawOps pre-draws the whole arrival sequence: op i is a pure function
// of (seed, i), independent of timing.
func drawOps(cfg config, n int) []op {
	rng := rand.New(rand.NewSource(cfg.seed))
	ops := make([]op, n)
	for i := range ops {
		o := op{user: rng.Intn(cfg.users), prio: 1 + rng.Intn(100)}
		// One draw decides the class, so a run with -query-frac 0 issues
		// exactly the sequence earlier loadgen versions drew from the seed.
		switch r := rng.Float64(); {
		case r < cfg.mutFrac:
			o.kind = opMutate
		case r < cfg.mutFrac+cfg.queryFrac:
			o.kind = opQuery
		}
		ops[i] = o
	}
	return ops
}

// demoStore compiles the -self community: users u0..u{n-1}, each
// trusting its predecessor, with a believing root — every resolve has a
// real trust chain to walk.
func demoStore(users int) (*trustmap.Store, error) {
	n := trustmap.New()
	n.SetBelief("u0", "fish")
	for i := 1; i < users; i++ {
		n.AddTrust(fmt.Sprintf("u%d", i), fmt.Sprintf("u%d", i-1), 10)
	}
	return n.NewStore()
}

// seedRemote installs the same chain community demoStore builds —
// u0 believes, each u_i trusts u_{i-1} — into a remote target through
// ordinary mutate upserts, so -addr works against any trustd regardless
// of what it already serves. A 413 answer re-chunks to the batch limit
// the error body names.
func seedRemote(ctx context.Context, c *client.Client, users []string) error {
	ops := []wire.Op{{Op: wire.OpSetBelief, User: users[0], Value: "fish"}}
	for i := 1; i < len(users); i++ {
		ops = append(ops, wire.Op{
			Op: wire.OpSetTrust, Truster: users[i], Trusted: users[i-1], Priority: 10,
		})
	}
	chunk := len(ops)
	for len(ops) > 0 {
		if chunk > len(ops) {
			chunk = len(ops)
		}
		if _, err := c.Mutate(ctx, ops[:chunk]); err != nil {
			var ae *client.APIError
			if errors.As(err, &ae) && ae.StatusCode == http.StatusRequestEntityTooLarge &&
				ae.Limit > 0 && ae.Limit < chunk {
				chunk = ae.Limit
				continue
			}
			return err
		}
		ops = ops[chunk:]
	}
	return nil
}

// seedObjects installs the objects the pre-drawn query ops scan —
// loadgen-obj0000..%04d — each carrying the root's belief and, on every
// third key, a conflicting tail belief, so disagreement-shaped queries
// have rows to find. Stating an object belief promotes the tail user to
// a root, and a root without a network-level default would fail
// assumption (ii) on every resolve that doesn't mention it — so the
// tail gets a spine default first, keeping the rest of the mix valid.
// The keys are namespaced to stay out of the target's own data.
func seedObjects(ctx context.Context, c *client.Client, users []string) error {
	if len(users) > 1 {
		tail := users[len(users)-1]
		if _, err := c.Mutate(ctx, []wire.Op{{Op: wire.OpSetBelief, User: tail, Value: "cow"}}); err != nil {
			return fmt.Errorf("setting a default belief for %s: %w", tail, err)
		}
	}
	for i := 0; i < queryObjects; i++ {
		beliefs := map[string]string{users[0]: "fish"}
		if i%3 == 0 && len(users) > 1 {
			beliefs[users[len(users)-1]] = fmt.Sprintf("v%d", i)
		}
		if _, err := c.PutObject(ctx, fmt.Sprintf("loadgen-obj%04d", i), beliefs); err != nil {
			return err
		}
	}
	return nil
}

// queryFor shapes the i-th pre-drawn query: a key-equality predicate
// (the planner's point-lookup pushdown) plus a residual boolean filter.
func queryFor(o op) wire.Query {
	return wire.Query{
		Where: []wire.Predicate{
			{Col: "conflicted", Op: wire.PredEq},
			{Col: "object", Op: wire.PredEq, Value: fmt.Sprintf("loadgen-obj%04d", o.user%queryObjects)},
		},
	}
}

// serveSelf starts the real serving stack on a loopback listener and
// returns its base URL and a shutdown func.
func serveSelf(cfg config) (string, func(), error) {
	st, err := demoStore(cfg.users)
	if err != nil {
		return "", nil, err
	}
	h := httpd.New(st, httpd.Config{
		DefaultTimeout: cfg.timeout,
		Reads: admission.Config{
			MaxConcurrent: cfg.readLimit, MaxQueue: cfg.readQueue, QueueTimeout: cfg.queueWait,
		},
		Mutations: admission.Config{
			MaxConcurrent: 4, MaxQueue: 64, QueueTimeout: cfg.queueWait,
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln)
	}()
	stop := func() {
		_ = srv.Close()
		wg.Wait()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// run executes one open-loop load run and reports the outcome counters
// and exact percentiles.
func run(ctx context.Context, cfg config) (*report, error) {
	addr := cfg.addr
	if cfg.self {
		if cfg.selfDelay > 0 {
			// Synthetic service time, held inside the admission slot: on a
			// small machine real handlers finish within one scheduler
			// quantum and the gates never see two requests at once, so
			// overload would be unreproducible without this.
			faultinject.Enable(faultinject.HandlerServe, faultinject.Slow(cfg.selfDelay))
			defer faultinject.Reset()
		}
		var stop func()
		var err error
		addr, stop, err = serveSelf(cfg)
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	c := client.New(addr, client.WithHTTPClient(&http.Client{
		Timeout: cfg.timeout + time.Second,
		Transport: &http.Transport{
			// Open loop: the backlog under overload is bounded by the
			// arrival count, so let connections scale with it.
			MaxIdleConnsPerHost: 256,
		},
	}))

	interval := time.Duration(float64(time.Second) / cfg.rate)
	n := int(cfg.duration / interval)
	ops := drawOps(cfg, n)
	users := make([]string, cfg.users)
	for i := range users {
		users[i] = fmt.Sprintf("u%d", i)
	}

	if !cfg.self {
		// A remote target serves its own community, not loadgen's u0..uN
		// naming — install the chain before the clock starts so every
		// pre-drawn op is valid against any trustd.
		if err := seedRemote(ctx, c, users); err != nil {
			return nil, fmt.Errorf("seeding target with loadgen's community: %w", err)
		}
	}
	if cfg.queryFrac > 0 {
		// Query ops scan stored objects; install loadgen's namespaced set
		// before the clock starts (in both modes — the -self demo store
		// starts objectless).
		if err := seedObjects(ctx, c, users); err != nil {
			return nil, fmt.Errorf("seeding target with loadgen's objects: %w", err)
		}
	}

	rep := &report{Issued: uint64(n)}
	var okN, shedN, dlN, errN atomic.Uint64
	lat := make([]time.Duration, n) // slot i belongs to request i; 0 = not admitted
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		// Open loop: wait for the i-th arrival tick, never for responses.
		if d := start.Add(time.Duration(i) * interval).Sub(time.Now()); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := ops[i]
			t0 := time.Now()
			var err error
			switch o.kind {
			case opMutate:
				// Upsert a trust edge toward the believing root; never a
				// self-edge, so every drawn mutate is valid.
				_, err = c.Mutate(ctx, []wire.Op{{
					Op: wire.OpSetTrust, Truster: users[1+o.user%(len(users)-1)],
					Trusted: "u0", Priority: o.prio,
				}})
			case opQuery:
				_, err = c.Query(ctx, queryFor(o))
			default:
				_, err = c.Resolve(ctx, nil, []string{users[o.user%len(users)]})
			}
			switch {
			case err == nil:
				okN.Add(1)
				lat[i] = time.Since(t0)
			case client.IsShed(err):
				shedN.Add(1)
			case client.IsUnavailable(err):
				dlN.Add(1)
			default:
				errN.Add(1)
			}
		}(i)
	}
	wg.Wait()
	rep.OK, rep.Shed, rep.Deadline, rep.Errors = okN.Load(), shedN.Load(), dlN.Load(), errN.Load()

	admitted := make([]time.Duration, 0, n)
	for _, d := range lat {
		if d > 0 {
			admitted = append(admitted, d)
		}
	}
	sort.Slice(admitted, func(a, b int) bool { return admitted[a] < admitted[b] })
	rep.P50 = percentile(admitted, 0.50)
	rep.P90 = percentile(admitted, 0.90)
	rep.P99 = percentile(admitted, 0.99)
	rep.P999 = percentile(admitted, 0.999)

	// Scrape the server's own deterministic counters; stats bypass
	// admission, so this works even when the run saturated the gates.
	if stats, err := c.Stats(ctx); err == nil {
		rep.Admission = stats.Admission
	}
	return rep, nil
}

// percentile reads the exact q-quantile from sorted samples (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// checkSLO evaluates the armed gates and returns every violation.
func checkSLO(cfg config, rep *report) []string {
	var v []string
	if cfg.sloMinOps > 0 && rep.Issued < cfg.sloMinOps {
		v = append(v, fmt.Sprintf("issued %d < min ops %d", rep.Issued, cfg.sloMinOps))
	}
	if cfg.sloShedFrac >= 0 && rep.shedFrac() > cfg.sloShedFrac {
		v = append(v, fmt.Sprintf("shed fraction %.3f > %.3f", rep.shedFrac(), cfg.sloShedFrac))
	}
	if cfg.sloMinShed > 0 && rep.shedFrac() < cfg.sloMinShed {
		v = append(v, fmt.Sprintf("shed fraction %.3f < required %.3f (overload did not overload)", rep.shedFrac(), cfg.sloMinShed))
	}
	if cfg.sloQueueDepth >= 0 && rep.Admission.Reads.MaxQueueDepth > cfg.sloQueueDepth {
		v = append(v, fmt.Sprintf("max read-queue depth %d > %d", rep.Admission.Reads.MaxQueueDepth, cfg.sloQueueDepth))
	}
	if cfg.sloP99 > 0 && rep.P99 > cfg.sloP99 {
		v = append(v, fmt.Sprintf("admitted p99 %v > %v", rep.P99, cfg.sloP99))
	}
	return v
}

// appendSummary appends the run report as GitHub-flavored markdown;
// appending (not truncating) is the step-summary contract.
func appendSummary(path string, cfg config, rep *report) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "### loadgen (%.0f req/s for %v)\n\n", cfg.rate, cfg.duration)
	fmt.Fprintln(f, "| metric | value |")
	fmt.Fprintln(f, "|---|---:|")
	fmt.Fprintf(f, "| issued | %d |\n", rep.Issued)
	fmt.Fprintf(f, "| ok | %d |\n", rep.OK)
	fmt.Fprintf(f, "| shed (429) | %d (%.1f%%) |\n", rep.Shed, 100*rep.shedFrac())
	fmt.Fprintf(f, "| deadline (503) | %d |\n", rep.Deadline)
	fmt.Fprintf(f, "| errors | %d |\n", rep.Errors)
	fmt.Fprintf(f, "| p50 / p90 / p99 / p999 | %v / %v / %v / %v |\n", rep.P50, rep.P90, rep.P99, rep.P999)
	fmt.Fprintf(f, "| server reads admitted/shed | %d / %d |\n", rep.Admission.Reads.Admitted, rep.Admission.Reads.Shed)
	fmt.Fprintf(f, "| server max read-queue depth | %d |\n\n", rep.Admission.Reads.MaxQueueDepth)
	return nil
}

func printReport(cfg config, rep *report) {
	fmt.Printf("loadgen: %.0f req/s for %v (%d issued)\n", cfg.rate, cfg.duration, rep.Issued)
	fmt.Printf("  ok %d, shed %d (%.1f%%), deadline %d, errors %d\n",
		rep.OK, rep.Shed, 100*rep.shedFrac(), rep.Deadline, rep.Errors)
	fmt.Printf("  admitted latency: p50 %v  p90 %v  p99 %v  p999 %v\n",
		rep.P50, rep.P90, rep.P99, rep.P999)
	if rep.Admission.Enabled {
		fmt.Printf("  server: reads admitted %d shed %d (max queue %d), mutations admitted %d, deadline-exceeded %d\n",
			rep.Admission.Reads.Admitted, rep.Admission.Reads.Shed, rep.Admission.Reads.MaxQueueDepth,
			rep.Admission.Mutations.Admitted, rep.Admission.DeadlineExceeded)
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "target server base URL (mutually exclusive with -self)")
	flag.BoolVar(&cfg.self, "self", false, "serve the real stack in-process on a loopback listener")
	flag.Float64Var(&cfg.rate, "rate", 200, "open-loop arrival rate, requests per second")
	flag.DurationVar(&cfg.duration, "duration", 2*time.Second, "how long arrivals keep coming")
	flag.Int64Var(&cfg.seed, "seed", 42, "op-mix seed: op i is a pure function of (seed, i)")
	flag.Float64Var(&cfg.mutFrac, "mutate-frac", 0.05, "fraction of arrivals that mutate")
	flag.Float64Var(&cfg.queryFrac, "query-frac", 0, "fraction of arrivals that run a selective relational query (seeds loadgen's objects into the target first)")
	flag.DurationVar(&cfg.timeout, "timeout", 2*time.Second, "per-request deadline (propagated server-side with -self)")
	flag.IntVar(&cfg.users, "users", 64, "demo community size with -self")
	flag.IntVar(&cfg.readLimit, "read-limit", 0, "-self: concurrent read slots (0 = ungated)")
	flag.IntVar(&cfg.readQueue, "read-queue", 0, "-self: read queue depth")
	flag.DurationVar(&cfg.queueWait, "queue-timeout", 100*time.Millisecond, "-self: longest a queued request waits")
	flag.DurationVar(&cfg.selfDelay, "self-delay", 0, "-self: synthetic per-request service time held inside the admission slot (reproducible overload)")
	flag.Uint64Var(&cfg.sloMinOps, "slo-min-ops", 0, "SLO: fail unless at least this many requests were issued (0 = off)")
	flag.Float64Var(&cfg.sloShedFrac, "slo-max-shed-frac", -1, "SLO: fail when shed/issued exceeds this (negative = off)")
	flag.Float64Var(&cfg.sloMinShed, "slo-min-shed-frac", 0, "SLO: fail unless shed/issued reaches this — asserts an overload run actually overloaded (0 = off)")
	flag.IntVar(&cfg.sloQueueDepth, "slo-max-queue-depth", -1, "SLO: fail when the server's max read-queue depth exceeds this (negative = off)")
	flag.DurationVar(&cfg.sloP99, "slo-max-p99", 0, "SLO: fail when admitted p99 exceeds this (0 = off)")
	summary := flag.String("summary", "", "append the report as markdown to this file (e.g. $GITHUB_STEP_SUMMARY)")
	flag.Parse()

	if cfg.self == (cfg.addr != "") {
		fmt.Fprintln(os.Stderr, "loadgen: exactly one of -addr and -self is required")
		os.Exit(2)
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	printReport(cfg, rep)
	if *summary != "" {
		if err := appendSummary(*summary, cfg, rep); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
	}
	if violations := checkSLO(cfg, rep); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "loadgen: SLO violation:", v)
		}
		os.Exit(1)
	}
}
