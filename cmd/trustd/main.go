// Command trustd serves trust-mapping resolution over HTTP: one
// long-running process, one shared trustmap.Store, epoch-swapped
// snapshots underneath. Any number of concurrent resolve calls read the
// currently published compiled artifact lock-free while mutate calls
// build the next epoch off to the side and swap it in atomically — the
// production shape of the paper's bulk setting (Section 4) for a live
// community database. The store keeps the served objects too: object
// CRUD edits per-object beliefs and invalidates exactly the touched
// object's cached resolution.
//
// Usage:
//
//	trustd -f network.json [-addr :7171] [-workers N] [-extra-roots a,b] [-max-batch N]
//	trustd -demo 1000 [-seed 42] [-addr :7171]
//	trustd -data-dir /var/lib/trustd [-f seed.json] [-durability batch|off|always]
//	trustd -data-dir /var/lib/trustd-replica -replica-of http://primary:7171
//	trustd -cluster 4 [-f seed.json] [-data-dir /var/lib/trustd]
//
// With -data-dir the store is durable: every mutation is journaled to a
// write-ahead log under <dir>/wal and compacted into snapshots under
// <dir>/snapshots (POST /v1/admin/checkpoint, or checkpoint-every). On
// start the store recovers from the latest snapshot plus the WAL suffix;
// while recovery runs, every endpoint answers 503 with a Retry-After
// header. -f then seeds a store whose directory is still empty and is
// ignored on later starts; -demo is incompatible with -data-dir.
//
// The network file uses trustctl's format, optionally with stored
// objects:
//
//	{
//	  "trust":   [{"truster": "Alice", "trusted": "Bob", "priority": 100}],
//	  "beliefs": {"Bob": "fish", "Charlie": "knot"},
//	  "objects": {"obj1": {"Bob": "cow"}}
//	}
//
// -demo N serves a deterministic scale-free demo network with N users
// instead (for trying the endpoints without authoring a file).
//
// Endpoints (all JSON; see the wire package for the schema and the
// client package for the typed Go client):
//
//	GET    /healthz                             liveness plus the current epoch
//	GET    /v1/stats                            session + store + engine statistics
//	POST   /v1/resolve                          {"beliefs": {...}, "users": [...]}
//	POST   /v1/bulk-resolve                     {"objects": {key: {...}}, "users": [...]}
//	POST   /v1/mutate                           {"ops": [{"op": "set-trust", ...}, ...]}
//	GET    /v1/objects                          stored object keys
//	PUT    /v1/objects/{key}                    create/replace an object's beliefs
//	GET    /v1/objects/{key}                    an object's stored beliefs
//	DELETE /v1/objects/{key}                    remove an object
//	PUT    /v1/objects/{key}/beliefs/{user}     {"value": "..."}
//	DELETE /v1/objects/{key}/beliefs/{user}     revoke one per-object belief
//	GET    /v1/objects/{key}/resolution?users=a&users=b  resolve a stored object
//
// Every response carries the serving epoch; a mutate's response epoch is
// a lower bound for every later read, so read-your-writes is checkable
// client-side.
//
// Production resilience (see internal/httpd): -read-limit/-mutate-limit
// arm per-class admission control (bounded concurrency + a bounded FIFO
// wait queue; overload sheds 429 with a computed Retry-After before any
// work is done), and -default-timeout gives every request a context
// deadline that rides through the store — clients can override it per
// request via the X-Trustd-Timeout-Ms header, capped by -max-timeout. A
// request whose deadline expires answers 503 without Retry-After,
// distinctly from the shed 429 and the recovering-store 503. All
// admission and deadline rejections are counted in /v1/stats.
//
// Replication: -replica-of <primary-url> (requires -data-dir,
// incompatible with -f/-demo) makes this process a read replica. It
// bootstraps from the primary's latest snapshot if its directory is
// behind, tails the primary's WAL stream into its own durable log, and
// serves every read with its staleness in the X-Trustd-Staleness header
// and in /healthz and /v1/stats; mutations answer 421 naming the
// primary. POST /v1/admin/promote turns the replica into a primary in
// place — see the replication runbook in the README.
//
// Sharding: -cluster N (N >= 2; incompatible with -demo and -replica-of)
// runs N in-process store shards behind a router (internal/shard) for
// horizontal write scale-out. Objects partition across shards by
// consistent hashing of their keys (wire.ShardOwner); trust-network
// mutations broadcast to every shard; /v1/objects listings,
// /v1/bulk-resolve, and /v1/stats scatter-gather across shards into one
// deterministic key-ordered response, with per-shard epochs/LSNs and
// conserved op counters in the stats cluster section. /healthz
// advertises the shard count, which the client package uses for
// shard-aware batching. With -data-dir each shard keeps its own WAL and
// snapshots under <dir>/shard-<i>, and <dir>/cluster.json pins the
// topology — reopening with a different -cluster N fails rather than
// silently rehashing ownership (there is no resharding). The
// single-store replication endpoints (/v1/wal, /v1/snapshot) answer 400
// on a cluster: per-shard WALs have independent LSN spaces.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"trustmap"
	"trustmap/internal/admission"
	"trustmap/internal/httpd"
	"trustmap/internal/replica"
	"trustmap/internal/shard"
	"trustmap/wire"
)

func main() {
	addr := flag.String("addr", ":7171", "listen address")
	file := flag.String("f", "", "network JSON file (trustctl format, optional objects section)")
	demo := flag.Int("demo", 0, "serve a generated scale-free demo network with this many users instead of -f")
	seed := flag.Int64("seed", 42, "demo network seed")
	workers := flag.Int("workers", 0, "resolve worker-pool size (0 = GOMAXPROCS)")
	extraRoots := flag.String("extra-roots", "", "comma-separated users whose beliefs vary per object without a network default")
	maxBatch := flag.Int("max-batch", 0, "max ops per mutate / objects per bulk-resolve (0 = default)")
	dataDir := flag.String("data-dir", "", "durable store directory (WAL + snapshots); empty = in-memory")
	durability := flag.String("durability", "batch", "WAL fsync discipline with -data-dir: batch, off, or always")
	defaultTimeout := flag.Duration("default-timeout", 0, "per-request deadline when the client sends no X-Trustd-Timeout-Ms header (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on any per-request deadline, including client overrides (0 = uncapped)")
	readLimit := flag.Int("read-limit", 0, "max concurrent read requests before queueing (0 = unlimited)")
	readQueue := flag.Int("read-queue", 0, "read requests allowed to wait for a slot before shedding 429")
	mutateLimit := flag.Int("mutate-limit", 0, "max concurrent mutate requests before queueing (0 = unlimited)")
	mutateQueue := flag.Int("mutate-queue", 0, "mutate requests allowed to wait for a slot before shedding 429")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "longest a queued request waits for a slot before shedding 429")
	replicaOf := flag.String("replica-of", "", "primary base URL to replicate from (requires -data-dir); serve reads, redirect mutations")
	cluster := flag.Int("cluster", 0, "run this many in-process store shards behind a router (>= 2); objects partition by key hash, trust mutations broadcast")
	flag.Parse()
	if *dataDir == "" && *replicaOf == "" && (*file == "") == (*demo == 0) {
		fmt.Fprintln(os.Stderr, "trustd: exactly one of -f and -demo is required (or -data-dir)")
		flag.Usage()
		os.Exit(2)
	}
	if *dataDir != "" && *demo != 0 {
		fmt.Fprintln(os.Stderr, "trustd: -demo is incompatible with -data-dir")
		os.Exit(2)
	}
	if *replicaOf != "" {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "trustd: -replica-of requires -data-dir (the replica keeps its own durable copy)")
			os.Exit(2)
		}
		if *file != "" || *demo != 0 {
			fmt.Fprintln(os.Stderr, "trustd: -replica-of is incompatible with -f and -demo (the primary's history is the only seed)")
			os.Exit(2)
		}
		*replicaOf = strings.TrimRight(*replicaOf, "/")
	}
	if *cluster != 0 {
		if *cluster < 2 {
			fmt.Fprintln(os.Stderr, "trustd: -cluster needs at least 2 shards (omit it for a single store)")
			os.Exit(2)
		}
		if *demo != 0 {
			fmt.Fprintln(os.Stderr, "trustd: -cluster is incompatible with -demo (seed a cluster from -f)")
			os.Exit(2)
		}
		if *replicaOf != "" {
			fmt.Fprintln(os.Stderr, "trustd: -cluster is incompatible with -replica-of (a cluster is always a primary)")
			os.Exit(2)
		}
	}
	mode, err := parseDurability(*durability)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trustd:", err)
		os.Exit(2)
	}
	var extras []string
	if *extraRoots != "" {
		extras = strings.Split(*extraRoots, ",")
	}
	opts := []trustmap.StoreOption{
		trustmap.WithWorkers(*workers),
		trustmap.WithExtraRoots(extras...),
		trustmap.WithDurability(mode),
	}

	// The listener comes up before recovery finishes: the handler answers
	// 503 (with Retry-After) until the store is installed, so restarts
	// behind a load balancer drain into retries instead of refusals.
	handler := httpd.New(nil, httpd.Config{
		MaxBatch:       *maxBatch,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		Reads: admission.Config{
			MaxConcurrent: *readLimit, MaxQueue: *readQueue, QueueTimeout: *queueTimeout,
		},
		Mutations: admission.Config{
			MaxConcurrent: *mutateLimit, MaxQueue: *mutateQueue, QueueTimeout: *queueTimeout,
		},
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		// Slowloris and stuck-peer protection: bound how long one
		// connection may take to deliver a body or drain a response, and
		// reap idle keep-alives. Generously above any sane request budget
		// (-default-timeout governs handler work; these govern the socket).
		ReadTimeout:  2 * time.Minute,
		WriteTimeout: 2 * time.Minute,
		IdleTimeout:  5 * time.Minute,
	}
	type serving struct {
		st   interface{ Close() error } // the store, or the cluster router
		tail *replica.Tailer            // nil on a primary
	}
	recovered := make(chan serving, 1)
	go func() {
		if *cluster > 1 {
			rt, err := openCluster(*cluster, *dataDir, *file, opts)
			if err != nil {
				log.Fatalf("trustd: %v", err)
			}
			handler.InstallBackend(rt)
			s := rt.Stats()
			log.Printf("trustd: serving %d users, %d mappings, %d roots, %d objects on %s across %d shards (min epoch %d, min lsn %d)",
				s.Engine.Users, s.Engine.Mappings, s.Engine.Roots, s.Store.Objects, *addr, rt.Shards(), s.Epoch, s.LSN)
			recovered <- serving{st: rt}
			return
		}
		if *replicaOf != "" {
			// Snapshot bootstrap before the store opens: a fresh or pruned-
			// behind replica seeds from the primary's latest checkpoint, then
			// the WAL tail covers the suffix.
			if installed, lsn, err := replica.Bootstrap(context.Background(), *dataDir, *replicaOf, nil); err != nil {
				log.Fatalf("trustd: bootstrapping from %s: %v", *replicaOf, err)
			} else if installed {
				log.Printf("trustd: installed snapshot at lsn %d from %s", lsn, *replicaOf)
			}
		}
		st, err := openStore(*dataDir, *file, *demo, *seed, opts)
		if err != nil {
			log.Fatalf("trustd: %v", err)
		}
		var tail *replica.Tailer
		role := "primary"
		if *replicaOf != "" {
			tail = replica.Start(st, *replicaOf, replica.WithLogf(log.Printf))
			handler.SetReplication(tail)
			role = "replica of " + *replicaOf
		}
		handler.Install(st)
		sst, eng := st.EpochStats()
		log.Printf("trustd: serving %d users, %d mappings, %d roots, %d objects on %s (epoch %d, lsn %d, durability %s, %s)",
			eng.Users, eng.Mappings, eng.Roots, sst.Objects, *addr, sst.Epoch, st.LSN(), st.Durability().Mode, role)
		recovered <- serving{st: st, tail: tail}
	}()

	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// flush and close the WAL so the next start replays nothing torn.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		log.Printf("trustd: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(shCtx)
		select {
		case sv := <-recovered:
			if sv.tail != nil {
				sv.tail.Stop() // no replicated apply may land after this
			}
			if err := sv.st.Close(); err != nil {
				log.Printf("trustd: closing store: %v", err)
			}
		default: // recovery never finished; nothing to flush
		}
	}
}

// parseDurability maps the -durability flag onto a store mode.
func parseDurability(s string) (trustmap.DurabilityMode, error) {
	switch s {
	case "batch", "":
		return trustmap.DurabilityBatch, nil
	case "off":
		return trustmap.DurabilityOff, nil
	case "always":
		return trustmap.DurabilityAlways, nil
	default:
		return 0, fmt.Errorf("unknown -durability %q (want batch, off, or always)", s)
	}
}

// openStore builds the serving store: durable (recovering from dataDir,
// optionally seeded from file on first boot) or in-memory from the file
// or demo network.
func openStore(dataDir, file string, demo int, seed int64, opts []trustmap.StoreOption) (*trustmap.Store, error) {
	if dataDir == "" {
		n, objects, err := buildNetwork(file, demo, seed)
		if err != nil {
			return nil, err
		}
		st, err := n.NewStore(opts...)
		if err != nil {
			return nil, fmt.Errorf("compiling store: %w", err)
		}
		if err := seedBackend(shard.NewSingleStore(st), &networkFile{Objects: objects}); err != nil {
			return nil, err
		}
		return st, nil
	}
	st, err := trustmap.OpenStore(dataDir, opts...)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", dataDir, err)
	}
	// -f seeds exactly once: a recovered store (any logged history or
	// snapshot state) keeps its own truth and the file is ignored.
	if file != "" && st.LSN() == 0 && len(st.Users()) == 0 && st.NumObjects() == 0 {
		nf, err := loadNetworkFile(file)
		if err == nil {
			err = seedBackend(shard.NewSingleStore(st), nf)
		}
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("seeding from %s: %w", file, err)
		}
	}
	return st, nil
}

// clusterMarker is <data-dir>/cluster.json: the persisted topology of a
// durable cluster. Object ownership is a pure function of (key, shard
// count), so reopening the same directories with a different -cluster N
// would silently re-home every key — the marker turns that into a hard
// error instead. There is no resharding.
type clusterMarker struct {
	Shards int    `json:"shards"`
	Hash   string `json:"hash"`
}

// checkTopology validates (writing on first boot) the cluster marker.
func checkTopology(dataDir string, shards int) error {
	path := filepath.Join(dataDir, "cluster.json")
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return err
		}
		raw, err := json.Marshal(clusterMarker{Shards: shards, Hash: wire.ShardHash})
		if err != nil {
			return err
		}
		return os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		return err
	}
	var m clusterMarker
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if m.Shards != shards {
		return fmt.Errorf("%s pins %d shards but -cluster is %d: object ownership is hash-of-key modulo topology, so changing the shard count would re-home keys (no resharding; reopen with -cluster %d)",
			path, m.Shards, shards, m.Shards)
	}
	if m.Hash != wire.ShardHash {
		return fmt.Errorf("%s pins routing scheme %q but this build speaks %q", path, m.Hash, wire.ShardHash)
	}
	return nil
}

// openCluster builds the sharded serving backend: n stores — durable
// under <dataDir>/shard-<i>, or in-memory — behind a shard.Router. A
// -f file seeds exactly once, when every shard is empty, through the
// router's own logged spine/object paths so the seed is replayable
// per-shard history.
func openCluster(n int, dataDir, file string, opts []trustmap.StoreOption) (*shard.Router, error) {
	shards := make([]*trustmap.Store, n)
	closeAll := func() {
		for _, st := range shards {
			if st != nil {
				st.Close()
			}
		}
	}
	if dataDir != "" {
		if err := checkTopology(dataDir, n); err != nil {
			return nil, err
		}
	}
	for i := range shards {
		var (
			st  *trustmap.Store
			err error
		)
		if dataDir == "" {
			st, err = trustmap.NewStore(opts...)
		} else {
			st, err = trustmap.OpenStore(filepath.Join(dataDir, fmt.Sprintf("shard-%d", i)), opts...)
		}
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("opening shard %d: %w", i, err)
		}
		shards[i] = st
	}
	rt, err := shard.NewRouter(shards)
	if err != nil {
		closeAll()
		return nil, err
	}
	// Seed exactly once: only when every shard is empty (any recovered
	// history keeps its own truth and the file is ignored, as with -f on
	// a single durable store).
	if file != "" {
		empty := true
		for _, st := range shards {
			if st.LSN() != 0 || len(st.Users()) != 0 || st.NumObjects() != 0 {
				empty = false
				break
			}
		}
		if empty {
			nf, err := loadNetworkFile(file)
			if err == nil {
				err = seedBackend(rt, nf)
			}
			if err != nil {
				rt.Close()
				return nil, fmt.Errorf("seeding from %s: %w", file, err)
			}
		}
	}
	return rt, nil
}

// seedBackend writes a network file's content into an empty backend
// through its logged paths, so the seed itself is replayable history:
// the spine (trust edges in file order, then default beliefs in name
// order, so user IDs are deterministic given the file) as one Mutate
// batch, then each object in key order. The durable store and the
// cluster seed from the whole file; the in-memory store compiles the
// spine itself and seeds only the objects.
func seedBackend(b shard.Backend, nf *networkFile) error {
	var ops []wire.Op
	for _, m := range nf.Trust {
		ops = append(ops, wire.Op{Op: wire.OpSetTrust, Truster: m.Truster, Trusted: m.Trusted, Priority: m.Priority})
	}
	users := make([]string, 0, len(nf.Beliefs))
	for user := range nf.Beliefs {
		users = append(users, user)
	}
	sort.Strings(users)
	for _, user := range users {
		ops = append(ops, wire.Op{Op: wire.OpSetBelief, User: user, Value: nf.Beliefs[user]})
	}
	if len(ops) > 0 {
		if _, err := b.Mutate(ops); err != nil {
			return err
		}
	}
	keys := make([]string, 0, len(nf.Objects))
	for k := range nf.Objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := b.PutObject(context.Background(), k, nf.Objects[k]); err != nil {
			return fmt.Errorf("seeding object %q: %w", k, err)
		}
	}
	return nil
}

// networkFile is the trustctl-format network file: trust edges, default
// beliefs, and optionally stored objects.
type networkFile struct {
	Trust []struct {
		Truster  string `json:"truster"`
		Trusted  string `json:"trusted"`
		Priority int    `json:"priority"`
	} `json:"trust"`
	Beliefs map[string]string            `json:"beliefs"`
	Objects map[string]map[string]string `json:"objects"`
}

// loadNetworkFile parses a network file.
func loadNetworkFile(file string) (*networkFile, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var nf networkFile
	if err := json.Unmarshal(raw, &nf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", file, err)
	}
	return &nf, nil
}

// buildNetwork loads the network file (returning its stored objects, if
// any), or generates the demo network.
func buildNetwork(file string, demo int, seed int64) (*trustmap.Network, map[string]map[string]string, error) {
	if demo > 0 {
		return demoNetwork(demo, seed), nil, nil
	}
	nf, err := loadNetworkFile(file)
	if err != nil {
		return nil, nil, err
	}
	n := trustmap.New()
	for _, tm := range nf.Trust {
		n.AddTrust(tm.Truster, tm.Trusted, tm.Priority)
	}
	// Beliefs in name order, so user IDs are deterministic given the file.
	users := make([]string, 0, len(nf.Beliefs))
	for user := range nf.Beliefs {
		users = append(users, user)
	}
	sort.Strings(users)
	for _, user := range users {
		n.SetBelief(user, nf.Beliefs[user])
	}
	return n, nf.Objects, nil
}

// demoNetwork grows a deterministic scale-free community: each user
// trusts up to two earlier users with coarse-tiered priorities, and one
// in ten states an explicit belief.
func demoNetwork(users int, seed int64) *trustmap.Network {
	rng := rand.New(rand.NewSource(seed))
	n := trustmap.New()
	name := func(i int) string { return fmt.Sprintf("site%d", i) }
	domain := []string{"fish", "knot", "cow"}
	n.SetBelief(name(0), domain[0])
	for i := 1; i < users; i++ {
		chosen := map[int]bool{}
		for e, k := 0, 1+rng.Intn(2); e < k && e < i; e++ {
			z := rng.Intn(i)
			if chosen[z] {
				continue // no duplicate mappings per truster
			}
			chosen[z] = true
			n.AddTrust(name(i), name(z), 1+rng.Intn(3))
		}
		if rng.Float64() < 0.1 {
			n.SetBelief(name(i), domain[rng.Intn(len(domain))])
		}
	}
	return n
}
