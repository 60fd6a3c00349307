// Command clusterharness is the sharded router's acceptance rig: a
// seeded concurrent storm over an N-shard internal/shard.Router whose
// final resolved state must match a single-store oracle row for row.
//
// The storm is deterministic by construction, not by serialization:
// each worker owns a disjoint key space (object ops on different keys
// commute) and a disjoint truster set (spine upserts from different
// workers commute), so any interleaving the scheduler picks converges
// to the same final state — which is exactly what replaying every
// worker's op list serially into one in-memory oracle produces. The
// storm also interleaves scatter-gather reads (ResolveAll, Resolved,
// Objects, BulkResolve) whose merge invariants are checked in flight,
// so running the harness binary under -race doubles as the router's
// concurrency test.
//
// After the storm the harness checks three things: oracle parity (every
// object, every user, possible set + certain value + error identity),
// placement (every key stored on the shard wire.ShardOwner names), and
// conservation (ClusterStats.RoutedOps equals both the op count the
// harness issued and the sum of per-shard ObjectOps counters).
//
// Output protocol (one line each, in order):
//
//	shards <n>
//	spine ok
//	storm ok <routed> <spine>
//	parity ok <objects>
//	conserved <routed>
//	done
//
// With -dir the shards are durable (<dir>/shard-<i>); a later run with
// -verify-only skips the storm and checks the recovered cluster against
// the oracle instead — the preamble is then just "shards", "parity ok",
// "conserved 0", "done" — proving per-shard recovery (including the
// replayed register-roots broadcasts) reconstructs cluster-wide parity.
//
// Any violation exits non-zero with a message on stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"trustmap"
	"trustmap/internal/shard"
	"trustmap/wire"
)

// seedUsers are the always-present roots: every object belief comes from
// one of these or a worker's own root, and all of them carry network
// defaults from the prologue, so resolution never trips assumption (ii).
var seedUsers = [...]string{"seed0", "seed1", "seed2"}

var values = [...]string{"fish", "cow", "jar", "arrow", "knot"}

// Op kinds in a worker's plan. Object ops stay inside the worker's own
// key space and spine ops inside its own truster set, so plans commute
// across workers and the oracle can replay them serially in any order.
const (
	kSpine = iota // rt.Mutate: one set-trust upsert (write-lock path)
	kPutObject
	kPutBelief
	kDelBelief
	kDelObject
	kRead // one scatter or routed read; never replayed into the oracle
)

// planOp is one pre-generated storm step: a pure function of the seed,
// so the oracle replays the identical sequence without rng alignment.
type planOp struct {
	kind    int
	read    int // kRead sub-kind: 0..4
	key     string
	user    string
	value   string
	truster string
	prio    int
	beliefs map[string]string
}

// workerRoot names worker w's private extra root (defaulted in the
// prologue, registered cluster-wide by the router's root broadcast).
func workerRoot(w int) string { return fmt.Sprintf("w%d-root", w) }

// prologue is the fixed spine every run starts from: a network default
// for each seed user and each worker root, applied as one broadcast
// batch so every belief writer below is coverage-safe.
func prologue(workers int) []wire.Op {
	var ops []wire.Op
	for _, u := range seedUsers {
		ops = append(ops, wire.Op{Op: wire.OpSetBelief, User: u, Value: values[0]})
	}
	for w := 0; w < workers; w++ {
		ops = append(ops, wire.Op{Op: wire.OpSetBelief, User: workerRoot(w), Value: values[1]})
	}
	return ops
}

// genPlan draws worker w's op list. Keys are "w<w>-obj<k>" and trusters
// "w<w>-u<t>": disjoint per worker by construction.
func genPlan(seed int64, w, n int) []planOp {
	rng := rand.New(rand.NewSource(seed + int64(w)*1_000_003))
	root := workerRoot(w)
	writers := append(append([]string(nil), seedUsers[:]...), root)
	key := func() string { return fmt.Sprintf("w%d-obj%03d", w, rng.Intn(120)) }
	val := func() string { return values[rng.Intn(len(values))] }
	ops := make([]planOp, 0, n)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 1:
			ops = append(ops, planOp{
				kind:    kSpine,
				truster: fmt.Sprintf("w%d-u%d", w, rng.Intn(6)),
				user:    seedUsers[rng.Intn(len(seedUsers))],
				prio:    1 + rng.Intn(5),
			})
		case k < 5:
			bs := make(map[string]string, len(writers))
			for _, u := range writers {
				if rng.Intn(2) == 0 {
					bs[u] = val()
				}
			}
			ops = append(ops, planOp{kind: kPutObject, key: key(), beliefs: bs})
		case k < 7:
			ops = append(ops, planOp{kind: kPutBelief, key: key(), user: writers[rng.Intn(len(writers))], value: val()})
		case k < 8:
			ops = append(ops, planOp{kind: kDelBelief, key: key(), user: writers[rng.Intn(len(writers))]})
		case k < 9:
			ops = append(ops, planOp{kind: kDelObject, key: key()})
		default:
			ops = append(ops, planOp{kind: kRead, read: rng.Intn(5), key: key(), user: root, value: val()})
		}
	}
	return ops
}

// countOps reports how many routed object ops and spine broadcasts the
// plans will issue — the expected ClusterStats counter values.
func countOps(plans [][]planOp) (routed, spine uint64) {
	for _, plan := range plans {
		for _, op := range plan {
			switch op.kind {
			case kSpine:
				spine++
			case kPutObject, kPutBelief, kDelBelief, kDelObject:
				routed++
			}
		}
	}
	return routed, spine
}

// runWorker executes one plan against the router, checking read
// invariants in flight. Mutation errors are fatal: every generated
// object op is valid, so the router must accept it.
func runWorker(ctx context.Context, rt *shard.Router, plan []planOp) error {
	for i, op := range plan {
		var err error
		switch op.kind {
		case kSpine:
			_, err = rt.Mutate([]wire.Op{{Op: wire.OpSetTrust, Truster: op.truster, Trusted: op.user, Priority: op.prio}})
		case kPutObject:
			err = rt.PutObject(ctx, op.key, op.beliefs)
		case kPutBelief:
			err = rt.PutBelief(ctx, op.user, op.key, op.value)
		case kDelBelief:
			_, err = rt.DeleteBelief(ctx, op.user, op.key)
		case kDelObject:
			_, err = rt.DeleteObject(ctx, op.key)
		case kRead:
			err = runRead(ctx, rt, op)
		}
		if err != nil {
			return fmt.Errorf("op %d (kind %d): %w", i, op.kind, err)
		}
	}
	return nil
}

// runRead exercises one scatter or routed read mid-storm. Contents are
// in flux, so only structural invariants are checked: merged key order,
// one pinned epoch per shard, and error identity for absent keys.
func runRead(ctx context.Context, rt *shard.Router, op planOp) error {
	switch op.read {
	case 0:
		rows, err := rt.ResolveAll(ctx)
		if err != nil {
			return fmt.Errorf("ResolveAll: %w", err)
		}
		if keys := rowKeys(rows); !sort.StringsAreSorted(keys) {
			return fmt.Errorf("ResolveAll keys not sorted: %q", keys)
		}
		// Each shard's rows come from one pinned epoch of that shard.
		epochs := make(map[int]uint64, rt.Shards())
		for _, row := range rows {
			o := rt.Owner(row.Object)
			if e, ok := epochs[o]; ok && e != row.Epoch() {
				return fmt.Errorf("ResolveAll rows of shard %d span epochs %d and %d", o, e, row.Epoch())
			}
			epochs[o] = row.Epoch()
		}
	case 1:
		if keys := rt.Objects(); !sort.StringsAreSorted(keys) {
			return fmt.Errorf("Objects not sorted: %q", keys)
		}
	case 2:
		batch := map[string]map[string]string{
			op.key + "-adhocA": {seedUsers[0]: op.value},
			op.key + "-adhocB": {op.user: op.value},
		}
		rows, err := rt.BulkResolve(ctx, batch)
		if err != nil {
			return fmt.Errorf("BulkResolve: %w", err)
		}
		if got := rowKeys(rows); len(got) != len(batch) || got[0] != op.key+"-adhocA" || !sort.StringsAreSorted(got) {
			return fmt.Errorf("BulkResolve keys = %q, want the %d ad-hoc keys sorted", got, len(batch))
		}
		if _, _, err := rows[0].Lookup(seedUsers[0]); err != nil {
			return fmt.Errorf("BulkResolve lookup: %w", err)
		}
	case 3:
		if _, err := rt.ResolveObject(ctx, op.key); err != nil && !errors.Is(err, trustmap.ErrUnknownObject) {
			return fmt.Errorf("ResolveObject(%q): %w", op.key, err)
		}
	default:
		prev := ""
		for row, err := range rt.Resolved(ctx) {
			if err != nil {
				return fmt.Errorf("Resolved: %w", err)
			}
			if row.Object <= prev {
				return fmt.Errorf("Resolved out of order: %q after %q", row.Object, prev)
			}
			prev = row.Object
		}
	}
	return nil
}

// buildOracle replays the prologue and every worker's plan serially
// into one in-memory store. Worker order is irrelevant: plans commute.
func buildOracle(ctx context.Context, pro []wire.Op, plans [][]planOp) (*trustmap.Store, error) {
	oracle, err := trustmap.NewStore()
	if err != nil {
		return nil, err
	}
	if err := oracle.Update(func(tx *trustmap.StoreTx) error {
		for i, op := range pro {
			if err := op.Apply(tx); err != nil {
				return fmt.Errorf("prologue op %d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for w, plan := range plans {
		for i, op := range plan {
			var err error
			switch op.kind {
			case kSpine:
				err = oracle.SetTrust(ctx, op.truster, op.user, op.prio)
			case kPutObject:
				err = oracle.PutObject(ctx, op.key, op.beliefs)
			case kPutBelief:
				err = oracle.PutBelief(ctx, op.user, op.key, op.value)
			case kDelBelief:
				_, err = oracle.DeleteBelief(ctx, op.user, op.key)
			case kDelObject:
				_, err = oracle.DeleteObject(ctx, op.key)
			}
			if err != nil {
				return nil, fmt.Errorf("oracle worker %d op %d: %w", w, i, err)
			}
		}
	}
	return oracle, nil
}

// rowKeys lists the rows' object keys in row order.
func rowKeys(rows []trustmap.ObjectRow) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = row.Object
	}
	return keys
}

// lookupsAgree compares one (user, object) cell across the cluster and
// the oracle: possible set, certain value, and error identity.
func lookupsAgree(gp, wp []string, gc, wc string, gerr, werr error) bool {
	if (gerr == nil) != (werr == nil) {
		return false
	}
	if gerr != nil {
		return gerr.Error() == werr.Error()
	}
	return slices.Equal(gp, wp) && gc == wc
}

// checkParity requires the cluster's resolved state to equal the
// oracle's cell for cell, the streamed merge to agree with the batch
// one, and every stored key to live on its wire.ShardOwner shard.
func checkParity(ctx context.Context, rt *shard.Router, oracle *trustmap.Store) (objects int, err error) {
	want, err := oracle.ResolveAll(ctx)
	if err != nil {
		return 0, fmt.Errorf("oracle resolve: %w", err)
	}
	got, err := rt.ResolveAll(ctx)
	if err != nil {
		return 0, fmt.Errorf("cluster resolve: %w", err)
	}
	wantKeys, gotKeys := rowKeys(want), rowKeys(got)
	if !slices.Equal(gotKeys, wantKeys) {
		return 0, fmt.Errorf("key sets diverge: cluster has %d keys, oracle %d", len(gotKeys), len(wantKeys))
	}
	users := oracle.Users()
	sort.Strings(users)
	for i, key := range wantKeys {
		for _, u := range users {
			wp, wc, werr := want[i].Lookup(u)
			gp, gc, gerr := got[i].Lookup(u)
			if !lookupsAgree(gp, wp, gc, wc, gerr, werr) {
				return 0, fmt.Errorf("parity violation at (%s, %s): cluster (%v, %q, %v) vs oracle (%v, %q, %v)",
					u, key, gp, gc, gerr, wp, wc, werr)
			}
		}
	}
	// The streamed merge must visit the same keys in the same order.
	var streamed []string
	for row, rerr := range rt.Resolved(ctx) {
		if rerr != nil {
			return 0, fmt.Errorf("Resolved stream: %w", rerr)
		}
		streamed = append(streamed, row.Object)
	}
	if !slices.Equal(streamed, wantKeys) {
		return 0, fmt.Errorf("Resolved stream visited %d keys, ResolveAll %d", len(streamed), len(wantKeys))
	}
	// Placement: each shard holds exactly the keys it owns.
	for i := 0; i < rt.Shards(); i++ {
		for _, key := range rt.Shard(i).Objects() {
			if o := rt.Owner(key); o != i {
				return 0, fmt.Errorf("placement violation: %q stored on shard %d, owned by %d", key, i, o)
			}
		}
	}
	return len(wantKeys), nil
}

// checkStats enforces the conservation invariant and, after a storm,
// that the counters equal exactly what the harness issued.
func checkStats(rt *shard.Router, objects int, stormed bool, wantRouted, wantSpine uint64) (uint64, error) {
	cs := rt.ClusterStats()
	if cs == nil || cs.Shards != rt.Shards() || cs.Hash != wire.ShardHash {
		return 0, fmt.Errorf("ClusterStats topology = %+v, want %d shards hashed by %s", cs, rt.Shards(), wire.ShardHash)
	}
	var sumOps uint64
	sumObjects := 0
	for _, ss := range cs.PerShard {
		sumOps += ss.ObjectOps
		sumObjects += ss.Objects
	}
	if cs.RoutedOps != sumOps {
		return 0, fmt.Errorf("conservation violation: RoutedOps %d != sum of per-shard ObjectOps %d", cs.RoutedOps, sumOps)
	}
	if sumObjects != objects {
		return 0, fmt.Errorf("per-shard Objects sum to %d, resolved key set has %d", sumObjects, objects)
	}
	if stormed && (cs.RoutedOps != wantRouted || cs.SpineOps != wantSpine) {
		return 0, fmt.Errorf("counters (routed %d, spine %d) != issued (routed %d, spine %d)",
			cs.RoutedOps, cs.SpineOps, wantRouted, wantSpine)
	}
	return cs.RoutedOps, nil
}

func run() error {
	shards := flag.Int("shards", 4, "shard count for the router")
	workers := flag.Int("workers", 4, "concurrent storm workers (disjoint key spaces)")
	opsPer := flag.Int("ops", 300, "ops per worker")
	seed := flag.Int64("seed", 42, "plan generator seed; fixed across runs of one storm")
	dir := flag.String("dir", "", "durable shard directory (<dir>/shard-<i>); empty = in-memory")
	verifyOnly := flag.Bool("verify-only", false, "skip the storm: check the recovered durable cluster against the oracle")
	flag.Parse()
	if *shards < 2 {
		return fmt.Errorf("-shards must be at least 2 (got %d)", *shards)
	}
	if *verifyOnly && *dir == "" {
		return fmt.Errorf("-verify-only needs -dir: an in-memory cluster has nothing recovered to verify")
	}
	ctx := context.Background()

	stores := make([]*trustmap.Store, *shards)
	for i := range stores {
		var err error
		if *dir == "" {
			stores[i], err = trustmap.NewStore()
		} else {
			stores[i], err = trustmap.OpenStore(filepath.Join(*dir, fmt.Sprintf("shard-%d", i)))
		}
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	rt, err := shard.NewRouter(stores)
	if err != nil {
		return err
	}
	defer rt.Close()
	fmt.Printf("shards %d\n", rt.Shards())

	pro := prologue(*workers)
	plans := make([][]planOp, *workers)
	for w := range plans {
		plans[w] = genPlan(*seed, w, *opsPer)
	}
	wantRouted, wantSpine := countOps(plans)
	wantSpine++ // the prologue broadcast

	if !*verifyOnly {
		if _, err := rt.Mutate(pro); err != nil {
			return fmt.Errorf("prologue: %w", err)
		}
		fmt.Println("spine ok")
		errs := make([]error, *workers)
		var wg sync.WaitGroup
		for w := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[w] = runWorker(ctx, rt, plans[w])
			}()
		}
		wg.Wait()
		for w, werr := range errs {
			if werr != nil {
				return fmt.Errorf("worker %d: %w", w, werr)
			}
		}
		fmt.Printf("storm ok %d %d\n", wantRouted, wantSpine)
	}

	oracle, err := buildOracle(ctx, pro, plans)
	if err != nil {
		return err
	}
	objects, err := checkParity(ctx, rt, oracle)
	if err != nil {
		return err
	}
	fmt.Printf("parity ok %d\n", objects)

	routed, err := checkStats(rt, objects, !*verifyOnly, wantRouted, wantSpine)
	if err != nil {
		return err
	}
	fmt.Printf("conserved %d\n", routed)

	if err := rt.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	fmt.Println("done")
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clusterharness:", err)
		os.Exit(1)
	}
}
