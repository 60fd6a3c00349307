// Command clusterharness is the sharded router's acceptance rig: a
// seeded concurrent storm over an N-shard internal/shard.Router whose
// final resolved state must match a single-store oracle row for row.
//
// The storm is deterministic by construction, not by serialization:
// worker w sends its own internal/storm stream, namespace "w<w>-", whose
// keys, trusters and private root no other worker touches, so any
// interleaving the scheduler picks converges to storm.Oracle's serial
// replay of every stream. Every stream's preamble runs first, serially
// ("spine ok"); the rest runs concurrently. What only this harness adds
// is the concurrency: workers interleave scatter-gather reads
// (ResolveAll, Resolved, Objects, BulkResolve, ResolveObject) whose merge
// invariants are checked in flight, so running the harness binary under
// -race doubles as the router's concurrency test.
//
// After the storm the harness checks oracle parity (storm.Diff: every
// object, every user, possible set + certain value + error text), that
// every shard's spine holds the oracle's user set, placement (every key
// stored on the shard wire.ShardOwner names), and conservation
// (ClusterStats.RoutedOps equals both the op count the harness issued
// and the sum of per-shard ObjectOps counters).
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
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"trustmap"
	"trustmap/internal/shard"
	"trustmap/internal/storm"
	"trustmap/wire"
)

// ns names worker w's namespace: its keys, trusters and private root.
func ns(w int) string { return fmt.Sprintf("w%d-", w) }

// readEvery is the in-flight read cadence: each worker runs one scatter
// or routed read after every readEvery-th op of its stream.
const readEvery = 8

// countOps reports how many routed object ops and spine broadcasts the
// streams issue — the expected ClusterStats counter values.
func countOps(streams [][]wire.Op) (routed, spine uint64) {
	for _, ops := range streams {
		for _, op := range ops {
			switch op.Op {
			case wire.OpPutObject, wire.OpPutBelief, wire.OpDeleteBelief, wire.OpDeleteObject:
				routed++
			default:
				spine++
			}
		}
	}
	return routed, spine
}

// runWorker applies one stream's post-preamble ops to the router,
// checking read invariants in flight. Mutation errors are fatal: every
// stream op is effective, so the router must accept it.
func runWorker(ctx context.Context, rt *shard.Router, prefix string, ops []wire.Op) error {
	for i := storm.Preamble; i < len(ops); i++ {
		if err := storm.Apply(ctx, rt, ops[i]); err != nil {
			return fmt.Errorf("op %d (%s): %w", i+1, ops[i].Op, err)
		}
		if i%readEvery == 0 {
			key := ops[i].Object
			if key == "" {
				key = prefix + "adhoc"
			}
			if err := runRead(ctx, rt, i/readEvery%5, key, prefix+"root"); err != nil {
				return fmt.Errorf("read after op %d: %w", i+1, err)
			}
		}
	}
	return nil
}

// runRead exercises one scatter or routed read mid-storm. Contents are
// in flux, so only structural invariants are checked: merged key order,
// one pinned epoch per shard, and error identity for absent keys.
func runRead(ctx context.Context, rt *shard.Router, kind int, key, root string) error {
	switch kind {
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
			key + "-adhocA": {root: "fish"},
			key + "-adhocB": {root: "cow"},
		}
		rows, err := rt.BulkResolve(ctx, batch)
		if err != nil {
			return fmt.Errorf("BulkResolve: %w", err)
		}
		if got := rowKeys(rows); len(got) != len(batch) || got[0] != key+"-adhocA" || !sort.StringsAreSorted(got) {
			return fmt.Errorf("BulkResolve keys = %q, want the %d ad-hoc keys sorted", got, len(batch))
		}
		if _, _, err := rows[0].Lookup(root); err != nil {
			return fmt.Errorf("BulkResolve lookup: %w", err)
		}
	case 3:
		if _, err := rt.ResolveObject(ctx, key); err != nil && !errors.Is(err, trustmap.ErrUnknownObject) {
			return fmt.Errorf("ResolveObject(%q): %w", key, err)
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

// rowKeys lists the rows' object keys in row order.
func rowKeys(rows []trustmap.ObjectRow) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = row.Object
	}
	return keys
}

// checkParity requires the cluster's resolved state to equal the
// oracle's cell for cell (storm.Diff), every shard's spine to hold the
// oracle's user set — Router.Users answers for shard 0 alone — the
// streamed merge to agree with the batch one, and every stored key to
// live on its wire.ShardOwner shard.
func checkParity(ctx context.Context, rt *shard.Router, oracle *trustmap.Store) (objects int, err error) {
	if err := storm.Diff(ctx, rt, oracle); err != nil {
		return 0, fmt.Errorf("parity violation: %w", err)
	}
	users := oracle.Users()
	for i := 0; i < rt.Shards(); i++ {
		if got := rt.Shard(i).Users(); !slices.Equal(got, users) {
			return 0, fmt.Errorf("spine violation: shard %d holds %d users, oracle %d", i, len(got), len(users))
		}
	}
	// The streamed merge must visit the same keys in the same order.
	keys := oracle.Objects()
	var streamed []string
	for row, rerr := range rt.Resolved(ctx) {
		if rerr != nil {
			return 0, fmt.Errorf("Resolved stream: %w", rerr)
		}
		streamed = append(streamed, row.Object)
	}
	if !slices.Equal(streamed, keys) {
		return 0, fmt.Errorf("Resolved stream visited %d keys, oracle stores %d", len(streamed), len(keys))
	}
	// Placement: each shard holds exactly the keys it owns.
	for i := 0; i < rt.Shards(); i++ {
		for _, key := range rt.Shard(i).Objects() {
			if o := rt.Owner(key); o != i {
				return 0, fmt.Errorf("placement violation: %q stored on shard %d, owned by %d", key, i, o)
			}
		}
	}
	return len(keys), nil
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
	switch {
	case *shards < 2:
		return fmt.Errorf("-shards must be at least 2 (got %d)", *shards)
	case *workers < 1:
		return fmt.Errorf("-workers must be at least 1 (got %d)", *workers)
	case *opsPer < storm.Preamble:
		return fmt.Errorf("-ops must be at least %d, the stream preamble (got %d)", storm.Preamble, *opsPer)
	case *verifyOnly && *dir == "":
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

	// Namespaced streams commute: any interleaving converges to their
	// serial replay.
	streams := make([][]wire.Op, *workers)
	for w := range streams {
		streams[w] = storm.Ops(*seed, ns(w), *opsPer)
	}
	wantRouted, wantSpine := countOps(streams)

	if !*verifyOnly {
		// Every stream's preamble first, serially: the fixed spine the
		// concurrent storm builds on.
		for _, ops := range streams {
			for _, op := range ops[:storm.Preamble] {
				if err := storm.Apply(ctx, rt, op); err != nil {
					return fmt.Errorf("preamble: %w", err)
				}
			}
		}
		fmt.Println("spine ok")
		errs := make([]error, *workers)
		var wg sync.WaitGroup
		for w := range streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[w] = runWorker(ctx, rt, ns(w), streams[w])
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

	oracle, err := storm.Oracle(ctx, streams...)
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
