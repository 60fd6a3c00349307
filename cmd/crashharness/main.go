// Command crashharness is the durable store's kill -9 acceptance rig:
// a deterministic write storm whose acknowledged writes must all survive
// an abrupt process death.
//
// The harness opens a durable store in -dir with DurabilityAlways (every
// acked mutation is fsynced before the ack), first CHECKS the recovered
// state against an in-memory oracle, then storms: it draws mutations from
// a seeded deterministic generator — op i is a pure function of (seed, i)
// — fast-forwarded to the recovered LSN, applies each, and prints
// "acked <lsn>" after the mutator returns. The driving test SIGKILLs it
// mid-storm and restarts it: on restart the recovered LSN must cover
// every previously acked write, and the oracle (the same generator
// replayed 1..LSN into an in-memory store) must resolve identically.
//
// Output protocol (one line each, in order):
//
//	recovered <lsn>
//	parity ok <lsn>
//	acked <lsn>        (repeated)
//	done
//
// With -fail-fsync-at N the harness proves the poison path instead of the
// SIGKILL path: at op N it injects one WAL fsync failure (see
// internal/faultinject), requires the store to refuse that op and every
// later mutation with trustmap.ErrPoisoned while reads keep serving,
// prints "poisoned N", and exits cleanly. The next run (without the flag)
// must recover through the ordinary preamble: the failed fsync's record
// reached the file, so recovery lands at N with full oracle parity.
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
	"reflect"

	"trustmap"
	"trustmap/internal/faultinject"
)

// gen deterministically produces the storm's mutation sequence: op i is
// the i-th draw of a seeded PRNG stream, so any prefix can be replayed
// into an oracle. Every generated op is effective (upserts only — no
// deletes of possibly-absent state), so op i always lands at LSN i.
type gen struct {
	rng *rand.Rand
}

// seedUsers are the per-object roots: every generated object carries a
// belief for each, and each also holds a network default (the first
// genenerated ops), so resolution never trips assumption (ii).
var seedUsers = [...]string{"seed0", "seed1", "seed2"}

// universe are the trust-network users the storm wires together.
var universe = [...]string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7"}

var values = [...]string{"fish", "cow", "jar", "arrow", "knot"}

func newGen(seed int64) *gen { return &gen{rng: rand.New(rand.NewSource(seed))} }

// apply draws the i-th op (1-based, caller iterates contiguously) and
// applies it through an applier. The first len(seedUsers) ops are the
// fixed defaults that make everything afterwards resolvable.
func (g *gen) apply(ctx context.Context, i uint64, st *trustmap.Store) error {
	if i <= uint64(len(seedUsers)) {
		g.rng.Intn(2) // keep the stream aligned with the skip path
		return st.SetDefault(ctx, seedUsers[i-1], values[0])
	}
	switch k := g.rng.Intn(10); {
	case k < 4: // trust upsert
		a := universe[g.rng.Intn(len(universe))]
		b := seedUsers[g.rng.Intn(len(seedUsers))]
		return st.SetTrust(ctx, a, b, 1+g.rng.Intn(5))
	case k < 6: // network default
		u := universe[g.rng.Intn(len(universe))]
		return st.SetDefault(ctx, u, values[g.rng.Intn(len(values))])
	case k < 9: // wholesale object put, full seed-root coverage
		key := fmt.Sprintf("obj%03d", g.rng.Intn(200))
		bs := make(map[string]string, len(seedUsers))
		for _, u := range seedUsers {
			bs[u] = values[g.rng.Intn(len(values))]
		}
		return st.PutObject(ctx, key, bs)
	default: // single-belief put on a seed root (default-covered)
		key := fmt.Sprintf("obj%03d", g.rng.Intn(200))
		u := seedUsers[g.rng.Intn(len(seedUsers))]
		return st.PutBelief(ctx, u, key, values[g.rng.Intn(len(values))])
	}
}

// skip burns the PRNG draws of ops 1..n without touching a store, so the
// stream continues exactly where a previous process died.
func (g *gen) skip(n uint64) {
	for i := uint64(1); i <= n; i++ {
		if i <= uint64(len(seedUsers)) {
			g.rng.Intn(2)
			continue
		}
		switch k := g.rng.Intn(10); {
		case k < 4:
			g.rng.Intn(len(universe))
			g.rng.Intn(len(seedUsers))
			g.rng.Intn(5)
		case k < 6:
			g.rng.Intn(len(universe))
			g.rng.Intn(len(values))
		case k < 9:
			g.rng.Intn(200)
			for range seedUsers {
				g.rng.Intn(len(values))
			}
		default:
			g.rng.Intn(200)
			g.rng.Intn(len(seedUsers))
			g.rng.Intn(len(values))
		}
	}
}

// fingerprint flattens the store's full resolved state: every stored
// object's possible values for every user. Resolution is deterministic,
// so equal fingerprints mean equal durable state.
func fingerprint(st *trustmap.Store) (map[string][]string, error) {
	rows, err := st.ResolveAll(context.Background())
	if err != nil {
		return nil, err
	}
	out := make(map[string][]string)
	for _, row := range rows {
		for _, u := range st.Users() {
			out[u+"/"+row.Object] = row.Possible(u)
		}
	}
	return out, nil
}

func run() error {
	dir := flag.String("dir", "", "durable store directory (required)")
	seed := flag.Int64("seed", 42, "generator seed; must stay fixed across restarts of one storm")
	maxOps := flag.Uint64("max-ops", 5000, "stop after this many total ops (across restarts)")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "checkpoint every N ops (0 = never)")
	failFsyncAt := flag.Uint64("fail-fsync-at", 0, "inject one WAL fsync failure at this op: the store must poison and the harness exits cleanly (0 = off)")
	flag.Parse()
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	ctx := context.Background()

	st, err := trustmap.OpenStore(*dir, trustmap.WithDurability(trustmap.DurabilityAlways))
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer st.Close()
	lsn := st.LSN()
	fmt.Printf("recovered %d\n", lsn)

	// Oracle parity: the same generator prefix replayed into a fresh
	// in-memory store must resolve identically to the recovered state.
	oracle, err := trustmap.NewStore()
	if err != nil {
		return err
	}
	og := newGen(*seed)
	for i := uint64(1); i <= lsn; i++ {
		if err := og.apply(ctx, i, oracle); err != nil {
			return fmt.Errorf("oracle op %d: %w", i, err)
		}
	}
	want, err := fingerprint(oracle)
	if err != nil {
		return fmt.Errorf("oracle resolve: %w", err)
	}
	got, err := fingerprint(st)
	if err != nil {
		return fmt.Errorf("recovered resolve: %w", err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("parity violation at lsn %d: recovered state diverges from oracle", lsn)
	}
	fmt.Printf("parity ok %d\n", lsn)

	// Storm: continue the deterministic sequence where the last process
	// died. DurabilityAlways means each ack below is crash-safe.
	g := newGen(*seed)
	g.skip(lsn)
	for i := lsn + 1; i <= *maxOps; i++ {
		if *failFsyncAt > 0 && i == *failFsyncAt {
			return provePoison(ctx, g, i, st)
		}
		if err := g.apply(ctx, i, st); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if got := st.LSN(); got != i {
			return fmt.Errorf("op %d landed at lsn %d: generator produced a no-op", i, got)
		}
		fmt.Printf("acked %d\n", i)
		if *checkpointEvery > 0 && i%*checkpointEvery == 0 {
			if _, err := st.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint at %d: %w", i, err)
			}
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	fmt.Println("done")
	return nil
}

// provePoison runs op i against a one-shot WAL fsync failure and asserts
// the poison contract: the op and every later mutation fail with
// ErrPoisoned (sticky even after the injector is disarmed), reads keep
// serving the last published epoch, and the harness exits cleanly so the
// next run can prove recovery without any SIGKILL involved.
func provePoison(ctx context.Context, g *gen, i uint64, st *trustmap.Store) error {
	faultinject.Enable(faultinject.WALSync, faultinject.FailN(0, 1, nil))
	err := g.apply(ctx, i, st)
	faultinject.Reset()
	if !errors.Is(err, trustmap.ErrPoisoned) {
		return fmt.Errorf("op %d under fsync failure: err = %v, want ErrPoisoned", i, err)
	}
	// Sticky: the injector is gone, the refusal is not.
	if err := st.SetDefault(ctx, seedUsers[0], values[0]); !errors.Is(err, trustmap.ErrPoisoned) {
		return fmt.Errorf("mutation after poison: err = %v, want ErrPoisoned", err)
	}
	// Reads still serve: the published epoch is untouched by the failure.
	if _, err := fingerprint(st); err != nil {
		return fmt.Errorf("resolve after poison: %w", err)
	}
	fmt.Printf("poisoned %d\n", i)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crashharness:", err)
		os.Exit(1)
	}
}
