// Command crashharness is the durable store's kill -9 acceptance rig:
// a deterministic write storm whose acknowledged writes must all survive
// an abrupt process death.
//
// The harness opens a durable store in -dir with DurabilityAlways (every
// acked mutation is fsynced before the ack), first CHECKS the recovered
// state against storm.Oracle (ops 1..LSN of the internal/storm stream,
// replayed in memory) with storm.Diff, then storms: it applies the same
// stream from the recovered LSN on — puts and deletes alike, op i landing
// at LSN i — and prints "acked <lsn>" after each op returns. The driving
// test SIGKILLs it mid-storm and restarts it: on restart the recovered
// LSN must cover every previously acked write, with oracle parity. What
// only this harness adds is the violence: SIGKILL, checkpoints mid-storm
// (-checkpoint-every) and the injected fsync failure below.
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
// internal/faultinject), requires the store to refuse that op and its
// retry with trustmap.ErrPoisoned while reads keep serving,
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
	"os"

	"trustmap"
	"trustmap/internal/faultinject"
	"trustmap/internal/shard"
	"trustmap/internal/storm"
	"trustmap/wire"
)

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

	// Oracle parity: the same stream prefix replayed into a fresh
	// in-memory store must resolve identically to the recovered state.
	ops := storm.Ops(*seed, "", int(max(lsn, *maxOps)))
	oracle, err := storm.Oracle(ctx, ops[:lsn])
	if err != nil {
		return err
	}
	if err := storm.Diff(ctx, st, oracle); err != nil {
		return fmt.Errorf("parity violation at lsn %d: %w", lsn, err)
	}
	fmt.Printf("parity ok %d\n", lsn)

	// Storm: continue the stream where the last process died.
	// DurabilityAlways means each ack below is crash-safe.
	b := shard.NewSingleStore(st)
	for i := lsn + 1; i <= *maxOps; i++ {
		if *failFsyncAt > 0 && i == *failFsyncAt {
			return provePoison(ctx, b, ops[i-1], i)
		}
		if err := storm.Apply(ctx, b, ops[i-1]); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if got := st.LSN(); got != i {
			return fmt.Errorf("op %d landed at lsn %d: the stream produced a no-op", i, got)
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
// the poison contract: the op fails with ErrPoisoned and so does its
// retry once the injector is disarmed (the refusal is sticky), reads keep
// serving the last published epoch, and the harness exits cleanly so the
// next run can prove recovery without any SIGKILL involved.
func provePoison(ctx context.Context, b *shard.SingleStore, op wire.Op, i uint64) error {
	faultinject.Enable(faultinject.WALSync, faultinject.FailN(0, 1, nil))
	err := storm.Apply(ctx, b, op)
	faultinject.Reset()
	if !errors.Is(err, trustmap.ErrPoisoned) {
		return fmt.Errorf("op %d under fsync failure: err = %v, want ErrPoisoned", i, err)
	}
	// Sticky: the injector is gone, the refusal is not.
	if err := storm.Apply(ctx, b, op); !errors.Is(err, trustmap.ErrPoisoned) {
		return fmt.Errorf("mutation after poison: err = %v, want ErrPoisoned", err)
	}
	// Reads still serve: the published epoch is untouched by the failure.
	if _, err := b.Store().ResolveAll(ctx); err != nil {
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
