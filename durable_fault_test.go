package trustmap

// Fault-injection acceptance tests: prove the poison-on-WAL-failure and
// recovery contracts WITHOUT killing the process. faultinject arms the
// exact I/O boundaries (wal fsync, wal write, snapshot write) the crash
// harness can only hit probabilistically, so each failure mode gets a
// deterministic test:
//
//   - fsync failure poisons the store with ErrPoisoned (distinct from
//     ErrClosed), in-flight reads on the pinned epoch still complete, and
//     a reopen recovers to oracle parity;
//   - a short write physically tears the WAL tail, which the reopen heals
//     (DiscardedBytes > 0) back to the pre-fault state;
//   - a snapshot-write failure fails the Checkpoint but leaves the store
//     healthy — memory and WAL still agree;
//   - so does a failed directory sync after the snapshot's rename, and
//     the WAL keeps every segment the snapshot would have superseded;
//   - a failed directory sync after a fresh WAL segment is created fails
//     the mutation that started it and poisons the store.
//
// These tests arm process-global fault points and must not use
// t.Parallel().

import (
	"context"
	"errors"
	"iter"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"trustmap/internal/faultinject"
	"trustmap/internal/snapshot"
)

// TestFaultFsyncPoisonsStore: a WAL fsync failure after the in-memory
// apply poisons the store — ErrPoisoned on the failing call and every
// later mutation — while an in-flight pinned-epoch read completes and a
// reopen recovers to the exact post-apply state (the record reached the
// file; only its durability ack failed).
func TestFaultFsyncPoisonsStore(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s := mustOpenStore(t, dir, WithDurability(DurabilityAlways))
	lsn := seedDurable(t, s)
	ctx := context.Background()

	// Start an in-flight streaming read and consume one row before the
	// fault: it pins the pre-fault epoch and must finish after the poison.
	next, stop := iterPull2(s.Resolved(ctx))
	defer stop()
	rows := 0
	if _, err, ok := next(); ok {
		if err != nil {
			t.Fatalf("in-flight read, first row: %v", err)
		}
		rows++
	}

	faultinject.Enable(faultinject.WALSync, faultinject.FailN(0, 1, nil))
	err := s.PutBelief(ctx, "carol", "glyph1", "knot")
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("mutation under fsync fault: err = %v, want ErrPoisoned", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("poison must be distinct from ErrClosed: %v", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("poison must carry the injected cause: %v", err)
	}

	// Poison is sticky: later mutations fail the same way, even with the
	// fault disarmed and even for a different mutator.
	faultinject.Reset()
	if err := s.SetTrust(ctx, "alice", "frank", 30); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("mutation after poison: err = %v, want ErrPoisoned", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Sync after poison: err = %v, want ErrPoisoned", err)
	}
	if _, err := s.Checkpoint(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Checkpoint after poison: err = %v, want ErrPoisoned", err)
	}

	// The in-flight read completes over its pinned epoch.
	for {
		_, err, ok := next()
		if !ok {
			break
		}
		if err != nil {
			t.Fatalf("in-flight read after poison: %v", err)
		}
		rows++
	}
	if rows != s.NumObjects() {
		t.Fatalf("in-flight read saw %d rows, want %d", rows, s.NumObjects())
	}

	// Fresh reads keep working too: the poisoned apply already published,
	// so they see the post-apply state — which is the recovery oracle.
	oracle := resolvedState(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close of poisoned store: %v", err)
	}

	// The failed op's record reached the WAL file (only the fsync ack was
	// injected away), so recovery lands on lsn+1 with the op applied.
	r := mustOpenStore(t, dir)
	defer r.Close()
	if got := r.LSN(); got != lsn+1 {
		t.Errorf("recovered LSN = %d, want %d", got, lsn+1)
	}
	if got := resolvedState(t, r); !reflect.DeepEqual(got, oracle) {
		t.Errorf("recovered state diverges from oracle:\n got %v\nwant %v", got, oracle)
	}
	if err := r.PutBelief(ctx, "carol", "glyph1", "arrow"); err != nil {
		t.Errorf("reopened store refuses mutations: %v", err)
	}
}

// TestFaultShortWriteTearsAndHeals: an injected short write leaves a
// physically torn WAL tail; the mutation poisons (memory leads the log)
// and the reopen heals the tear — DiscardedBytes > 0 — recovering the
// pre-fault state exactly.
func TestFaultShortWriteTearsAndHeals(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s := mustOpenStore(t, dir, WithDurability(DurabilityAlways))
	lsn := seedDurable(t, s)
	ctx := context.Background()
	oracle := resolvedState(t, s)

	faultinject.Enable(faultinject.WALAppend,
		faultinject.FailN(0, 1, &faultinject.ShortWriteError{Bytes: 5}))
	err := s.PutBelief(ctx, "carol", "glyph1", "knot")
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("mutation under short-write fault: err = %v, want ErrPoisoned", err)
	}
	faultinject.Reset()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := mustOpenStore(t, dir)
	defer r.Close()
	ds := r.Durability()
	if ds.DiscardedBytes == 0 {
		t.Error("DiscardedBytes = 0, want a healed torn tail")
	}
	if got := r.LSN(); got != lsn {
		t.Errorf("recovered LSN = %d, want pre-fault %d", got, lsn)
	}
	if got := resolvedState(t, r); !reflect.DeepEqual(got, oracle) {
		t.Errorf("recovered state diverges from pre-fault oracle:\n got %v\nwant %v", got, oracle)
	}
}

// TestFaultSnapshotWriteKeepsStoreHealthy: a failed snapshot write fails
// the Checkpoint with a non-poison error; mutations keep working and the
// next (un-faulted) Checkpoint succeeds.
func TestFaultSnapshotWriteKeepsStoreHealthy(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s := mustOpenStore(t, dir)
	defer s.Close()
	seedDurable(t, s)
	ctx := context.Background()

	for _, p := range []faultinject.Point{faultinject.SnapshotWrite, faultinject.SnapshotSync} {
		faultinject.Enable(p, faultinject.Always(nil))
		_, err := s.Checkpoint()
		faultinject.Disable(p)
		if err == nil {
			t.Fatalf("%s: Checkpoint succeeded under fault", p)
		}
		if errors.Is(err, ErrPoisoned) {
			t.Fatalf("%s: snapshot failure must not poison: %v", p, err)
		}
		if err := s.PutBelief(ctx, "carol", "glyph1", "knot"); err != nil {
			t.Fatalf("%s: mutation after failed checkpoint: %v", p, err)
		}
	}
	info, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("un-faulted Checkpoint: %v", err)
	}
	if info.LSN != s.LSN() {
		t.Fatalf("checkpoint LSN = %d, want %d", info.LSN, s.LSN())
	}
}

// TestCheckpointDirSyncFailureKeepsWAL: when the snapshot's rename cannot
// be made durable, Checkpoint fails before it rotates or prunes the WAL,
// so a crash that loses the rename still finds every acked write in the
// log. The store stays healthy and the next Checkpoint succeeds.
func TestCheckpointDirSyncFailureKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, dir)
	defer s.Close()
	seedDurable(t, s)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatalf("first Checkpoint: %v", err)
	}
	ctx := context.Background()
	if err := s.PutBelief(ctx, "carol", "glyph3", "knot"); err != nil {
		t.Fatal(err)
	}
	segments := func() []string {
		t.Helper()
		ents, err := os.ReadDir(filepath.Join(dir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	before := segments()

	dirErr := errors.New("directory sync failed")
	orig := snapshot.SyncDir
	snapshot.SyncDir = func(string) error { return dirErr }
	_, err := s.Checkpoint()
	snapshot.SyncDir = orig
	if !errors.Is(err, dirErr) {
		t.Fatalf("Checkpoint: err = %v, want the directory sync error", err)
	}
	if errors.Is(err, ErrPoisoned) {
		t.Fatalf("a failed directory sync must not poison: %v", err)
	}
	if after := segments(); !reflect.DeepEqual(after, before) {
		t.Fatalf("WAL segments %v after the failed Checkpoint, want them kept: %v", after, before)
	}

	if err := s.PutBelief(ctx, "carol", "glyph4", "cow"); err != nil {
		t.Fatalf("mutation after failed checkpoint: %v", err)
	}
	if info, err := s.Checkpoint(); err != nil || info.LSN != s.LSN() {
		t.Fatalf("next Checkpoint = %+v, %v; want LSN %d", info, err, s.LSN())
	}
}

// TestSegmentDirSyncFailurePoisons: the first append after a checkpoint
// starts a fresh WAL segment, whose directory entry must be durable
// before any record in it is acked. When that directory sync fails the
// mutation is not acked and the store is poisoned, as after a failed
// fsync; a reopen recovers the state before the refused mutation.
func TestSegmentDirSyncFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, dir, WithDurability(DurabilityAlways))
	lsn := seedDurable(t, s)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dirErr := errors.New("directory sync failed")
	orig := snapshot.SyncDir
	snapshot.SyncDir = func(string) error { return dirErr }
	err := s.PutBelief(ctx, "carol", "glyph3", "knot")
	snapshot.SyncDir = orig
	if !errors.Is(err, ErrPoisoned) || !errors.Is(err, dirErr) {
		t.Fatalf("mutation into a fresh segment under a failing directory sync: err = %v, want ErrPoisoned wrapping the sync error", err)
	}
	if err := s.PutBelief(ctx, "carol", "glyph4", "cow"); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("mutation after poison: err = %v, want ErrPoisoned", err)
	}
	s.Close()

	r := mustOpenStore(t, dir)
	defer r.Close()
	if got := r.LSN(); got != lsn {
		t.Fatalf("recovered LSN = %d, want %d (the refused mutation must not be logged)", got, lsn)
	}
	if _, ok := r.Object("glyph3"); ok {
		t.Fatal("recovered store holds the refused object glyph3")
	}
}

// TestFaultSlowSyncOnlyDelays: a slow-I/O injector delays but never
// fails; counters and state are unaffected.
func TestFaultSlowSyncOnlyDelays(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s := mustOpenStore(t, dir, WithDurability(DurabilityAlways))
	defer s.Close()
	faultinject.Enable(faultinject.WALSync, faultinject.Slow(time.Millisecond))
	lsn := seedDurable(t, s)
	if got := s.DurableLSN(); got != lsn {
		t.Fatalf("DurableLSN = %d, want %d", got, lsn)
	}
}

// iterPull2 adapts iter.Seq2 to a pull iterator (wrapper around
// iter.Pull2 kept local so the test reads top-down).
func iterPull2[K, V any](seq func(func(K, V) bool)) (next func() (K, V, bool), stop func()) {
	return iter.Pull2(iter.Seq2[K, V](seq))
}
