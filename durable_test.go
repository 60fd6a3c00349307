package trustmap

// Durable store tests: open/mutate/close/reopen round trips, checkpoint
// compaction, fsync-discipline counters, effective-op-only logging, poison
// and close semantics, and recovery parity after a torn WAL tail. All
// assertions are on deterministic counters and resolved beliefs — no wall
// clocks.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"trustmap/wire"
)

func mustOpenStore(t *testing.T, dir string, opts ...StoreOption) *Store {
	t.Helper()
	s, err := OpenStore(dir, opts...)
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", dir, err)
	}
	return s
}

// seedDurable drives one of every mutator through the store:
// 4 trust edges + default + object + belief + one Update batch +
// one effective delete each of trust/belief. Returns the expected LSN.
func seedDurable(t *testing.T, s *Store) uint64 {
	t.Helper()
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.SetTrust(ctx, "alice", "bob", 10))
	must(s.SetTrust(ctx, "alice", "carol", 20))
	must(s.SetTrust(ctx, "dave", "alice", 5))
	must(s.SetTrust(ctx, "dave", "erin", 9))
	must(s.SetDefault(ctx, "erin", "jar"))
	must(s.PutObject(ctx, "glyph1", map[string]string{"bob": "fish", "carol": "cow"}))
	must(s.PutBelief(ctx, "carol", "glyph2", "arrow"))
	must(s.Update(func(tx *StoreTx) error {
		if err := tx.SetTrust("frank", "alice", 3); err != nil {
			return err
		}
		return tx.SetDefault("bob", "fish")
	}))
	if ok, err := s.RemoveTrust(ctx, "dave", "erin"); err != nil || !ok {
		t.Fatalf("RemoveTrust: ok=%v err=%v", ok, err)
	}
	if ok, err := s.DeleteBelief(ctx, "carol", "glyph2"); err != nil || !ok {
		t.Fatalf("DeleteBelief: ok=%v err=%v", ok, err)
	}
	// glyph2 is now empty: a resolvable store needs every object to cover
	// the roots (assumption ii), so drop it — one more effective op.
	if ok, err := s.DeleteObject(ctx, "glyph2"); err != nil || !ok {
		t.Fatalf("DeleteObject: ok=%v err=%v", ok, err)
	}
	return 11 // one LSN per effective mutator call above
}

// resolvedState flattens every stored object's resolution to a comparable
// map user/object -> possible values.
func resolvedState(t *testing.T, s *Store) map[string][]string {
	t.Helper()
	rows, err := s.ResolveAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	for _, row := range rows {
		for _, u := range s.Users() {
			out[u+"/"+row.Object] = row.Possible(u)
		}
	}
	return out
}

func TestOpenStoreFreshReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, dir)
	wantLSN := seedDurable(t, s)
	if got := s.LSN(); got != wantLSN {
		t.Fatalf("LSN after seed = %d, want %d", got, wantLSN)
	}
	preEpoch := s.Epoch()
	preState := resolvedState(t, s)
	preUsers := s.Users()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := mustOpenStore(t, dir)
	defer r.Close()
	if got := r.LSN(); got != wantLSN {
		t.Errorf("recovered LSN = %d, want %d", got, wantLSN)
	}
	if got := r.DurableLSN(); got != wantLSN {
		t.Errorf("recovered DurableLSN = %d, want %d", got, wantLSN)
	}
	if got := r.Users(); !reflect.DeepEqual(got, preUsers) {
		t.Errorf("recovered users = %v, want %v", got, preUsers)
	}
	if got := resolvedState(t, r); !reflect.DeepEqual(got, preState) {
		t.Errorf("recovered resolved state diverges:\n got %v\nwant %v", got, preState)
	}
	// Post-restart epochs continue the pre-crash numbering: resolutions
	// cached against pre-restart epochs can never alias fresh ones.
	if got := r.Epoch(); got < preEpoch {
		t.Errorf("recovered epoch %d went backwards from %d", got, preEpoch)
	}
	ds := r.Durability()
	if ds.RecoveredBatches != wantLSN {
		t.Errorf("RecoveredBatches = %d, want %d", ds.RecoveredBatches, wantLSN)
	}
	if ds.ReplayErrors != 0 {
		t.Errorf("ReplayErrors = %d, want 0", ds.ReplayErrors)
	}
	if ds.ReplayedOps < wantLSN {
		t.Errorf("ReplayedOps = %d, want >= %d", ds.ReplayedOps, wantLSN)
	}
}

func TestCheckpointCompactsAndPrunes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, dir)
	seedDurable(t, s)

	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if ck.LSN != s.LSN() {
		t.Errorf("checkpoint LSN = %d, want store LSN %d", ck.LSN, s.LSN())
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshots", ck.Snapshot)); err != nil {
		t.Errorf("snapshot file missing: %v", err)
	}
	ds := s.Durability()
	if ds.SnapshotLSN != ck.LSN || ds.Checkpoints != 1 {
		t.Errorf("stats after checkpoint: snapLSN=%d checkpoints=%d, want %d/1",
			ds.SnapshotLSN, ds.Checkpoints, ck.LSN)
	}

	// Two more logged mutations above the watermark...
	ctx := context.Background()
	if err := s.SetTrust(ctx, "grace", "alice", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetDefault(ctx, "carol", "knot"); err != nil {
		t.Fatal(err)
	}
	want := resolvedState(t, s)
	wantLSN := s.LSN()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// ...so recovery replays exactly those two batches on top of the
	// snapshot.
	r := mustOpenStore(t, dir)
	defer r.Close()
	if got := r.LSN(); got != wantLSN {
		t.Errorf("recovered LSN = %d, want %d", got, wantLSN)
	}
	rs := r.Durability()
	if rs.RecoveredBatches != 2 {
		t.Errorf("RecoveredBatches = %d, want 2 (suffix above snapshot)", rs.RecoveredBatches)
	}
	if rs.SnapshotLSN != ck.LSN {
		t.Errorf("recovered SnapshotLSN = %d, want %d", rs.SnapshotLSN, ck.LSN)
	}
	if got := resolvedState(t, r); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered resolved state diverges:\n got %v\nwant %v", got, want)
	}
}

func TestCheckpointOnlyRecovery(t *testing.T) {
	// A store whose WAL was fully compacted away: recovery comes entirely
	// from the snapshot, and the empty log is positioned at its watermark.
	dir := t.TempDir()
	s := mustOpenStore(t, dir)
	wantLSN := seedDurable(t, s)
	want := resolvedState(t, s)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpenStore(t, dir)
	defer r.Close()
	ds := r.Durability()
	if ds.RecoveredBatches != 0 {
		t.Errorf("RecoveredBatches = %d, want 0 (snapshot covers everything)", ds.RecoveredBatches)
	}
	if got := r.LSN(); got != wantLSN {
		t.Errorf("recovered LSN = %d, want %d", got, wantLSN)
	}
	if got := resolvedState(t, r); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered resolved state diverges:\n got %v\nwant %v", got, want)
	}
	// The next mutation continues the numbering above the snapshot.
	if err := r.SetTrust(context.Background(), "zed", "alice", 1); err != nil {
		t.Fatal(err)
	}
	if got := r.LSN(); got != wantLSN+1 {
		t.Errorf("post-recovery LSN = %d, want %d", got, wantLSN+1)
	}
}

func TestDurabilityModeCounters(t *testing.T) {
	ctx := context.Background()

	t.Run("always", func(t *testing.T) {
		s := mustOpenStore(t, t.TempDir(), WithDurability(DurabilityAlways))
		defer s.Close()
		for i := 0; i < 5; i++ {
			if err := s.PutBelief(ctx, "u", "obj", string(rune('a'+i))); err != nil {
				t.Fatal(err)
			}
		}
		ds := s.Durability()
		if ds.Mode != "always" || ds.WALAppends != 5 || ds.WALSyncs != 5 {
			t.Errorf("always-mode stats = %+v, want 5 appends / 5 syncs", ds)
		}
		if ds.DurableLSN != ds.LastLSN {
			t.Errorf("always mode left LastLSN %d ahead of DurableLSN %d", ds.LastLSN, ds.DurableLSN)
		}
	})

	t.Run("batch", func(t *testing.T) {
		s := mustOpenStore(t, t.TempDir()) // default mode
		defer s.Close()
		n := 2*groupEvery + 2
		for i := 0; i < n; i++ {
			if err := s.SetTrust(ctx, "a", "b", i+1); err != nil {
				t.Fatal(err)
			}
		}
		ds := s.Durability()
		if ds.Mode != "batch" || ds.WALAppends != uint64(n) || ds.WALSyncs != 2 {
			t.Errorf("batch-mode stats = %+v, want %d appends / 2 group syncs", ds, n)
		}
		if ds.DurableLSN != 2*groupEvery {
			t.Errorf("batch DurableLSN = %d, want %d", ds.DurableLSN, 2*groupEvery)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if ds = s.Durability(); ds.WALSyncs != 3 || ds.DurableLSN != uint64(n) {
			t.Errorf("after Sync: %d syncs, durable %d; want 3, %d", ds.WALSyncs, ds.DurableLSN, n)
		}
	})

	t.Run("off", func(t *testing.T) {
		s := mustOpenStore(t, t.TempDir(), WithDurability(DurabilityOff))
		defer s.Close()
		for i := 0; i < 100; i++ {
			if err := s.SetTrust(ctx, "a", "b", i+1); err != nil {
				t.Fatal(err)
			}
		}
		ds := s.Durability()
		if ds.Mode != "off" || ds.WALSyncs != 0 {
			t.Errorf("off-mode stats = %+v, want 0 syncs", ds)
		}
		// Checkpoint still makes the log durable first: the snapshot must
		// never claim batches the log could lose.
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if ds = s.Durability(); ds.WALSyncs != 1 || ds.DurableLSN != 100 {
			t.Errorf("off-mode checkpoint: %d syncs, durable %d; want 1, 100", ds.WALSyncs, ds.DurableLSN)
		}
	})

	t.Run("memory", func(t *testing.T) {
		s, err := NewStore()
		if err != nil {
			t.Fatal(err)
		}
		if ds := s.Durability(); ds.Mode != "memory" || ds.LastLSN != 0 {
			t.Errorf("in-memory stats = %+v, want Mode memory and zeros", ds)
		}
		if _, err := s.Checkpoint(); !errors.Is(err, ErrNotDurable) {
			t.Errorf("in-memory Checkpoint err = %v, want ErrNotDurable", err)
		}
		if err := s.Sync(); err != nil {
			t.Errorf("in-memory Sync = %v, want nil", err)
		}
		if err := s.Close(); err != nil {
			t.Errorf("in-memory Close = %v, want nil", err)
		}
	})
}

func TestNoOpMutationsConsumeNoLSN(t *testing.T) {
	ctx := context.Background()
	s := mustOpenStore(t, t.TempDir())
	defer s.Close()
	if err := s.SetTrust(ctx, "alice", "bob", 10); err != nil {
		t.Fatal(err)
	}
	base := s.LSN()

	if ok, err := s.RemoveTrust(ctx, "alice", "nobody"); err != nil || ok {
		t.Fatalf("RemoveTrust(absent): ok=%v err=%v", ok, err)
	}
	if err := s.DeleteDefault(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.DeleteBelief(ctx, "alice", "nothing"); err != nil || ok {
		t.Fatalf("DeleteBelief(absent): ok=%v err=%v", ok, err)
	}
	if ok, err := s.DeleteObject(ctx, "nothing"); err != nil || ok {
		t.Fatalf("DeleteObject(absent): ok=%v err=%v", ok, err)
	}
	if err := s.Update(func(tx *StoreTx) error {
		if ok, err := tx.RemoveTrust("alice", "nobody"); err != nil || ok {
			t.Errorf("tx.RemoveTrust(absent): ok=%v err=%v", ok, err)
		}
		return tx.DeleteDefault("alice")
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.LSN(); got != base {
		t.Errorf("no-op mutations moved LSN %d -> %d; the WAL must hold only effective history", base, got)
	}

	// An Update with one effective op among no-ops logs exactly one batch.
	if err := s.Update(func(tx *StoreTx) error {
		if _, err := tx.RemoveTrust("alice", "nobody"); err != nil {
			return err
		}
		return tx.SetDefault("alice", "fish")
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.LSN(); got != base+1 {
		t.Errorf("effective batch moved LSN %d -> %d, want %d", base, got, base+1)
	}
}

func TestUpdateBatchReplaysAsOneBatch(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, dir)
	err := s.Update(func(tx *StoreTx) error {
		for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}} {
			if err := tx.SetTrust(e[0], e[1], 10); err != nil {
				return err
			}
		}
		return tx.SetDefault("d", "cow")
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.LSN(); got != 1 {
		t.Fatalf("batch LSN = %d, want 1", got)
	}
	want := resolvedStateUsers(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpenStore(t, dir)
	defer r.Close()
	ds := r.Durability()
	if ds.RecoveredBatches != 1 || ds.ReplayedOps != 4 || ds.ReplayErrors != 0 {
		t.Errorf("replay stats = %+v, want 1 batch / 4 ops / 0 errors", ds)
	}
	if got := resolvedStateUsers(t, r); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered users = %v, want %v", got, want)
	}
}

// resolvedStateUsers is the trust-only state fingerprint: user list plus
// each user's resolved possible values for a probe object.
func resolvedStateUsers(t *testing.T, s *Store) map[string][]string {
	t.Helper()
	res, err := s.Resolve(context.Background(), map[string]string{"d": "cow"})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	for _, u := range s.Users() {
		out[u] = res.Possible(u)
	}
	return out
}

func TestClosedStoreRejectsWritesServesReads(t *testing.T) {
	ctx := context.Background()
	s := mustOpenStore(t, t.TempDir())
	seedDurable(t, s)
	pre := resolvedState(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if err := s.SetTrust(ctx, "x", "y", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("SetTrust after Close = %v, want ErrClosed", err)
	}
	if err := s.PutObject(ctx, "o", map[string]string{"alice": "v"}); !errors.Is(err, ErrClosed) {
		t.Errorf("PutObject after Close = %v, want ErrClosed", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint after Close = %v, want ErrClosed", err)
	}
	if err := s.Update(func(tx *StoreTx) error { return tx.SetTrust("x", "y", 1) }); !errors.Is(err, ErrClosed) {
		t.Errorf("Update after Close = %v, want ErrClosed", err)
	}
	// Reads keep serving the last published epoch.
	if got := resolvedState(t, s); !reflect.DeepEqual(got, pre) {
		t.Errorf("reads after Close diverge:\n got %v\nwant %v", got, pre)
	}
}

func TestRecoveryHealsTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, dir)
	wantLSN := seedDurable(t, s)
	want := resolvedState(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage bytes after the last durable
	// record of the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := mustOpenStore(t, dir)
	defer r.Close()
	if got := r.LSN(); got != wantLSN {
		t.Errorf("recovered LSN = %d, want %d", got, wantLSN)
	}
	ds := r.Durability()
	if ds.DiscardedBytes != 5 {
		t.Errorf("DiscardedBytes = %d, want 5", ds.DiscardedBytes)
	}
	if got := resolvedState(t, r); !reflect.DeepEqual(got, want) {
		t.Errorf("post-heal resolved state diverges:\n got %v\nwant %v", got, want)
	}
	// The healed log accepts new writes at the next LSN.
	if err := r.SetTrust(context.Background(), "post", "alice", 1); err != nil {
		t.Fatal(err)
	}
	if got := r.LSN(); got != wantLSN+1 {
		t.Errorf("post-heal LSN = %d, want %d", got, wantLSN+1)
	}
}

func TestExtraRootsSurviveCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, dir, WithExtraRoots("curatorX", "curatorY"))
	if err := s.SetTrust(context.Background(), "reader", "curatorX", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopened WITHOUT the option: the roots come back from the snapshot.
	r := mustOpenStore(t, dir)
	defer r.Close()
	got := r.extraRootNames()
	want := map[string]bool{"curatorX": true, "curatorY": true}
	for _, name := range got {
		delete(want, name)
	}
	if len(want) != 0 {
		t.Errorf("extra roots %v lost across checkpoint+reopen (recovered %v)", want, got)
	}
}

// TestRecoveryReplaysLoggedEmptyUser pins where the empty-user check
// lives: the public mutators reject the name, but applyObject, the
// replay dispatch, does not, so a WAL written before the check existed —
// here shipped in as a replicated batch — still recovers instead of
// failing the open.
func TestRecoveryReplaysLoggedEmptyUser(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := mustOpenStore(t, dir, WithDurability(DurabilityAlways))
	if err := s.PutObject(ctx, "k", map[string]string{"": "x"}); err == nil {
		t.Fatal("PutObject accepted an empty user name")
	}
	if err := s.PutBelief(ctx, "", "k", "x"); err == nil {
		t.Fatal("PutBelief accepted an empty user name")
	}
	if s.LSN() != 0 || len(s.Users()) != 0 {
		t.Fatalf("rejected writes left a trace: lsn=%d users=%q", s.LSN(), s.Users())
	}
	old := wire.OpBatch{Schema: wire.SchemaVersion, Epoch: s.Epoch(), LSN: 1, Ops: []wire.Op{
		{Op: wire.OpPutObject, Object: "k", Beliefs: map[string]string{"": "x"}},
	}}
	if res, err := s.ApplyReplicated(old); err != nil || res.OpErrors != 0 {
		t.Fatalf("replaying the legacy record: %+v, %v", res, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpenStore(t, dir)
	defer r.Close()
	if st := r.Durability(); st.ReplayErrors != 0 || st.ReplayedOps != 1 {
		t.Fatalf("recovery: %d ops replayed, %d errors; want 1, 0", st.ReplayedOps, st.ReplayErrors)
	}
	if bs, ok := r.Object("k"); !ok || bs[""] != "x" {
		t.Fatalf("recovered object k = %v, %v", bs, ok)
	}
}

// TestAddRootsLogsOnlyNewNames pins the effective form of a
// register-roots record: the names that were not roots yet, sorted and
// deduplicated, and no record at all when every name already was.
func TestAddRootsLogsOnlyNewNames(t *testing.T) {
	ctx := context.Background()
	s := mustOpenStore(t, t.TempDir(), WithDurability(DurabilityAlways))
	defer s.Close()
	for _, names := range [][]string{{"b", "a", "b"}, {"c", "a"}, {"a", "c"}} {
		if err := s.AddRoots(ctx, names...); err != nil {
			t.Fatalf("AddRoots(%q): %v", names, err)
		}
	}
	var logged [][]string
	if _, err := s.TailWAL(0, func(b wire.OpBatch) error {
		for _, op := range b.Ops {
			logged = append(logged, op.Users)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"a", "b"}, {"c"}}; !reflect.DeepEqual(logged, want) {
		t.Fatalf("logged register-roots users %q, want %q", logged, want)
	}
}
