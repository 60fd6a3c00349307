package replica_test

// Replica tests: live WAL tailing into a second durable store, the
// torn-stream fault (reconnect at the right LSN, no double apply),
// snapshot bootstrap, the 410 pruned-log signal, and dead-primary
// salvage. The primary is the real serving stack (internal/httpd) on a
// real listener; the replica is the real tailer — the only synthetic
// piece is the injected tear.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"trustmap"
	"trustmap/internal/faultinject"
	"trustmap/internal/httpd"
	"trustmap/internal/replica"
)

// startPrimary opens a durable store in dir and serves it.
func startPrimary(t *testing.T, dir string) (*trustmap.Store, *httptest.Server) {
	t.Helper()
	st, err := trustmap.OpenStore(dir, trustmap.WithDurability(trustmap.DurabilityAlways))
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	ts := httptest.NewServer(httpd.New(st, httpd.Config{WALPoll: 2 * time.Millisecond}))
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return st, ts
}

func openReplicaStore(t *testing.T, dir string) *trustmap.Store {
	t.Helper()
	st, err := trustmap.OpenStore(dir, trustmap.WithDurability(trustmap.DurabilityAlways))
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// writeOps drives n deterministic effective mutations (LSNs from+1..from+n).
func writeOps(t *testing.T, st *trustmap.Store, from uint64, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		lsn := from + uint64(i) + 1
		var err error
		switch lsn % 3 {
		case 0:
			err = st.PutBelief(ctx, "seed", fmt.Sprintf("obj%d", lsn%5), fmt.Sprintf("v%d", lsn))
		case 1:
			err = st.SetDefault(ctx, fmt.Sprintf("u%d", lsn), fmt.Sprintf("d%d", lsn))
		default:
			err = st.SetTrust(ctx, fmt.Sprintf("u%d", lsn), "seed", int(lsn%7)+1)
		}
		if err != nil {
			t.Fatalf("write lsn %d: %v", lsn, err)
		}
		if got := st.LSN(); got != lsn {
			t.Fatalf("write landed at lsn %d, want %d", got, lsn)
		}
	}
}

// fingerprint flattens a store's full resolved state for parity checks.
func fingerprint(t *testing.T, st *trustmap.Store) string {
	t.Helper()
	rows, err := st.ResolveAll(context.Background())
	if err != nil {
		t.Fatalf("resolve all: %v", err)
	}
	users := st.Users()
	sort.Strings(users)
	var b strings.Builder
	for _, row := range rows {
		for _, u := range users {
			fmt.Fprintf(&b, "%s/%s=%v;", u, row.Object, row.Possible(u))
		}
	}
	return b.String()
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTailerLiveFollow(t *testing.T) {
	p, ts := startPrimary(t, t.TempDir())
	writeOps(t, p, 0, 10)

	r := openReplicaStore(t, t.TempDir())
	tail := replica.Start(r, ts.URL, replica.WithBackoff(5*time.Millisecond, 100*time.Millisecond))
	defer tail.Stop()

	waitFor(t, 5*time.Second, "replica to reach lsn 10", func() bool { return r.LSN() == 10 })
	// Writes landing while the stream is live keep flowing.
	writeOps(t, p, 10, 7)
	// The store makes LSN 17 visible (and so drains Lag) before the tailer
	// counts the batch, so wait for the tailer to account for all 17, as
	// TestTailerTornStreamReconnects does.
	waitFor(t, 5*time.Second, "replica to reach lsn 17", func() bool {
		s := tail.Stats()
		return r.LSN() == 17 && s.AppliedBatches+s.SkippedBatches >= 17
	})
	waitFor(t, 5*time.Second, "lag to drain", func() bool { return tail.Lag() == 0 })

	if got, want := fingerprint(t, r), fingerprint(t, p); got != want {
		t.Fatalf("replica resolved state diverges:\n got %s\nwant %s", got, want)
	}
	s := tail.Stats()
	if s.Role != "replica" || s.Primary != ts.URL || !s.Connected {
		t.Fatalf("stats role/primary/connected wrong: %+v", s)
	}
	if s.AppliedBatches != 17 || s.SkippedBatches != 0 {
		t.Fatalf("applied=%d skipped=%d, want 17/0", s.AppliedBatches, s.SkippedBatches)
	}
}

// The satellite fault: a stream torn mid-batch must reconnect and resume
// at the right LSN without double-applying anything.
func TestTailerTornStreamReconnects(t *testing.T) {
	defer faultinject.Reset()
	p, ts := startPrimary(t, t.TempDir())
	writeOps(t, p, 0, 20)

	// The 8th shipped record is cut 5 bytes in: a partial frame header
	// lands on the wire and the stream ends — the shape a primary crash
	// mid-send produces.
	faultinject.Enable(faultinject.ReplicaStream,
		faultinject.FailN(7, 1, &faultinject.ShortWriteError{Bytes: 5}))

	r := openReplicaStore(t, t.TempDir())
	tail := replica.Start(r, ts.URL, replica.WithBackoff(5*time.Millisecond, 100*time.Millisecond))
	defer tail.Stop()

	// The store's LSN becomes visible before the tailer's stats counter
	// increments (the batch fsyncs in between), so wait for both: the
	// replica at LSN 20 and the tailer having accounted for 20 batches.
	waitFor(t, 5*time.Second, "replica to recover past the tear", func() bool {
		s := tail.Stats()
		return r.LSN() == 20 && s.AppliedBatches+s.SkippedBatches >= 20
	})
	s := tail.Stats()
	if s.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1", s.Reconnects)
	}
	// Exactly 20 batches applied and none skipped: the resume asked for
	// precisely the suffix after the last applied LSN — no double apply,
	// no overlap, no gap.
	if s.AppliedBatches != 20 || s.SkippedBatches != 0 {
		t.Fatalf("applied=%d skipped=%d, want 20/0", s.AppliedBatches, s.SkippedBatches)
	}
	if r.DurableLSN() != 20 {
		t.Fatalf("replica durable lsn = %d, want 20", r.DurableLSN())
	}
	if got, want := fingerprint(t, r), fingerprint(t, p); got != want {
		t.Fatalf("post-reconnect resolved state diverges")
	}
}

func TestBootstrapFromSnapshot(t *testing.T) {
	p, ts := startPrimary(t, t.TempDir())
	writeOps(t, p, 0, 10)
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeOps(t, p, 10, 5) // WAL suffix above the snapshot

	rdir := t.TempDir()
	installed, lsn, err := replica.Bootstrap(context.Background(), rdir, ts.URL, nil)
	if err != nil || !installed || lsn != 10 {
		t.Fatalf("bootstrap: installed=%v lsn=%d err=%v, want true/10", installed, lsn, err)
	}
	r := openReplicaStore(t, rdir)
	if r.LSN() != 10 {
		t.Fatalf("bootstrapped store lsn = %d, want 10", r.LSN())
	}
	tail := replica.Start(r, ts.URL, replica.WithBackoff(5*time.Millisecond, 100*time.Millisecond))
	defer tail.Stop()
	waitFor(t, 5*time.Second, "bootstrapped replica to catch up", func() bool { return r.LSN() == 15 })
	if got, want := fingerprint(t, r), fingerprint(t, p); got != want {
		t.Fatalf("bootstrapped replica resolved state diverges")
	}

	// A primary with no checkpoint yet answers 204: nothing installed.
	p2, ts2 := startPrimary(t, t.TempDir())
	writeOps(t, p2, 0, 3)
	if installed, _, err := replica.Bootstrap(context.Background(), t.TempDir(), ts2.URL, nil); err != nil || installed {
		t.Fatalf("bootstrap without snapshot: installed=%v err=%v, want false/nil", installed, err)
	}
}

// A replica asking for records pruned behind the primary's checkpoints
// gets the unambiguous 410 signal, not a silent gap.
func TestTailerPrunedLogNeedsBootstrap(t *testing.T) {
	p, ts := startPrimary(t, t.TempDir())
	writeOps(t, p, 0, 10)
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeOps(t, p, 10, 5)
	if _, err := p.Checkpoint(); err != nil { // rotates again: first segment pruned
		t.Fatal(err)
	}

	rdir := t.TempDir()
	r := openReplicaStore(t, rdir) // fresh, LSN 0, deliberately not bootstrapped
	tail := replica.Start(r, ts.URL, replica.WithBackoff(5*time.Millisecond, 50*time.Millisecond))
	waitFor(t, 5*time.Second, "bootstrap-required signal", func() bool {
		return strings.Contains(tail.Stats().LastError, "re-bootstrap required")
	})
	if r.LSN() != 0 {
		t.Fatalf("un-bootstrapped replica applied %d batches from a pruned log", r.LSN())
	}
	tail.Stop()
}

func TestSalvageDeadPrimaryTail(t *testing.T) {
	pdir := t.TempDir()
	p, ts := startPrimary(t, pdir)
	writeOps(t, p, 0, 12)

	r := openReplicaStore(t, t.TempDir())
	tail := replica.Start(r, ts.URL, replica.WithBackoff(5*time.Millisecond, 100*time.Millisecond))
	waitFor(t, 5*time.Second, "replica to sync", func() bool { return r.LSN() == 12 })
	tail.Stop()

	// The "primary" dies with 6 batches the replica never saw: simulate
	// by writing them after the tail stopped, then closing the store.
	writeOps(t, p, 12, 6)
	ts.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := replica.Salvage(pdir, r)
	if err != nil || n != 6 {
		t.Fatalf("salvage = %d, %v; want 6 batches", n, err)
	}
	if r.LSN() != 18 || r.DurableLSN() != 18 {
		t.Fatalf("salvaged replica lsn=%d durable=%d, want 18", r.LSN(), r.DurableLSN())
	}
	// Salvage is idempotent: nothing left to ship.
	if n, err := replica.Salvage(pdir, r); err != nil || n != 0 {
		t.Fatalf("second salvage = %d, %v; want 0", n, err)
	}
}

func TestTailerSurvivesPrimaryRestart(t *testing.T) {
	pdir := t.TempDir()
	p, ts := startPrimary(t, pdir)
	writeOps(t, p, 0, 5)

	r := openReplicaStore(t, t.TempDir())
	tail := replica.Start(r, ts.URL, replica.WithBackoff(5*time.Millisecond, 100*time.Millisecond))
	defer tail.Stop()
	waitFor(t, 5*time.Second, "replica to sync", func() bool { return r.LSN() == 5 })

	// Kill the primary's listener; the tailer must report the outage and
	// then resume when a primary comes back at the same address. (A new
	// httptest server gets a new port, so the resume is exercised via the
	// error path + reconnect counter rather than a same-port restart.)
	ts.CloseClientConnections()
	writeOps(t, p, 5, 3)
	waitFor(t, 5*time.Second, "replica to resync after drop", func() bool { return r.LSN() == 8 })
	if s := tail.Stats(); s.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1", s.Reconnects)
	}
}
