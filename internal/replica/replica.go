// Package replica is the receiving half of WAL shipping: the machinery
// a `trustd -replica-of <primary>` runs to stay a faithful copy of its
// primary. Bootstrap seeds the data directory from the primary's latest
// snapshot before the store opens; Tailer then follows the primary's
// GET /v1/wal stream, applying every shipped batch through the store's
// log-and-apply path (trustmap.Store.ApplyReplicated), so the replica
// is itself durable, restartable, and promotable in place. Salvage
// ships a dead primary's WAL tail straight from its data directory —
// the runbook step that makes a manual failover lose nothing that was
// ever acknowledged durable.
//
// The tailer is crash-shaped, not happy-path-shaped: a torn stream
// (primary died mid-frame), a clean server-side close, a gap after a
// missed reconnect window — all funnel into the same recovery: drop the
// connection and re-request the stream after the store's own applied
// LSN. ApplyReplicated skips duplicates and refuses gaps, so reconnect
// overlap can never double-apply and lost batches can never be papered
// over.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trustmap"
	"trustmap/internal/wal"
	"trustmap/wire"
)

// ErrBootstrapRequired reports a primary that answered 410 Gone: the WAL
// records this replica needs are pruned behind a checkpoint. The tailer
// cannot heal this on a live store — restart the replica process; its
// Bootstrap will install the primary's current snapshot.
var ErrBootstrapRequired = errors.New("replica: primary pruned past our position; snapshot re-bootstrap required")

// Defaults for the reconnect backoff: exponential between the two.
const (
	DefaultMinBackoff = 50 * time.Millisecond
	DefaultMaxBackoff = 2 * time.Second
)

// Option configures a Tailer.
type Option func(*Tailer)

// WithHTTPClient sets the HTTP client used for the stream. The client's
// Timeout must be zero — the stream is deliberately endless — so only
// transport-level (dial/TLS) timeouts belong on it.
func WithHTTPClient(hc *http.Client) Option {
	return func(t *Tailer) { t.hc = hc }
}

// WithBackoff bounds the reconnect backoff (exponential from min to max).
func WithBackoff(min, max time.Duration) Option {
	return func(t *Tailer) { t.minBackoff, t.maxBackoff = min, max }
}

// WithLogf routes the tailer's connection-lifecycle messages (default:
// dropped).
func WithLogf(fn func(format string, args ...any)) Option {
	return func(t *Tailer) { t.logf = fn }
}

// Tailer follows one primary's WAL stream into one open durable store.
// It satisfies internal/httpd.Replication, so handing it to
// Server.SetReplication is what makes a serving process a replica.
type Tailer struct {
	st         *trustmap.Store
	primary    string
	hc         *http.Client
	minBackoff time.Duration
	maxBackoff time.Duration
	logf       func(string, ...any)

	cancel context.CancelFunc
	done   chan struct{}
	stop   sync.Once

	connected  atomic.Bool
	lastSeen   atomic.Uint64 // highest primary durable LSN observed
	applied    atomic.Uint64 // batches applied
	appliedOps atomic.Uint64
	skipped    atomic.Uint64 // duplicate batches discarded (reconnect overlap)
	reconnects atomic.Uint64

	mu      sync.Mutex
	lastErr string
}

// Start begins tailing primary (a base URL) into st and returns
// immediately; the stream runs until Stop. st must be a durable store
// whose state is a prefix of the primary's history (fresh, bootstrapped
// by Bootstrap, or recovered from an earlier tail of the same primary).
func Start(st *trustmap.Store, primary string, opts ...Option) *Tailer {
	t := &Tailer{
		st:         st,
		primary:    primary,
		hc:         &http.Client{},
		minBackoff: DefaultMinBackoff,
		maxBackoff: DefaultMaxBackoff,
		logf:       func(string, ...any) {},
	}
	for _, o := range opts {
		o(t)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	t.done = make(chan struct{})
	go t.run(ctx)
	return t
}

// Stop ends the tail and waits for the streaming loop to exit: after
// Stop returns, no further replicated apply can land. Idempotent.
func (t *Tailer) Stop() {
	t.stop.Do(func() {
		t.cancel()
		<-t.done
	})
}

// PrimaryURL is the primary this tailer follows.
func (t *Tailer) PrimaryURL() string { return t.primary }

// Lag is the replication lag in WAL batches: the highest primary durable
// LSN observed minus the store's own logged LSN, floor zero. Zero before
// first contact — see Stats().Connected for whether that means "caught
// up" or "never heard from the primary".
func (t *Tailer) Lag() uint64 {
	seen, local := t.lastSeen.Load(), t.st.LSN()
	if seen <= local {
		return 0
	}
	return seen - local
}

// Stats snapshots the tail for /v1/stats.
func (t *Tailer) Stats() wire.ReplicationStats {
	t.mu.Lock()
	lastErr := t.lastErr
	t.mu.Unlock()
	return wire.ReplicationStats{
		Role:           "replica",
		Primary:        t.primary,
		Connected:      t.connected.Load(),
		LastSeenLSN:    t.lastSeen.Load(),
		Lag:            t.Lag(),
		AppliedBatches: t.applied.Load(),
		AppliedOps:     t.appliedOps.Load(),
		SkippedBatches: t.skipped.Load(),
		Reconnects:     t.reconnects.Load(),
		LastError:      lastErr,
	}
}

func (t *Tailer) setErr(err error) {
	t.mu.Lock()
	t.lastErr = err.Error()
	t.mu.Unlock()
	t.logf("replica: stream to %s: %v", t.primary, err)
}

// observe records a primary durable LSN learned from the stream.
func (t *Tailer) observe(lsn uint64) {
	for {
		cur := t.lastSeen.Load()
		if lsn <= cur || t.lastSeen.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// run is the reconnect loop: stream until it drops, back off, resume at
// the store's applied LSN. Progress resets the backoff.
func (t *Tailer) run(ctx context.Context) {
	defer close(t.done)
	backoff := t.minBackoff
	for {
		progressed, err := t.streamOnce(ctx)
		t.connected.Store(false)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			t.setErr(err)
			if errors.Is(err, ErrBootstrapRequired) {
				// Unhealable on a live store: stop hammering the primary;
				// surface the state and wait for an operator restart.
				backoff = t.maxBackoff
			}
		}
		if progressed {
			backoff = t.minBackoff
		}
		t.reconnects.Add(1)
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > t.maxBackoff {
			backoff = t.maxBackoff
		}
	}
}

// streamOnce opens one GET /v1/wal stream after the store's current LSN
// and applies batches until the stream ends. progressed reports whether
// any batch landed (backoff reset). A nil error is a clean end (server
// close or our own cancellation); errors are transport drops, tears,
// gaps, or the 410 bootstrap signal.
func (t *Tailer) streamOnce(ctx context.Context) (progressed bool, err error) {
	after := t.st.LSN()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		t.primary+"/v1/wal?after="+strconv.FormatUint(after, 10), nil)
	if err != nil {
		return false, err
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return false, fmt.Errorf("%w (primary at %s)", ErrBootstrapRequired, t.primary)
	default:
		return false, fmt.Errorf("primary answered %s to the wal stream", resp.Status)
	}
	if h := resp.Header.Get(wire.LSNHeader); h != "" {
		if n, perr := strconv.ParseUint(h, 10, 64); perr == nil {
			t.observe(n)
		}
	}
	t.connected.Store(true)
	dec := wal.NewDecoder(resp.Body)
	for {
		b, err := dec.Next()
		if err != nil {
			if err == io.EOF || ctx.Err() != nil {
				return progressed, nil
			}
			return progressed, err // torn mid-frame: reconnect and resume
		}
		t.observe(b.LSN)
		if len(b.Ops) == 0 {
			continue // heartbeat: lag refreshed, nothing to apply
		}
		res, aerr := t.st.ApplyReplicated(b)
		if res.Applied {
			t.applied.Add(1)
			t.appliedOps.Add(uint64(res.Ops))
			progressed = true
		} else if aerr == nil {
			t.skipped.Add(1)
		}
		if aerr != nil {
			return progressed, aerr
		}
	}
}

// Bootstrap prepares a replica data directory before OpenStore: fetch
// the primary's latest snapshot and install it (trustmap.InstallSnapshot)
// unless the local state already covers it. Reports whether a snapshot
// was installed and its watermark. A primary with no checkpoint yet
// answers 204 and the replica simply starts from its local state (LSN 0
// when fresh) — the WAL stream covers the full history.
func Bootstrap(ctx context.Context, dir, primary string, hc *http.Client) (installed bool, lsn uint64, err error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, primary+"/v1/snapshot", nil)
	if err != nil {
		return false, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNoContent:
		return false, 0, nil
	default:
		return false, 0, fmt.Errorf("replica: primary answered %s to the snapshot fetch", resp.Status)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, 0, err
	}
	lsn, err = trustmap.InstallSnapshot(dir, blob)
	if errors.Is(err, trustmap.ErrSnapshotStale) {
		return false, 0, nil // local state is at or past the snapshot
	}
	if err != nil {
		return false, 0, err
	}
	return true, lsn, nil
}

// Salvage ships a dead primary's WAL tail straight from its data
// directory into st: every durable batch above st's position applies
// through the same ApplyReplicated path the live stream uses, then the
// result is fsynced. Returns the batch count landed. Run it before
// promoting when the old primary's disk is reachable — async shipping
// means the replica may be a few batches behind the last acked-durable
// write, and this closes that gap to zero. The primary process must be
// dead: its WAL is opened (healing any torn tail, exactly as its own
// recovery would) and read directly. Open validates the whole log before
// Tail applies any of it: each applied batch lands in st's own WAL, so a
// prefix of a log that later proves corrupt must never be applied.
//
// If the directory's log no longer reaches back to st's position (the
// primary checkpointed and pruned past it), Salvage fails without
// applying a partial history; bootstrap a fresh replica from the
// snapshot instead.
func Salvage(primaryDir string, st *trustmap.Store) (int, error) {
	walDir := filepath.Join(primaryDir, "wal")
	log, err := wal.Open(walDir, 0, nil) // validate and heal only; apply nothing yet
	if err != nil {
		return 0, fmt.Errorf("replica: salvage open: %w", err)
	}
	upto := log.LastLSN()
	if err := log.Close(); err != nil {
		return 0, err
	}
	n := 0
	if err := wal.Tail(walDir, st.LSN(), upto, func(b wire.OpBatch) error {
		res, err := st.ApplyReplicated(b)
		if err != nil {
			return err
		}
		if res.Applied {
			n++
		}
		return nil
	}); err != nil {
		return n, fmt.Errorf("replica: salvage: %w", err)
	}
	if err := st.Sync(); err != nil {
		return n, err
	}
	return n, nil
}
