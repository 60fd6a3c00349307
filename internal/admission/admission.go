// Package admission is trustd's overload valve: a per-class concurrency
// limiter with a bounded FIFO wait queue and a queue-wait deadline. One
// Gate guards one request class (trustd keeps one for reads and one for
// mutations); a request either gets a slot immediately, waits its turn in
// the queue, or is shed with a computed Retry-After hint the HTTP layer
// turns into a 429.
//
// Shedding early is the point: an unbounded server accepts every
// connection, piles up goroutines, and slows EVERY request down until
// timeouts fire at random. A bounded gate keeps the work in flight
// constant, bounds queue memory, and converts overload into a fast,
// explicit, retryable signal — the client knows within a queue-timeout
// whether it should back off.
//
// All counters are deterministic (no wall clocks): admitted, queued,
// shed, canceled, and the high-water queue depth, so overload tests and
// the loadgen SLO gate can assert exact conservation —
//
//	Admitted + Shed + Canceled == every Acquire call that returned.
//
// A Gate is safe for concurrent use.
package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Config bounds one Gate.
type Config struct {
	// MaxConcurrent is the number of requests admitted simultaneously.
	// Zero or negative disables limiting: every Acquire admits at once
	// (the queue and its deadline are then never used).
	MaxConcurrent int
	// MaxQueue is how many requests may wait for a slot beyond the
	// MaxConcurrent in flight. Zero or negative means no waiting at all:
	// with every slot busy, Acquire sheds immediately.
	MaxQueue int
	// QueueTimeout bounds one request's wait in the queue; waiting past
	// it sheds. Zero or negative leaves the wait bounded only by the
	// request context. A queue deadline keeps shed latency predictable:
	// the client learns to back off within QueueTimeout instead of
	// burning its whole request budget in line.
	QueueTimeout time.Duration
}

// ErrShed is the base error of every load-shedding rejection (queue full
// or queue-wait deadline). The HTTP layer maps it to 429 Too Many
// Requests; a caller context expiring in the queue is NOT a shed — it
// surfaces as the context's own error.
var ErrShed = errors.New("admission: shed")

// ShedError is a load-shedding rejection: the queue was full, or the
// queue-wait deadline passed. It wraps ErrShed.
type ShedError struct {
	// Reason distinguishes the two shed paths: "queue full" (instant
	// overflow) and "queue timeout" (waited QueueTimeout without a slot).
	Reason string
	// RetryAfter is the computed back-off hint: roughly how long the
	// current queue needs to drain, derived from queue depth and slot
	// count (deterministic — no wall clocks, no rate estimation).
	RetryAfter time.Duration
}

// Error describes the shed request and the queue state that caused it.
func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: shed (%s), retry after %s", e.Reason, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrShed) match every shed decision.
func (e *ShedError) Unwrap() error { return ErrShed }

// Stats are one Gate's deterministic counters since creation. They
// convert to wire.AdmissionClassStats in /v1/stats, so the two field
// lists must stay identical.
type Stats struct {
	Admitted      uint64 // Acquire calls that got a slot (immediately or from the queue)
	Queued        uint64 // Acquire calls that waited in the queue (admitted or not)
	Shed          uint64 // Acquire calls rejected: queue full or queue-wait deadline
	Canceled      uint64 // Acquire calls whose caller context expired while queued
	MaxQueueDepth int    // high-water mark of the wait queue
	InFlight      int    // currently admitted
	QueueDepth    int    // currently waiting
}

// waiter is one queued Acquire. granted flips under the gate mutex when a
// release hands the waiter its slot; the channel close wakes it.
type waiter struct {
	ch      chan struct{}
	granted bool
}

// Gate is one request class's admission valve. The zero value is not
// usable; construct with New. A nil *Gate admits everything and counts
// nothing, so optional gating needs no branches at call sites.
type Gate struct {
	cfg Config

	mu       sync.Mutex
	inflight int
	queue    []*waiter // FIFO; head at index 0
	stats    Stats
}

// New returns a Gate enforcing cfg.
func New(cfg Config) *Gate { return &Gate{cfg: cfg} }

// Acquire claims a slot, waiting in the bounded FIFO queue when all slots
// are busy. On success it returns the release function, which MUST be
// called exactly once when the request finishes. On failure the error is
// a *ShedError (queue full or queue-wait deadline; wraps ErrShed) or the
// context's error if ctx expired while waiting.
func (g *Gate) Acquire(ctx context.Context) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	g.mu.Lock()
	if g.cfg.MaxConcurrent <= 0 || g.inflight < g.cfg.MaxConcurrent {
		g.inflight++
		g.stats.Admitted++
		g.mu.Unlock()
		return g.release, nil
	}
	if len(g.queue) >= g.cfg.MaxQueue {
		g.stats.Shed++
		serr := &ShedError{Reason: "queue full", RetryAfter: g.retryAfterLocked()}
		g.mu.Unlock()
		return nil, serr
	}
	w := &waiter{ch: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.stats.Queued++
	if len(g.queue) > g.stats.MaxQueueDepth {
		g.stats.MaxQueueDepth = len(g.queue)
	}
	g.mu.Unlock()

	var timeout <-chan time.Time
	if g.cfg.QueueTimeout > 0 {
		t := time.NewTimer(g.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-w.ch:
		g.mu.Lock()
		g.stats.Admitted++
		g.mu.Unlock()
		return g.release, nil
	case <-timeout:
		if err := g.abandon(w, true); err != nil {
			return nil, err
		}
		// The grant raced the timer and won: the slot is ours after all.
		return g.release, nil
	case <-ctx.Done():
		if err := g.abandon(w, false); err != nil {
			return nil, ctx.Err()
		}
		return g.release, nil
	}
}

// abandon withdraws a waiter that stopped waiting (timeout or context).
// If the grant already happened the withdrawal loses the race: abandon
// returns nil and the caller proceeds as admitted. Otherwise the waiter
// is removed from the queue and the call is counted as shed (timeout) or
// canceled (context); for timeouts the returned *ShedError carries the
// Retry-After hint.
func (g *Gate) abandon(w *waiter, timedOut bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.granted {
		g.stats.Admitted++
		return nil
	}
	for i, q := range g.queue {
		if q == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			break
		}
	}
	if timedOut {
		g.stats.Shed++
		return &ShedError{Reason: "queue timeout", RetryAfter: g.retryAfterLocked()}
	}
	g.stats.Canceled++
	return errors.New("admission: context expired while queued") // caller substitutes ctx.Err()
}

// release frees one slot, handing it to the oldest waiter if any.
func (g *Gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.queue) > 0 {
		w := g.queue[0]
		g.queue = g.queue[1:]
		w.granted = true
		close(w.ch) // slot transfers: inflight stays
		return
	}
	g.inflight--
}

// retryAfterLocked computes the shed back-off hint from current state:
// one second per full queue's worth of work ahead, so a deeper queue asks
// for a longer back-off. Deterministic — derived from counts only — and
// capped so a pathological queue never asks a client to sleep forever.
func (g *Gate) retryAfterLocked() time.Duration {
	slots := g.cfg.MaxConcurrent
	if slots < 1 {
		slots = 1
	}
	secs := 1 + len(g.queue)/slots
	if secs > 8 {
		secs = 8
	}
	return time.Duration(secs) * time.Second
}

// Stats returns a snapshot of the gate's counters. A nil Gate reports
// zeros.
func (g *Gate) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.stats
	s.InFlight = g.inflight
	s.QueueDepth = len(g.queue)
	return s
}
