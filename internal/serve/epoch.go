// Package serve implements epoch-based snapshot publication: the
// lock-free serving discipline that makes a compiled trust-mapping
// artifact safe to read from any number of goroutines while a writer
// keeps maintaining it.
//
// The paper's bulk setting compiles the object-independent structure of
// the network once and resolves arbitrarily many objects against that
// artifact; a production service additionally mutates the network while
// serving. The engine's Apply already produces a *successor* artifact and
// leaves results resolved against the base valid — copy-on-write over the
// clean rows — so the only missing piece is publication: making "the
// current artifact" a single atomic pointer that readers pin without
// blocking and writers swap without waiting for readers.
//
// A Publisher holds the current Epoch. Readers Acquire the current epoch
// (an atomic load plus a reference-count increment), resolve against its
// value, and Release it. A writer builds the next value off to the side
// and Publishes it: one atomic pointer swap retires the previous epoch.
// A retired epoch stays fully readable for the readers still pinning it;
// when the last reference drains, the epoch is reclaimed exactly once
// (counted in Stats().Reclaimed; the garbage collector does the actual
// freeing). Readers therefore never block on writers, writers
// never block on readers, and every read observes one self-consistent
// published generation.
package serve

import (
	"sync"
	"sync/atomic"
)

// Epoch is one published snapshot generation. Readers obtain epochs from
// Publisher.Acquire and must Release them when done; the value is
// immutable for the epoch's lifetime.
type Epoch[T any] struct {
	val T
	seq uint64

	// refs counts the readers pinning this epoch, plus one reference held
	// by the publisher while the epoch is current. retired flips when a
	// newer epoch supersedes this one; the epoch is reclaimed when it is
	// retired and refs drains to zero. drained makes that transition count
	// exactly once in reclaimed (the publisher's counter) even under
	// racing releases.
	refs      atomic.Int64
	retired   atomic.Bool
	drained   atomic.Bool
	reclaimed *atomic.Uint64
}

// Value returns the published snapshot. The returned value must be
// treated as immutable.
func (e *Epoch[T]) Value() T { return e.val }

// Seq returns the epoch's generation number: 1 for the initial value,
// increasing by one per Publish. Sequence numbers are totally ordered;
// two reads observing the same Seq observed the same snapshot.
func (e *Epoch[T]) Seq() uint64 { return e.seq }

// Release drops one reference. The last release of a retired epoch
// reclaims it. Release must be called exactly once per Acquire.
func (e *Epoch[T]) Release() {
	if e.refs.Add(-1) == 0 && e.retired.Load() && e.drained.CompareAndSwap(false, true) {
		e.reclaimed.Add(1)
	}
}

// PublisherStats counts what a publisher has done.
type PublisherStats struct {
	Seq       uint64 // current epoch's sequence number
	Published uint64 // epochs published, including the initial one
	Reclaimed uint64 // retired epochs whose reader count drained
	Readers   int64  // readers currently pinning the current epoch
}

// Publisher owns the current epoch of a snapshot-served value. Acquire
// and Release are safe from any number of goroutines and never block;
// Publish is safe from any number of goroutines too, though callers
// normally serialize writers externally so successive snapshots build on
// each other.
type Publisher[T any] struct {
	cur       atomic.Pointer[Epoch[T]]
	pmu       sync.Mutex // orders concurrent Publish calls: seq and swap move together
	seq       uint64     // guarded by pmu
	published atomic.Uint64
	reclaimed atomic.Uint64
}

// NewPublisher returns a publisher serving initial as epoch 1.
func NewPublisher[T any](initial T) *Publisher[T] {
	p := &Publisher[T]{}
	p.Publish(initial)
	return p
}

// Acquire pins and returns the current epoch. The caller must Release it.
func (p *Publisher[T]) Acquire() *Epoch[T] {
	for {
		e := p.cur.Load()
		if e.refs.Add(1) > 1 {
			if p.cur.Load() == e {
				return e
			}
			// Superseded between the load and the pin: drop the reference
			// (possibly the last one of the now-retired epoch) and retry
			// on the newer epoch.
			e.Release()
			continue
		}
		// refs was zero: the epoch drained between the load and the pin,
		// so its reclamation already fired. Undo the increment without
		// going through Release — the drain must not run twice — and
		// retry; cur has necessarily moved on.
		e.refs.Add(-1)
	}
}

// Publish swaps v in as the new current epoch and retires the previous
// one, returning the new sequence number. Retired epochs remain readable
// by the readers still pinning them and are reclaimed when they drain.
// Concurrent Publish calls are ordered by an internal mutex so sequence
// numbers and the pointer swap always move together; the last caller to
// swap holds the highest sequence number.
func (p *Publisher[T]) Publish(v T) uint64 {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	p.seq++
	e := &Epoch[T]{val: v, seq: p.seq, reclaimed: &p.reclaimed}
	e.refs.Store(1) // the publisher's reference, dropped on retirement
	old := p.cur.Swap(e)
	p.published.Add(1)
	if old != nil {
		old.retired.Store(true)
		old.Release()
	}
	return e.seq
}

// Seq returns the current epoch's sequence number without pinning it.
func (p *Publisher[T]) Seq() uint64 { return p.cur.Load().seq }

// Rebase raises the publisher's sequence counter so the NEXT Publish
// gets seq+1 at least `seq`+1. It never lowers the counter and does not
// publish anything itself. A recovered store rebases to the epoch
// recorded in its snapshot so post-restart epochs continue the pre-crash
// numbering — a client's "read-your-writes" epoch bound stays valid
// across the crash.
func (p *Publisher[T]) Rebase(seq uint64) {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	if seq > p.seq {
		p.seq = seq
	}
}

// Stats returns the publisher's counters. Readers is a point-in-time
// gauge of the current epoch and may be stale by the time it is read.
func (p *Publisher[T]) Stats() PublisherStats {
	cur := p.cur.Load()
	return PublisherStats{
		Seq:       cur.seq,
		Published: p.published.Load(),
		Reclaimed: p.reclaimed.Load(),
		Readers:   cur.refs.Load() - 1, // minus the publisher's reference
	}
}
