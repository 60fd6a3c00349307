package serve

import (
	"sync"
	"testing"
)

func TestPublishAcquireRelease(t *testing.T) {
	p := NewPublisher("a")
	e := p.Acquire()
	if got := e.Value(); got != "a" {
		t.Fatalf("Value = %q, want a", got)
	}
	if e.Seq() != 1 {
		t.Fatalf("initial Seq = %d, want 1", e.Seq())
	}
	if seq := p.Publish("b"); seq != 2 {
		t.Fatalf("Publish seq = %d, want 2", seq)
	}
	// The pinned epoch still serves its old value after being retired.
	if got := e.Value(); got != "a" {
		t.Fatalf("retired epoch Value = %q, want a", got)
	}
	e.Release()
	e2 := p.Acquire()
	defer e2.Release()
	if got, seq := e2.Value(), e2.Seq(); got != "b" || seq != 2 {
		t.Fatalf("current epoch = (%q, %d), want (b, 2)", got, seq)
	}
}

func TestReclaimFiresOncePerRetiredEpoch(t *testing.T) {
	p := NewPublisher(0)
	// No readers: each publish retires the previous epoch, which drains
	// immediately on the publisher's own release.
	for want := uint64(1); want <= 2; want++ {
		p.Publish(int(want))
		if got := p.Stats().Reclaimed; got != want {
			t.Fatalf("Reclaimed after publish %d = %d, want %d", want, got, want)
		}
	}
	st := p.Stats()
	if st.Published != 3 || st.Reclaimed != 2 || st.Seq != 3 {
		t.Fatalf("stats = %+v, want Published 3, Reclaimed 2, Seq 3", st)
	}
}

func TestReclaimWaitsForReaders(t *testing.T) {
	p := NewPublisher(0)
	e := p.Acquire()
	p.Publish(1)
	if p.Stats().Reclaimed != 0 {
		t.Fatal("epoch reclaimed while a reader still pins it")
	}
	e.Release()
	if p.Stats().Reclaimed != 1 {
		t.Fatal("epoch not reclaimed after its last reader released")
	}
}

func TestReadersGauge(t *testing.T) {
	p := NewPublisher("x")
	e1, e2 := p.Acquire(), p.Acquire()
	if got := p.Stats().Readers; got != 2 {
		t.Fatalf("Readers = %d, want 2", got)
	}
	e1.Release()
	e2.Release()
	if got := p.Stats().Readers; got != 0 {
		t.Fatalf("Readers = %d, want 0", got)
	}
}

// TestConcurrentPublishOrdered checks the Publish contract for racing
// writers: sequence numbers and the pointer swap move together, so after
// n publishes from any number of goroutines the current epoch carries
// the highest sequence number and every retired epoch drained.
func TestConcurrentPublishOrdered(t *testing.T) {
	const writers, each = 4, 200
	p := NewPublisher(0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p.Publish(i)
			}
		}()
	}
	wg.Wait()
	want := uint64(writers*each + 1) // the initial epoch is seq 1
	if got := p.Seq(); got != want {
		t.Fatalf("Seq = %d, want %d (current epoch must hold the highest seq)", got, want)
	}
	st := p.Stats()
	if st.Published != want || st.Reclaimed != want-1 {
		t.Fatalf("stats = %+v, want Published %d, Reclaimed %d", st, want, want-1)
	}
}

// TestConcurrentAcquirePublish hammers Acquire/Release from many readers
// while a writer keeps publishing: every read must observe a published
// value consistent with its sequence number, sequence numbers must be
// non-decreasing per reader, and after quiescence every retired epoch
// must have been reclaimed exactly once.
func TestConcurrentAcquirePublish(t *testing.T) {
	const (
		readers   = 8
		publishes = 500
		readsEach = 2000
	)
	p := NewPublisher(uint64(1))
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for i := 0; i < readsEach; i++ {
				e := p.Acquire()
				if e.Value() != e.Seq() {
					t.Errorf("torn read: seq %d carries value %d", e.Seq(), e.Value())
				}
				if e.Seq() < last {
					t.Errorf("sequence went backwards: %d after %d", e.Seq(), last)
				}
				last = e.Seq()
				e.Release()
			}
		}()
	}
	for i := 0; i < publishes; i++ {
		// Values track sequence numbers so readers can detect tearing.
		p.Publish(uint64(i) + 2)
	}
	wg.Wait()
	st := p.Stats()
	if st.Published != publishes+1 {
		t.Fatalf("Published = %d, want %d", st.Published, publishes+1)
	}
	// All epochs but the current one retired with no readers left.
	if want := uint64(publishes); st.Reclaimed != want {
		t.Fatalf("reclaimed %d, want %d", st.Reclaimed, want)
	}
}

func TestRebase(t *testing.T) {
	p := NewPublisher[uint64](1) // epoch 1
	p.Rebase(90)
	if got := p.Seq(); got != 1 {
		t.Fatalf("Rebase published something: Seq = %d, want 1 (unchanged)", got)
	}
	if seq := p.Publish(2); seq != 91 {
		t.Fatalf("post-rebase publish seq = %d, want 91", seq)
	}
	// Rebase never lowers the counter.
	p.Rebase(5)
	if seq := p.Publish(3); seq != 92 {
		t.Fatalf("publish after no-op rebase seq = %d, want 92", seq)
	}
}
