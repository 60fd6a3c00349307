package trustmap

// Concurrency integration tests for the epoch-served plan a Store
// maintains. Before the epoch layer, the compiled artifact was documented
// single-goroutine: Apply spliced the CSR tables in place underneath
// readers, so a batch resolve racing a trust mutation could observe torn
// state. These tests are the regression bound for that caveat — they run
// under `make race` in CI and must stay race-clean.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSessionConcurrentReadWriteEpochConsistency hammers a store with
// resolver goroutines while a writer keeps re-wiring which root a chain
// of users follows. Every batch atomically moves the chain from one root
// to the other, so any self-consistent epoch gives the two chained
// readers the SAME certain value; a torn read (one user resolved against
// the old wiring, the next against the new) would split them. Epoch
// sequence numbers must also never go backwards within one goroutine.
func TestSessionConcurrentReadWriteEpochConsistency(t *testing.T) {
	n := New()
	n.SetBelief("rootOne", "one")
	n.SetBelief("rootTwo", "two")
	n.AddTrust("relay", "rootOne", 10)
	n.AddTrust("chainB", "relay", 10)
	n.AddTrust("chainC", "chainB", 10)
	s, err := n.NewStore(WithWorkers(1), WithMaxDirtyFraction(1))
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers   = 4
		readsEach = 250
	)
	var readersDone atomic.Bool
	var batches atomic.Int64
	var readersWG, writerWG sync.WaitGroup

	// The writer keeps toggling the chain's root — one atomic batch, one
	// epoch each — until every reader has finished, so reads and
	// publications genuinely overlap for the whole test.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; !readersDone.Load(); i++ {
			from, to := "rootOne", "rootTwo"
			if i%2 == 1 {
				from, to = to, from
			}
			err := s.Update(func(tx *StoreTx) error {
				if ok, _ := tx.RemoveTrust("relay", from); !ok {
					return fmt.Errorf("batch %d: edge relay->%s missing", i, from)
				}
				return tx.AddTrust("relay", to, 10)
			})
			if err != nil {
				t.Error(err)
				return
			}
			batches.Add(1)
		}
	}()

	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(id int) {
			defer readersWG.Done()
			var lastEpoch uint64
			for i := 0; i < readsEach; i++ {
				res, err := s.Resolve(context.Background(), nil)
				if err != nil {
					t.Errorf("reader %d: %v", id, err)
					return
				}
				e := res.Epoch()
				if e < lastEpoch {
					t.Errorf("reader %d: epoch went backwards: %d after %d", id, e, lastEpoch)
					return
				}
				lastEpoch = e
				b, okB := res.Certain("chainB")
				c, okC := res.Certain("chainC")
				if !okB || !okC || b != c || (b != "one" && b != "two") {
					t.Errorf("reader %d: torn epoch: chainB=%q,%v chainC=%q,%v", id, b, okB, c, okC)
					return
				}
			}
		}(r)
	}
	readersWG.Wait()
	readersDone.Store(true)
	writerWG.Wait()

	if batches.Load() == 0 {
		t.Fatal("no write batches completed")
	}
	// Quiescent now: every retired epoch's readers have drained, so all
	// generations but the live one must have been reclaimed.
	st := s.Stats()
	if st.Epoch < uint64(batches.Load()) {
		t.Fatalf("epoch %d after %d batches", st.Epoch, batches.Load())
	}
	if st.EpochsReclaimed != st.Epoch-1 {
		t.Fatalf("reclaimed %d epochs of %d retired", st.EpochsReclaimed, st.Epoch-1)
	}
	t.Logf("%d reads across %d epochs, %d reclaimed", readers*readsEach, st.Epoch, st.EpochsReclaimed)
}

// TestSessionConcurrentMutateResolveRegression is the former caveat as a
// regression test: ResolveBatch racing AddTrust/RemoveTrust — including
// mutations that grow the user set, which re-snapshot the name index —
// must stay race-clean and serve well-formed results. Stats and
// EpochStats readers ride along, as a monitoring endpoint would.
func TestSessionConcurrentMutateResolveRegression(t *testing.T) {
	n := New()
	n.SetBelief("hub", "v")
	n.AddTrust("spoke", "hub", 5)
	s, err := n.NewStore(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	objects := map[string]map[string]string{
		"obj1": {"hub": "x"},
		"obj2": {"hub": "y"},
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for !done.Load() {
				rows, err := s.ResolveBatch(context.Background(), objects)
				if err != nil {
					t.Errorf("reader %d: %v", id, err)
					return
				}
				if len(rows) != len(objects) {
					t.Errorf("reader %d: %d rows for %d objects", id, len(rows), len(objects))
					return
				}
				for _, row := range rows {
					poss, _, err := row.Lookup("spoke")
					if err != nil || len(poss) != 1 {
						t.Errorf("reader %d: lookup(spoke, %s) = %v, %v", id, row.Object, poss, err)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			if st := s.Stats(); st.Compiles < 1 {
				t.Error("stats reader: no compile recorded")
				return
			}
			if _, es := s.EpochStats(); es.Users == 0 {
				t.Error("stats reader: empty engine stats")
				return
			}
		}
	}()

	for i := 0; i < 60; i++ {
		fan := fmt.Sprintf("fan%d", i)
		if err := txAddTrust(s, fan, "hub", 5); err != nil { // grows the user set
			t.Fatal(err)
		}
		if i%3 == 0 {
			if ok, err := s.RemoveTrust(context.Background(), fan, "hub"); err != nil || !ok {
				t.Fatalf("edge %s->hub missing: ok=%v err=%v", fan, ok, err)
			}
		}
	}
	done.Store(true)
	wg.Wait()
}

// TestStoreUsersConcurrentWithWriters lists users while a writer keeps
// adding fresh ones: Users reads the published epoch's frozen name index,
// never the writer's live network, so it is race-clean, sorted, and
// includes every name whose write has returned.
func TestStoreUsersConcurrentWithWriters(t *testing.T) {
	s, err := NewStore(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	const writes = 200
	fresh := func(i int) string { return fmt.Sprintf("fresh%03d", i) }
	var written atomic.Int64 // names fresh(0..written-1) have returned
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if err := s.SetTrust(context.Background(), fresh(i), "hub", 1); err != nil {
				t.Error(err)
				return
			}
			written.Store(int64(i + 1))
		}
	}()
	check := func() error {
		k := int(written.Load())
		users := s.Users()
		if !slices.IsSorted(users) {
			return fmt.Errorf("users not sorted: %v", users)
		}
		for i := 0; i < k; i++ {
			if _, ok := slices.BinarySearch(users, fresh(i)); !ok {
				return fmt.Errorf("users miss %q, whose write returned", fresh(i))
			}
		}
		return nil
	}
	for written.Load() < writes && !t.Failed() {
		if err := check(); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	if err := check(); err != nil {
		t.Error(err)
	}
}
