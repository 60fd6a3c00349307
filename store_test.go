package trustmap

// Store v2 tests: lifecycle, parity with the legacy read paths and
// Algorithm 1 on the paper's workload families, streaming-vs-batch
// equivalence, incremental cache invalidation, randomized mutation
// parity, and concurrent use (run under -race by make race).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"trustmap/internal/tn"
	"trustmap/internal/workload"
)

// facadeFromTN rebuilds a workload's internal network through the public
// facade, so store/session/legacy paths all start from identical state.
func facadeFromTN(src *tn.Network) *Network {
	n := New()
	for x := 0; x < src.NumUsers(); x++ {
		n.AddUser(src.Name(x))
	}
	for x := 0; x < src.NumUsers(); x++ {
		for _, m := range src.In(x) {
			n.AddTrust(src.Name(x), src.Name(m.Parent), m.Priority)
		}
	}
	for x := 0; x < src.NumUsers(); x++ {
		if src.HasExplicit(x) {
			n.SetBelief(src.Name(x), string(src.Explicit(x)))
		}
	}
	return n
}

// namedObjects converts workload.BulkObjects output to name-keyed belief
// maps.
func namedObjects(src *tn.Network, objs map[string]map[int]tn.Value) map[string]map[string]string {
	out := make(map[string]map[string]string, len(objs))
	for k, bs := range objs {
		m := make(map[string]string, len(bs))
		for id, v := range bs {
			m[src.Name(id)] = string(v)
		}
		out[k] = m
	}
	return out
}

func eqStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// byObject indexes batch rows by object key.
func byObject(rows []ObjectRow) map[string]ObjectRow {
	out := make(map[string]ObjectRow, len(rows))
	for _, row := range rows {
		out[row.Object] = row
	}
	return out
}

// storeFromObjects builds a store over a fresh facade copy of src and
// stores the objects.
func storeFromObjects(t *testing.T, src *tn.Network, objects map[string]map[string]string, opts ...StoreOption) *Store {
	t.Helper()
	st, err := facadeFromTN(src).NewStore(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for k, bs := range objects {
		if err := st.PutObject(ctx, k, bs); err != nil {
			t.Fatalf("PutObject(%s): %v", k, err)
		}
	}
	return st
}

// TestStoreParityWorkloads is the acceptance check: stored-object reads
// must equal the ad-hoc ResolveBatch path and the from-scratch
// bulkResolveFresh oracle — and Algorithm 1 itself — on the PowerLaw,
// NestedSCC, and Fig19
// workload families, for every (user, object).
func TestStoreParityWorkloads(t *testing.T) {
	domain := []tn.Value{"fish", "knot", "cow", "jar"}
	workloads := map[string]*tn.Network{
		"PowerLaw":  workload.PowerLaw(rand.New(rand.NewSource(3)), 150, 3, 0.15, domain),
		"NestedSCC": workload.NestedSCC(4),
	}
	fig19, _ := workload.Fig19()
	workloads["Fig19"] = fig19

	for name, src := range workloads {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var rootIDs []int
			for x := 0; x < src.NumUsers(); x++ {
				if src.HasExplicit(x) {
					rootIDs = append(rootIDs, x)
				}
			}
			objects := namedObjects(src, workload.BulkObjects(rng, rootIDs, 25))
			rootNames := make([]string, len(rootIDs))
			for i, id := range rootIDs {
				rootNames[i] = src.Name(id)
			}

			ctx := context.Background()
			legacyNet := facadeFromTN(src)
			legacyRows, err := legacyNet.bulkResolveFresh(ctx, objects, 2)
			if err != nil {
				t.Fatal(err)
			}
			adhoc, err := facadeFromTN(src).NewStore(WithWorkers(2), WithExtraRoots(rootNames...))
			if err != nil {
				t.Fatal(err)
			}
			batchRows, err := adhoc.ResolveBatch(ctx, objects)
			if err != nil {
				t.Fatal(err)
			}
			st := storeFromObjects(t, src, objects, WithWorkers(2))
			storeRows, err := st.ResolveAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			legacy, viaBatch, viaStore := byObject(legacyRows), byObject(batchRows), byObject(storeRows)

			users := legacyNet.Users()
			for k := range objects {
				for _, u := range users {
					want := legacy[k].Possible(u)
					if got := viaBatch[k].Possible(u); !eqStrs(got, want) {
						t.Fatalf("%s/%s: ad-hoc batch %v vs legacy %v", u, k, got, want)
					}
					if got := viaStore[k].Possible(u); !eqStrs(got, want) {
						t.Fatalf("%s/%s: store %v vs legacy %v", u, k, got, want)
					}
					wc, wok := legacy[k].Certain(u)
					if gc, gok := viaStore[k].Certain(u); gc != wc || gok != wok {
						t.Fatalf("cert %s/%s: store %q,%v vs legacy %q,%v", u, k, gc, gok, wc, wok)
					}
				}
			}

			// Algorithm 1 ground truth on a handful of objects: set the
			// object's beliefs as network beliefs and run the one-object
			// Resolution Algorithm.
			checked := 0
			for k, bs := range objects {
				if checked == 5 {
					break
				}
				checked++
				ref := facadeFromTN(src)
				for user, v := range bs {
					ref.SetBelief(user, v)
				}
				res, err := ref.Resolve()
				if err != nil {
					t.Fatal(err)
				}
				for _, u := range users {
					if got, want := viaStore[k].Possible(u), res.Possible(u); !eqStrs(got, want) {
						t.Fatalf("%s/%s: store %v vs Algorithm 1 %v", u, k, got, want)
					}
				}
			}
		})
	}
}

// TestStoreStreamingMatchesBatch asserts the Resolved iterator yields
// exactly the batch result set, row for row, across the chunking
// boundary (more objects than one streaming chunk).
func TestStoreStreamingMatchesBatch(t *testing.T) {
	src := workload.PowerLaw(rand.New(rand.NewSource(5)), 30, 2, 0.3, []tn.Value{"v", "w"})
	var rootIDs []int
	for x := 0; x < src.NumUsers(); x++ {
		if src.HasExplicit(x) {
			rootIDs = append(rootIDs, x)
		}
	}
	// Cross the chunk boundary so the stream runs several batches.
	objects := namedObjects(src, workload.BulkObjects(rand.New(rand.NewSource(6)), rootIDs, resolvedChunkSize+40))
	st := storeFromObjects(t, src, objects, WithWorkers(2))
	ctx := context.Background()

	batch, err := st.ResolveAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	users := st.Users()
	i := 0
	for row, err := range st.Resolved(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(batch) || row.Object != batch[i].Object {
			t.Fatalf("stream row %d is %s: keys differ from the batch or its order", i, row.Object)
		}
		if row.Epoch() != batch[i].Epoch() {
			t.Fatalf("row %s epoch %d != batch epoch %d", row.Object, row.Epoch(), batch[i].Epoch())
		}
		for _, u := range users {
			if got, want := row.Possible(u), batch[i].Possible(u); !eqStrs(got, want) {
				t.Fatalf("%s/%s: stream %v vs batch %v", u, row.Object, got, want)
			}
		}
		i++
	}
	if i != len(batch) {
		t.Fatalf("streamed %d rows, batch has %d", i, len(batch))
	}

	// Early break must not wedge the store: mutations and reads proceed.
	seen := 0
	for _, err := range st.Resolved(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if seen++; seen == 3 {
			break
		}
	}
	if err := st.SetTrust(ctx, "u1", "u0", 9); err != nil {
		t.Fatalf("mutation after early break: %v", err)
	}
	if _, err := st.ResolveAll(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRowReaderMatchesLookup holds the column-wise reader to the
// per-call accessors on every (row, user) cell of a cold stream that
// crosses the chunk boundary: same possible sets, same certain value,
// the stored beliefs, and no row for a user the network does not know.
func TestRowReaderMatchesLookup(t *testing.T) {
	src := workload.PowerLaw(rand.New(rand.NewSource(8)), 20, 2, 0.3, []tn.Value{"v", "w", "x"})
	var rootIDs []int
	for x := 0; x < src.NumUsers(); x++ {
		if src.HasExplicit(x) {
			rootIDs = append(rootIDs, x)
		}
	}
	objects := namedObjects(src, workload.BulkObjects(rand.New(rand.NewSource(9)), rootIDs, resolvedChunkSize+10))
	st := storeFromObjects(t, src, objects, WithWorkers(2))
	ctx := context.Background()

	users := append(st.Users(), "ghost")
	rd := NewRowReader(users)
	for row, err := range st.Resolved(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if err := rd.Reset(row); err != nil {
			t.Fatal(err)
		}
		for i, u := range users {
			certain, n, ok := rd.Lookup(i)
			possible, wantCertain, err := row.Lookup(u)
			if ok != (err == nil) {
				t.Fatalf("%s/%s: reader ok=%v, Lookup err=%v", row.Object, u, ok, err)
			}
			if !ok {
				continue
			}
			if got := rd.AppendPossible(nil, i); !eqStrs(got, possible) || n != len(possible) || certain != wantCertain {
				t.Fatalf("%s/%s: reader %v (n=%d, certain %q) vs Lookup %v (certain %q)", row.Object, u, got, n, certain, possible, wantCertain)
			}
			want, wantStated := objects[row.Object][u]
			if got, stated := rd.Belief(i); got != want || stated != wantStated {
				t.Fatalf("%s/%s: reader belief %q/%v, stored %q/%v", row.Object, u, got, stated, want, wantStated)
			}
		}
	}
	if err := rd.Reset(ObjectRow{Object: "nowhere"}); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("Reset(zero row) = %v, want ErrUnknownObject", err)
	}
}

// TestResolvedRowPinsItsBeliefs: a row pulled off the stream keeps the
// beliefs its resolution was computed from, whatever is written to the
// object while the consumer still holds the row.
func TestResolvedRowPinsItsBeliefs(t *testing.T) {
	n := New()
	n.AddTrust("alice", "bob", 100)
	st, err := n.NewStore(WithExtraRoots("bob"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, key := range []string{"o1", "o2"} {
		if err := st.PutObject(ctx, key, map[string]string{"bob": "fish"}); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewRowReader([]string{"alice", "bob"})
	for row, err := range st.Resolved(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutBelief(ctx, "bob", row.Object, "cow"); err != nil {
			t.Fatal(err)
		}
		if err := rd.Reset(row); err != nil {
			t.Fatal(err)
		}
		belief, stated := rd.Belief(1)
		if certain, _, _ := rd.Lookup(0); !stated || belief != "fish" || certain != "fish" {
			t.Fatalf("%s: row reads belief %q (stated %v), certain(alice) %q; want the pinned fish/fish", row.Object, belief, stated, certain)
		}
	}
	if _, certain, err := st.Get(ctx, "alice", "o1"); err != nil || certain != "cow" {
		t.Fatalf("after the stream: certain(alice, o1) = %q, %v; want cow", certain, err)
	}
}

// TestStoreScanRefillsCache: a store that is only ever scanned resolves
// each object once — the stream refills the per-object cache like the
// batch reads do, and the hit/miss counters say so.
func TestStoreScanRefillsCache(t *testing.T) {
	n := New()
	n.AddTrust("alice", "bob", 100)
	n.SetBelief("bob", "fish")
	st, err := n.NewStore(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const numObjects = 6
	for i := 0; i < numObjects; i++ {
		if err := st.PutObject(ctx, fmt.Sprintf("o%d", i), map[string]string{"bob": "knot"}); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() (hits, misses uint64) {
		for _, err := range st.Resolved(ctx) {
			if err != nil {
				t.Fatal(err)
			}
		}
		s := st.Stats()
		return s.CacheHits, s.CacheMisses
	}
	if h, m := scan(); h != 0 || m != numObjects {
		t.Fatalf("first scan: hits=%d misses=%d, want 0/%d", h, m, numObjects)
	}
	if h, m := scan(); h != numObjects || m != numObjects {
		t.Fatalf("second scan: hits=%d misses=%d, want %d/%d (all cached)", h, m, numObjects, numObjects)
	}
	if err := st.PutBelief(ctx, "bob", "o2", "cow"); err != nil {
		t.Fatal(err)
	}
	if h, m := scan(); h != 2*numObjects-1 || m != numObjects+1 {
		t.Fatalf("scan after one PutBelief: hits=%d misses=%d, want %d/%d (one object dirty)", h, m, 2*numObjects-1, numObjects+1)
	}
}

// TestOldEpochReaderDoesNotRefill streams more than one chunk of objects
// at a pinned epoch while a trust write and a read at the next epoch land
// between two chunks: the stream keeps serving its own epoch, and its
// later chunks must not replace the newer read's resolution with one of
// the superseded epoch. The newer read resolves o0000, which the stream
// resolved before it, and the last object, which the stream resolves
// after it: both keep the newer resolution and stay hits at that epoch,
// and every other object keeps the stream's.
func TestOldEpochReaderDoesNotRefill(t *testing.T) {
	n := New()
	n.AddTrust("alice", "bob", 100)
	n.SetBelief("bob", "fish")
	st, err := n.NewStore(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	numObjects := resolvedChunkSize + 8
	newer := []string{"o0000", fmt.Sprintf("o%04d", numObjects-1)}
	for i := 0; i < numObjects; i++ {
		if err := st.PutObject(ctx, fmt.Sprintf("o%04d", i), map[string]string{"bob": "knot"}); err != nil {
			t.Fatal(err)
		}
	}
	pinned := st.Epoch()
	rows := 0
	for row, err := range st.Resolved(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if row.Epoch() != pinned {
			t.Fatalf("row %s at epoch %d, want the pinned %d", row.Object, row.Epoch(), pinned)
		}
		if rows == 0 {
			if err := st.SetTrust(ctx, "carol", "alice", 5); err != nil {
				t.Fatal(err)
			}
			for _, k := range newer {
				if _, err := st.ResolveObject(ctx, k); err != nil {
					t.Fatal(err)
				}
			}
		}
		rows++
	}
	if rows != numObjects {
		t.Fatalf("streamed %d rows, want %d", rows, numObjects)
	}
	cur := st.Epoch()
	st.mu.RLock()
	for k, rec := range st.objects {
		want := pinned
		if slices.Contains(newer, k) {
			want = cur
		}
		if rec.epoch != want {
			t.Errorf("record %s resolved at epoch %d after the stream, want %d", k, rec.epoch, want)
		}
	}
	st.mu.RUnlock()
	for _, k := range newer {
		before := st.Stats()
		if row, err := st.ResolveObject(ctx, k); err != nil || row.Epoch() != cur {
			t.Fatalf("ResolveObject(%s) = epoch %d, %v; want epoch %d", k, row.Epoch(), err, cur)
		}
		if after := st.Stats(); after.CacheHits != before.CacheHits+1 || after.CacheMisses != before.CacheMisses {
			t.Errorf("ResolveObject(%s) after the stream was not a hit: before %+v, after %+v", k, before, after)
		}
	}
}

// TestOlderReadKeepsNewerRecord: a read pinned at an older epoch that
// captured a record resolved at a newer one (capture's bounded retry can
// end that way) answers at its own epoch but leaves the newer record
// installed, so a read at the newer epoch stays a hit.
func TestOlderReadKeepsNewerRecord(t *testing.T) {
	n := New()
	n.AddTrust("alice", "bob", 100)
	n.SetBelief("bob", "fish")
	st, err := n.NewStore(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := st.PutObject(ctx, "o", map[string]string{"bob": "knot"}); err != nil {
		t.Fatal(err)
	}
	old, err := st.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer old.Release()
	if err := st.SetTrust(ctx, "carol", "alice", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ResolveObject(ctx, "o"); err != nil {
		t.Fatal(err)
	}
	cur := st.Epoch()
	st.mu.RLock()
	rec := st.objects["o"]
	st.mu.RUnlock()
	p := pinned{e: old, rows: []ObjectRow{{Object: "o", rec: rec, snap: old.Value()}}}
	if err := st.fill(ctx, p, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := p.rows[0].Epoch(); got != old.Seq() {
		t.Fatalf("the older read answered at epoch %d, want its own %d", got, old.Seq())
	}
	st.mu.RLock()
	kept := st.objects["o"]
	st.mu.RUnlock()
	if kept != rec || kept.epoch != cur {
		t.Fatalf("record at epoch %d after the older read, want the newer one at %d kept", kept.epoch, cur)
	}
}

// TestStoreIncrementalInvalidation pins the incremental-maintenance
// contract: a belief mutation re-resolves only the touched object, a
// trust mutation invalidates everything (new epoch), and untouched reads
// serve from the cache.
func TestStoreIncrementalInvalidation(t *testing.T) {
	n := New()
	n.AddTrust("alice", "bob", 100)
	n.AddTrust("alice", "carol", 50)
	n.SetBelief("bob", "fish")
	n.SetBelief("carol", "knot")
	st, err := n.NewStore(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const numObjects = 8
	for i := 0; i < numObjects; i++ {
		if err := st.PutObject(ctx, fmt.Sprintf("o%d", i), map[string]string{"bob": fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	counters := func() (uint64, uint64) {
		s := st.Stats()
		return s.CacheHits, s.CacheMisses
	}

	if _, err := st.ResolveAll(ctx); err != nil {
		t.Fatal(err)
	}
	_, m1 := counters()
	if m1 != numObjects {
		t.Fatalf("first ResolveAll: misses = %d, want %d", m1, numObjects)
	}
	if _, err := st.ResolveAll(ctx); err != nil {
		t.Fatal(err)
	}
	h2, m2 := counters()
	if m2 != m1 || h2 != numObjects {
		t.Fatalf("clean ResolveAll: hits=%d misses=%d, want %d/%d", h2, m2, numObjects, m1)
	}

	// One belief mutation: exactly one object re-resolves.
	if err := st.PutBelief(ctx, "bob", "o3", "cow"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ResolveAll(ctx); err != nil {
		t.Fatal(err)
	}
	h3, m3 := counters()
	if m3 != m1+1 || h3 != h2+numObjects-1 {
		t.Fatalf("after PutBelief: hits=%d misses=%d, want %d/%d (one object dirty)", h3, m3, h2+numObjects-1, m1+1)
	}
	if poss, cert, err := st.Get(ctx, "alice", "o3"); err != nil || cert != "cow" {
		t.Fatalf("Get(alice, o3) = %v, %q, %v; want cow", poss, cert, err)
	}

	// A trust mutation publishes a new epoch: everything re-resolves, and
	// the new result is served (no stale cache).
	if err := st.SetTrust(ctx, "alice", "carol", 200); err != nil {
		t.Fatal(err)
	}
	if _, cert, err := st.Get(ctx, "alice", "o0"); err != nil || cert != "knot" {
		t.Fatalf("Get(alice, o0) after SetTrust = %q, %v; want knot (carol outranks bob)", cert, err)
	}
	if _, err := st.ResolveAll(ctx); err != nil {
		t.Fatal(err)
	}
	_, m4 := counters()
	if m4 != m3+numObjects {
		t.Fatalf("after SetTrust: misses=%d, want %d (all objects dirty)", m4, m3+numObjects)
	}
}

// TestStoreLifecycle covers the mutator surface end to end on a store
// grown from empty.
func TestStoreLifecycle(t *testing.T) {
	ctx := context.Background()
	st, err := NewStore(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := st.ResolveAll(ctx); err != nil || len(res) != 0 {
		t.Fatalf("empty store ResolveAll = %v, %v", res, err)
	}

	// First belief creates user, object, and root in one call.
	if err := st.PutBelief(ctx, "alice", "o1", "fish"); err != nil {
		t.Fatal(err)
	}
	if poss, cert, err := st.Get(ctx, "alice", "o1"); err != nil || cert != "fish" || !eqStrs(poss, []string{"fish"}) {
		t.Fatalf("Get(alice, o1) = %v, %q, %v", poss, cert, err)
	}

	// bob follows alice through a trust mapping added afterwards.
	if err := st.SetTrust(ctx, "bob", "alice", 10); err != nil {
		t.Fatal(err)
	}
	if _, cert, err := st.Get(ctx, "bob", "o1"); err != nil || cert != "fish" {
		t.Fatalf("Get(bob, o1) = %q, %v; want fish", cert, err)
	}
	// SetTrust is an upsert: re-prioritizing is not an error.
	if err := st.SetTrust(ctx, "bob", "alice", 20); err != nil {
		t.Fatal(err)
	}

	// Defaults cover objects that omit a root.
	if err := st.SetDefault(ctx, "alice", "knot"); err != nil {
		t.Fatal(err)
	}
	if err := st.PutObject(ctx, "o2", nil); err != nil {
		t.Fatal(err)
	}
	if _, cert, err := st.Get(ctx, "bob", "o2"); err != nil || cert != "knot" {
		t.Fatalf("Get(bob, o2) = %q, %v; want knot (default)", cert, err)
	}

	// DeleteBelief falls back to the default.
	if ok, err := st.DeleteBelief(ctx, "alice", "o1"); err != nil || !ok {
		t.Fatalf("DeleteBelief = %v, %v", ok, err)
	}
	if _, cert, _ := st.Get(ctx, "alice", "o1"); cert != "knot" {
		t.Fatalf("after DeleteBelief: cert = %q, want knot", cert)
	}
	if ok, _ := st.DeleteBelief(ctx, "alice", "o1"); ok {
		t.Fatal("double DeleteBelief must report false")
	}

	// Removing the default while objects rely on it surfaces assumption
	// (ii) as a resolve-time error.
	if err := st.DeleteDefault(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(ctx, "alice", "o2"); err == nil {
		t.Fatal("uncovered root must error (assumption ii)")
	}
	if err := st.PutBelief(ctx, "alice", "o1", "cow"); err != nil {
		t.Fatal(err)
	}
	if err := st.PutBelief(ctx, "alice", "o2", "jar"); err != nil {
		t.Fatal(err)
	}
	if _, cert, err := st.Get(ctx, "alice", "o2"); err != nil || cert != "jar" {
		t.Fatalf("Get(alice, o2) = %q, %v; want jar", cert, err)
	}

	// Object bookkeeping.
	if got := st.Objects(); !eqStrs(got, []string{"o1", "o2"}) {
		t.Fatalf("Objects = %v", got)
	}
	if bs, ok := st.Object("o1"); !ok || bs["alice"] != "cow" {
		t.Fatalf("Object(o1) = %v, %v", bs, ok)
	}
	if ok, err := st.DeleteObject(ctx, "o2"); err != nil || !ok {
		t.Fatalf("DeleteObject = %v, %v", ok, err)
	}
	if ok, _ := st.DeleteObject(ctx, "o2"); ok {
		t.Fatal("double DeleteObject must report false")
	}
	if st.NumObjects() != 1 {
		t.Fatalf("NumObjects = %d, want 1", st.NumObjects())
	}
	if _, _, err := st.Get(ctx, "alice", "o2"); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("deleted object: err = %v, want ErrUnknownObject", err)
	}
	if _, _, err := st.Get(ctx, "ghost", "o1"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown user: err = %v, want ErrUnknownUser", err)
	}

	// Update batches several trust mutations into one epoch.
	before := st.Epoch()
	err = st.Update(func(tx *StoreTx) error {
		if err := tx.SetTrust("carol", "alice", 5); err != nil {
			return err
		}
		if ok, err := tx.RemoveTrust("bob", "alice"); err != nil || !ok {
			return fmt.Errorf("remove bob->alice: ok=%v err=%v", ok, err)
		}
		return tx.SetDefault("dave", "v")
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != before+1 {
		t.Fatalf("batch published %d epochs, want 1", st.Epoch()-before)
	}

	// Validation errors.
	if err := st.PutBelief(ctx, "alice", "", "v"); err == nil {
		t.Fatal("empty object key must error")
	}
	if err := st.PutBelief(ctx, "alice", "o1", ""); err == nil {
		t.Fatal("empty value must error")
	}
	if err := st.PutObject(ctx, "o9", map[string]string{"alice": ""}); err == nil {
		t.Fatal("empty value in PutObject must error")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := st.PutBelief(cancelled, "alice", "o1", "v"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v", err)
	}
}

// TestStoreRandomizedParity interleaves random trust, default, and
// object-belief mutations through a store and checks every checkpoint
// against a from-scratch bulkResolveFresh of the effective objects
// (explicit beliefs overlaid on defaults).
func TestStoreRandomizedParity(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			n := New()
			const nUsers = 10
			name := func(i int) string { return fmt.Sprintf("u%d", i) }
			for i := 0; i < nUsers; i++ {
				n.AddUser(name(i))
			}
			for i := 0; i < nUsers*2; i++ {
				a, b := rng.Intn(nUsers), rng.Intn(nUsers)
				if a != b {
					n.AddTrust(name(a), name(b), 1+rng.Intn(5))
				}
			}
			// A fixed root pool with permanent defaults keeps the root set
			// stable, so legacy comparison objects are easy to build.
			roots := []string{name(0), name(1), name(2)}
			for _, r := range roots {
				n.SetBelief(r, "v0")
			}
			st, err := n.NewStore(WithWorkers(1 + rng.Intn(3)))
			if err != nil {
				t.Skipf("seed network invalid: %v", err)
			}
			ctx := context.Background()
			objKey := func(i int) string { return fmt.Sprintf("obj%d", i) }
			for i := 0; i < 4; i++ {
				bs := map[string]string{}
				for _, r := range roots {
					if rng.Intn(2) == 0 {
						bs[r] = fmt.Sprintf("v%d", rng.Intn(3))
					}
				}
				if err := st.PutObject(ctx, objKey(i), bs); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 40; step++ {
				switch rng.Intn(6) {
				case 0:
					a, b := rng.Intn(nUsers), rng.Intn(nUsers)
					if a != b {
						st.SetTrust(ctx, name(a), name(b), 1+rng.Intn(5)) // self/dup handled inside
					}
				case 1:
					st.RemoveTrust(ctx, name(rng.Intn(nUsers)), name(rng.Intn(nUsers)))
				case 2:
					if err := st.SetDefault(ctx, roots[rng.Intn(len(roots))], fmt.Sprintf("v%d", rng.Intn(3))); err != nil {
						t.Fatal(err)
					}
				case 3:
					if err := st.PutBelief(ctx, roots[rng.Intn(len(roots))], objKey(rng.Intn(4)), fmt.Sprintf("v%d", rng.Intn(3))); err != nil {
						t.Fatal(err)
					}
				case 4:
					st.DeleteBelief(ctx, roots[rng.Intn(len(roots))], objKey(rng.Intn(4)))
				case 5:
					// Replace an object wholesale.
					bs := map[string]string{roots[rng.Intn(len(roots))]: fmt.Sprintf("v%d", rng.Intn(3))}
					if err := st.PutObject(ctx, objKey(rng.Intn(4)), bs); err != nil {
						t.Fatal(err)
					}
				}
				if step%5 != 0 {
					continue
				}
				// Effective objects: stored beliefs overlaid on defaults.
				n := storeNet(st)
				eff := map[string]map[string]string{}
				for _, k := range st.Objects() {
					bs, _ := st.Object(k)
					m := map[string]string{}
					for _, r := range roots {
						m[r] = string(n.inner.Explicit(n.inner.UserID(r)))
					}
					for u, v := range bs {
						m[u] = v
					}
					eff[k] = m
				}
				gotRows, err := st.ResolveAll(ctx)
				if err != nil {
					t.Fatalf("step %d: store resolve: %v", step, err)
				}
				wantRows, err := n.bulkResolveFresh(ctx, eff, 2)
				if err != nil {
					t.Fatalf("step %d: legacy resolve: %v", step, err)
				}
				got, want := byObject(gotRows), byObject(wantRows)
				for k := range eff {
					for _, u := range n.Users() {
						g, w := got[k].Possible(u), want[k].Possible(u)
						if !eqStrs(g, w) {
							t.Fatalf("step %d: poss(%s, %s): store %v vs legacy %v", step, u, k, g, w)
						}
					}
				}
			}
		})
	}
}

// TestStoreConcurrentReadWrite hammers one store from resolver,
// streamer, and writer goroutines; under -race this is the Store's
// goroutine-safety regression test. Readers must always observe a
// self-consistent epoch (uniform across one batch) and writers must keep
// publishing.
func TestStoreConcurrentReadWrite(t *testing.T) {
	n := New()
	for i := 0; i < 40; i++ {
		if i > 0 {
			n.AddTrust(fmt.Sprintf("u%d", i), fmt.Sprintf("u%d", (i-1)/2), 1+i%3)
		}
	}
	n.SetBelief("u0", "v")
	st, err := n.NewStore(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		if err := st.PutObject(ctx, fmt.Sprintf("o%d", i), map[string]string{"u0": fmt.Sprintf("w%d", i%3)}); err != nil {
			t.Fatal(err)
		}
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				rows, err := st.ResolveAll(ctx)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				for _, row := range rows {
					if row.Epoch() != rows[0].Epoch() {
						t.Errorf("torn batch: row %s epoch %d != %d", row.Object, row.Epoch(), rows[0].Epoch())
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			for _, err := range st.Resolved(ctx) {
				if err != nil {
					t.Errorf("streamer: %v", err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < 60; i++ {
			if err := st.SetTrust(ctx, "u39", "u0", 1+i%5); err != nil {
				t.Errorf("writer trust: %v", err)
				return
			}
			if err := st.PutBelief(ctx, "u0", fmt.Sprintf("o%d", i%12), fmt.Sprintf("x%d", i)); err != nil {
				t.Errorf("writer belief: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Epochs advanced and the final state resolves consistently.
	if st.Epoch() < 60 {
		t.Fatalf("epoch %d after 60 trust mutations", st.Epoch())
	}
	if _, err := st.ResolveAll(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCachedReadAllocs pins the serve-read hit path at its measured
// counts: a cached ResolveObject costs 1 allocation and a cached Get 2,
// so the code resolveStored and Resolved share (one capture, one refill)
// cannot tax it unnoticed. Same convention as budget_test.go.
// Last moved: face9a9 (the session layer folded into Store); measured
// at db37d05.
func TestCachedReadAllocs(t *testing.T) {
	ctx := context.Background()
	st, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetTrust(ctx, "alice", "bob", 10); err != nil {
		t.Fatal(err)
	}
	if err := st.PutObject(ctx, "obj", map[string]string{"bob": "fish"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ResolveObject(ctx, "obj"); err != nil { // fill the cache
		t.Fatal(err)
	}
	before := st.Stats()
	if got := testing.AllocsPerRun(200, func() {
		if _, err := st.ResolveObject(ctx, "obj"); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("cached ResolveObject: %v allocs, budget 1", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, _, err := st.Get(ctx, "alice", "obj"); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("cached Get: %v allocs, budget 2", got)
	}
	if after := st.Stats(); after.CacheMisses != before.CacheMisses || after.CacheHits == before.CacheHits {
		t.Errorf("measured reads were not cache hits: before %+v, after %+v", before, after)
	}
}
