package workload

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"trustmap/internal/bulk"
	"trustmap/internal/resolve"
	"trustmap/internal/tn"
)

func TestOscillatorClusters(t *testing.T) {
	n := OscillatorClusters(5)
	if n.NumUsers() != 20 || n.NumMappings() != 20 {
		t.Fatalf("size wrong: %d users %d mappings", n.NumUsers(), n.NumMappings())
	}
	if n.Size() != 40 {
		t.Fatalf("|U|+|E| = %d want 40", n.Size())
	}
	if !n.IsBinary() {
		t.Fatal("oscillator clusters must be binary")
	}
	r := resolve.Resolve(n)
	// Every oscillator node has both values possible; roots are certain.
	for i := 0; i < 5; i++ {
		x1 := n.UserID("c0_x1")
		if len(r.Possible(x1)) != 2 {
			t.Errorf("cluster %d: oscillator node should have 2 possible values", i)
		}
	}
	// The number of stable solutions is 2^k (verified for small k).
	sols := tn.EnumerateStableSolutions(OscillatorClusters(2), 0)
	if len(sols) != 4 {
		t.Errorf("2 clusters: want 4 stable solutions, got %d", len(sols))
	}
}

func TestPowerLawShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := PowerLaw(rng, 2000, 3, 0.1, []tn.Value{"v", "w", "u"})
	if n.NumUsers() != 2000 {
		t.Fatalf("users=%d", n.NumUsers())
	}
	if n.NumMappings() < 5000 {
		t.Fatalf("too few mappings: %d", n.NumMappings())
	}
	// Scale-free shape: out-degree (trust received) should be heavy-tailed:
	// the max out-degree far exceeds the average.
	out := make([]int, n.NumUsers())
	for x := 0; x < n.NumUsers(); x++ {
		for _, m := range n.In(x) {
			out[m.Parent]++
		}
	}
	max, sum := 0, 0
	for _, d := range out {
		sum += d
		if d > max {
			max = d
		}
	}
	avg := float64(sum) / float64(len(out))
	if float64(max) < 8*avg {
		t.Errorf("degree distribution not heavy-tailed: max %d avg %.1f", max, avg)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("invalid network: %v", err)
	}
	// Must resolve after binarization.
	b := tn.Binarize(n)
	r := resolve.Resolve(b)
	_ = r
}

func TestPowerLawDeterministic(t *testing.T) {
	a := PowerLaw(rand.New(rand.NewSource(7)), 300, 2, 0.2, []tn.Value{"v"})
	b := PowerLaw(rand.New(rand.NewSource(7)), 300, 2, 0.2, []tn.Value{"v"})
	if a.NumMappings() != b.NumMappings() {
		t.Error("generator must be deterministic per seed")
	}
}

func TestNestedSCC(t *testing.T) {
	k := 6
	n := NestedSCC(k)
	if !n.IsBinary() {
		t.Fatal("nested SCC network must be binary")
	}
	if n.NumUsers() != 2+4*k {
		t.Fatalf("users=%d want %d", n.NumUsers(), 2+4*k)
	}
	r := resolve.Resolve(n)
	// Every oscillator stage must carry both values.
	for i := 0; i < k; i++ {
		a := n.UserID("s0_a")
		if len(r.Possible(a)) != 2 {
			t.Fatalf("stage %d: want 2 possible values, got %v", i, r.Possible(a))
		}
	}
	// Cross-check the smallest instance against the oracle.
	small := NestedSCC(2)
	sols := tn.EnumerateStableSolutions(small, 0)
	wantPoss := tn.PossibleFromSolutions(small, sols)
	rs := resolve.Resolve(small)
	for x := 0; x < small.NumUsers(); x++ {
		if len(rs.Possible(x)) != len(wantPoss[x]) {
			t.Fatalf("node %s: %v vs oracle %v", small.Name(x), rs.Possible(x), wantPoss[x])
		}
	}
}

func TestFig19(t *testing.T) {
	n, roots := Fig19()
	if n.NumUsers() != 7 || n.NumMappings() != 12 {
		t.Fatalf("size: %d users %d mappings, want 7/12", n.NumUsers(), n.NumMappings())
	}
	if len(roots) != 2 {
		t.Fatalf("want 2 explicit-belief users")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.IsBinary() {
		t.Fatal("Figure 19 network is non-binary (x1 and x3 have 3 parents)")
	}
	b := tn.Binarize(n)
	// All original users must resolve to some belief.
	r := resolve.Resolve(b)
	for x := 0; x < n.NumUsers(); x++ {
		if len(r.Possible(x)) == 0 {
			t.Errorf("user %s unresolved", n.Name(x))
		}
	}
}

func TestBulkObjects(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, roots := Fig19()
	objs := BulkObjects(rng, roots, 200)
	if len(objs) != 200 {
		t.Fatalf("objects=%d", len(objs))
	}
	agree, conflict := 0, 0
	for _, bs := range objs {
		if len(bs) != 2 {
			t.Fatal("every object needs beliefs for both roots")
		}
		vals := map[tn.Value]bool{}
		for _, v := range bs {
			vals[v] = true
		}
		if len(vals) == 1 {
			agree++
		} else {
			conflict++
		}
	}
	if agree < 50 || conflict < 50 {
		t.Errorf("expected a rough 50/50 split, got %d/%d", agree, conflict)
	}
}

// TestFig19BulkIntegration resolves a small object set over the Figure 19
// network through the SQL path and checks against per-object resolution.
func TestFig19BulkIntegration(t *testing.T) {
	n, roots := Fig19()
	b := tn.Binarize(n)
	plan, err := bulk.NewPlan(b)
	if err != nil {
		t.Fatal(err)
	}
	store := bulk.NewStore(plan)
	rng := rand.New(rand.NewSource(5))
	objs := BulkObjects(rng, roots, 25)
	if err := store.LoadObjects(objs); err != nil {
		t.Fatal(err)
	}
	if err := store.Resolve(); err != nil {
		t.Fatal(err)
	}
	for k, bs := range objs {
		per := b.Clone()
		for x, v := range bs {
			per.SetExplicit(x, v)
		}
		r := resolve.Resolve(per)
		for x := 0; x < n.NumUsers(); x++ {
			want := r.Possible(x)
			got := store.Possible(x, k)
			if len(got) != len(want) {
				t.Fatalf("object %s poss(%s): bulk %v vs %v", k, n.Name(x), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("object %s poss(%s): bulk %v vs %v", k, n.Name(x), got, want)
				}
			}
		}
	}
}

func TestRandomBTNIsBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		n := RandomBTN(rng, 3+rng.Intn(20), 0.3, []tn.Value{"v", "w"})
		if !n.IsBinary() {
			t.Fatal("RandomBTN must produce binary networks")
		}
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		resolve.Resolve(n) // must not panic
	}
}

func TestBulkObjectsDeterministic(t *testing.T) {
	roots := []int{3, 7, 11}
	a := BulkObjects(rand.New(rand.NewSource(21)), roots, 50)
	b := BulkObjects(rand.New(rand.NewSource(21)), roots, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BulkObjects must be identical across runs for one seed")
	}
	keys := ObjectKeys(a)
	if len(keys) != 50 || !sort.StringsAreSorted(keys) {
		t.Fatalf("ObjectKeys wrong: %d keys, sorted=%v", len(keys), sort.StringsAreSorted(keys))
	}
}
