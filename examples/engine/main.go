// Compiled concurrent bulk resolution walkthrough: one trust network,
// many objects, resolved by the engine of internal/engine.
//
// The demo mirrors the paper's community-database setting (Section 4): the
// network's per-object analysis — SCC condensation, resolution plan, and
// per-node root supports — is compiled exactly once, then thousands of
// objects are scanned by a worker pool. On a 1000-user power-law network
// it contrasts the compiled engine on a single worker against GOMAXPROCS
// workers and checks the outputs are byte-identical; a small facade
// example then drives the same engine through trustmap.Store.
//
// The second half is the live lifecycle: mutate and re-resolve. Trust
// revocations are folded into the compiled artifact through the mutation
// journal and the engine's delta path (Apply), recompiling only the dirty
// region — and at the facade level, trustmap.Store drives the same
// compile -> resolve -> mutate -> incremental re-plan loop, with
// trustmap.OpenStore adding WAL + snapshot persistence on top.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"trustmap"
	"trustmap/internal/engine"
	"trustmap/internal/tn"
	"trustmap/internal/workload"
)

func main() {
	// A scale-free curation community: ~1000 sites, 10% of them with
	// first-hand knowledge (explicit beliefs).
	net := workload.PowerLaw(rand.New(rand.NewSource(42)), 1000, 3, 0.1,
		[]tn.Value{"fish", "jar", "arrow", "cow"})
	bin := tn.Binarize(net)

	// Compile once: everything object-independent is precomputed here.
	start := time.Now()
	c, err := engine.Compile(bin)
	if err != nil {
		panic(err)
	}
	st := c.Stats()
	fmt.Printf("compiled network in %v\n", time.Since(start).Round(time.Microsecond))
	fmt.Printf("  %d users, %d mappings, %d roots, %d reachable\n",
		st.Users, st.Mappings, st.Roots, st.Reachable)
	fmt.Printf("  %d SCCs (%d nontrivial), plan: %d copies + %d floods\n",
		st.SCCs, st.NontrivialSCCs, st.CopySteps, st.FloodSteps)
	fmt.Printf("  %d distinct root supports for %d nodes\n", st.DistinctSupports, st.Users)

	// Per-object root beliefs: half the objects conflicting.
	objs := workload.BulkObjects(rand.New(rand.NewSource(7)), c.Roots(), 2000)

	seqStart := time.Now()
	seq, err := c.Resolve(context.Background(), objs, engine.Options{Workers: 1})
	if err != nil {
		panic(err)
	}
	seqTime := time.Since(seqStart)

	workers := runtime.GOMAXPROCS(0)
	parStart := time.Now()
	par, err := c.Resolve(context.Background(), objs, engine.Options{Workers: workers})
	if err != nil {
		panic(err)
	}
	parTime := time.Since(parStart)

	// The outputs are byte-identical regardless of the worker count.
	certain := 0
	for _, k := range seq.Keys() {
		for x := 0; x < bin.NumUsers(); x++ {
			a, b := seq.Possible(x, k), par.Possible(x, k)
			if len(a) != len(b) {
				panic("worker counts disagree")
			}
			for i := range a {
				if a[i] != b[i] {
					panic("worker counts disagree")
				}
			}
		}
		if seq.Certain(0, k) != tn.NoValue {
			certain++
		}
	}
	fmt.Printf("\nresolved %d objects: %v on 1 worker, %v on %d workers\n",
		len(objs), seqTime.Round(time.Millisecond), parTime.Round(time.Millisecond), workers)
	fmt.Printf("site0 holds a certain value for %d/%d objects\n", certain, len(objs))

	// Mutate and re-resolve: a live community database revokes and grants
	// trust constantly. Instead of recompiling the whole network per
	// mutation, the engine folds the journaled change into the artifact,
	// recompiling only the dirty region downstream of the touched edge.
	recompileStart := time.Now()
	if _, err := engine.Compile(bin); err != nil {
		panic(err)
	}
	recompileTime := time.Since(recompileStart)

	bin.EnableJournal()
	g := bin.Graph()
	leaf, leafParent := -1, -1
	for x := 0; x < bin.NumUsers() && leaf < 0; x++ {
		if len(g.Out(x)) == 0 && len(bin.In(x)) > 0 {
			leaf, leafParent = x, bin.In(x)[0].Parent
		}
	}
	bin.RemoveMapping(leafParent, leaf) // revoke one leaf trust mapping
	applyStart := time.Now()
	c2, ast, err := c.Apply(bin.DrainJournal(), engine.ApplyOptions{})
	if err != nil {
		panic(err)
	}
	applyTime := time.Since(applyStart)
	fmt.Printf("\nrevoked %s -> %s: dirty region %d node(s), %d step(s) recomputed, %d reused\n",
		bin.Name(leafParent), bin.Name(leaf), ast.DirtyNodes, ast.NewSteps, ast.ReusedSteps)
	fmt.Printf("incremental apply took %v vs %v for a full recompile (%.0fx)\n",
		applyTime.Round(time.Microsecond), recompileTime.Round(time.Microsecond),
		float64(recompileTime)/float64(applyTime))
	if _, err := c2.Resolve(context.Background(), objs, engine.Options{Workers: workers}); err != nil {
		panic(err)
	}
	fmt.Printf("re-resolved %d objects against the spliced artifact\n", len(objs))

	// The public facade runs the same engine behind Store: build the trust
	// network, copy it into a store, put objects in, and resolve them all against one
	// live compiled artifact (MaxDirtyFraction 1 keeps this tiny demo
	// network on the incremental path across mutations).
	ctx := context.Background()
	n := trustmap.New()
	n.AddTrust("moderatorA", "curator1", 10)
	n.AddTrust("moderatorA", "moderatorB", 20)
	n.AddTrust("moderatorB", "curator2", 10)
	n.AddTrust("moderatorB", "moderatorA", 20)
	n.AddTrust("reader", "moderatorA", 5)
	store, err := n.NewStore(trustmap.WithWorkers(workers),
		trustmap.WithMaxDirtyFraction(1))
	if err != nil {
		panic(err)
	}
	if err := store.PutObject(ctx, "glyph1",
		map[string]string{"curator1": "fish", "curator2": "jar"}); err != nil {
		panic(err)
	}
	if err := store.PutObject(ctx, "glyph2",
		map[string]string{"curator1": "cow", "curator2": "cow"}); err != nil {
		panic(err)
	}
	rows, err := store.ResolveAll(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nstore facade (epoch %d):\n", rows[0].Epoch())
	for _, row := range rows {
		poss, cert, _ := row.Lookup("reader")
		if cert != "" {
			fmt.Printf("  reader/%s: possible=%v certain=%s\n", row.Object, poss, cert)
		} else {
			fmt.Printf("  reader/%s: possible=%v (conflicting)\n", row.Object, poss)
		}
	}

	// Mutate and re-resolve through the store: moderatorA drops its
	// preferred source, the reader now follows the surviving mapping
	// (Section 2.2 promotion), and the artifact is re-planned
	// incrementally rather than recompiled.
	if ok, err := store.RemoveTrust(ctx, "moderatorA", "moderatorB"); err != nil || !ok {
		panic(fmt.Sprintf("trust revocation failed: ok=%v err=%v", ok, err))
	}
	row, err := store.ResolveObject(ctx, "glyph1")
	if err != nil {
		panic(err)
	}
	sst := store.Stats()
	fmt.Printf("\nstore lifecycle (compile once, mutate, re-plan incrementally):\n")
	fmt.Printf("  reader/glyph1 after revocation: %v\n", row.Possible("reader"))
	fmt.Printf("  %d compile(s), %d incremental applies, %d object(s)\n",
		sst.Compiles, sst.IncrementalApplies, sst.Objects)

	// The durable variant: OpenStore journals every mutation to a WAL and
	// checkpoints compacted snapshots, so the same state comes back after
	// a restart (or a crash — the WAL tail is replayed on open).
	dir, err := os.MkdirTemp("", "trustmap-engine-demo-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	dst, err := trustmap.OpenStore(dir, trustmap.WithMaxDirtyFraction(1))
	if err != nil {
		panic(err)
	}
	if err := dst.SetTrust(ctx, "reader", "curator1", 5); err != nil {
		panic(err)
	}
	if err := dst.PutObject(ctx, "glyph1", map[string]string{"curator1": "fish"}); err != nil {
		panic(err)
	}
	ck, err := dst.Checkpoint()
	if err != nil {
		panic(err)
	}
	if err := dst.Close(); err != nil {
		panic(err)
	}
	reopened, err := trustmap.OpenStore(dir)
	if err != nil {
		panic(err)
	}
	defer reopened.Close()
	row, err = reopened.ResolveObject(ctx, "glyph1")
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ndurable store: checkpoint at LSN %d, reopened reader/glyph1=%v\n",
		ck.LSN, row.Possible("reader"))
}
