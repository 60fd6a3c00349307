package trustmap

// Benchmarks regenerating the paper's evaluation (Section 5 and
// Appendix B.5), one benchmark family per figure. cmd/experiments prints
// the same series as tables with log-log slopes; these benchmarks provide
// the `go test -bench` view with allocation counts.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"trustmap/client"
	"trustmap/internal/admission"
	"trustmap/internal/bench"
	"trustmap/internal/bulk"
	"trustmap/internal/engine"
	"trustmap/internal/lp"
	"trustmap/internal/resolve"
	"trustmap/internal/skeptic"
	"trustmap/internal/tn"
	"trustmap/internal/workload"
)

// BenchmarkFig5_LPSolver measures the logic-programming baseline (the DLV
// substitute) on chains of k oscillators: exponential in k, the cliff of
// Figure 5.
func BenchmarkFig5_LPSolver(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4, 5} {
		n := workload.OscillatorClusters(k)
		b.Run(fmt.Sprintf("size=%d", n.Size()), func(b *testing.B) {
			prog, _ := lp.TranslateBinary(n, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lp.StableModels(prog, lp.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8a_RA measures Algorithm 1 on the many-cycles data set:
// quasi-linear in the network size (Figure 8a, RA curve).
func BenchmarkFig8a_RA(b *testing.B) {
	for _, k := range []int{10, 100, 1000, 10000} {
		n := workload.OscillatorClusters(k)
		b.Run(fmt.Sprintf("size=%d", n.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resolve.Resolve(n)
			}
		})
	}
}

// BenchmarkFig8a_LP is the baseline curve of Figure 8a (small sizes only:
// it is exponential).
func BenchmarkFig8a_LP(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		n := workload.OscillatorClusters(k)
		b.Run(fmt.Sprintf("size=%d", n.Size()), func(b *testing.B) {
			prog, _ := lp.TranslateBinary(n, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lp.StableModels(prog, lp.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8b_RA measures Algorithm 1 on scale-free networks (the
// web-crawl substitute of Figure 8b).
func BenchmarkFig8b_RA(b *testing.B) {
	for _, users := range []int{100, 1000, 10000} {
		n := workload.PowerLaw(rand.New(rand.NewSource(42)), users, 3, 0.1, []tn.Value{"v", "w", "u"})
		bin := tn.Binarize(n)
		b.Run(fmt.Sprintf("size=%d", n.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resolve.Resolve(bin)
			}
		})
	}
}

// BenchmarkFig8b_LP is the logic-programming baseline on the scale-free
// data set (few cycles on average, still expensive).
func BenchmarkFig8b_LP(b *testing.B) {
	for _, users := range []int{10, 15} {
		n := workload.PowerLaw(rand.New(rand.NewSource(42)), users, 3, 0.1, []tn.Value{"v", "w", "u"})
		bin := tn.Binarize(n)
		b.Run(fmt.Sprintf("size=%d", n.Size()), func(b *testing.B) {
			prog, _ := lp.TranslateBinary(bin, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lp.StableModels(prog, lp.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8c_BulkSQL measures bulk resolution over the Figure 19
// network with a growing number of objects: linear in the object count and
// independent of the number of conflicts.
func BenchmarkFig8c_BulkSQL(b *testing.B) {
	net, roots := workload.Fig19()
	bin := tn.Binarize(net)
	for _, count := range []int{100, 1000, 10000} {
		objs := workload.BulkObjects(rand.New(rand.NewSource(7)), roots, count)
		b.Run(fmt.Sprintf("objects=%d", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				plan, err := bulk.NewPlan(bin)
				if err != nil {
					b.Fatal(err)
				}
				store := bulk.NewStore(plan)
				if err := store.LoadObjects(objs); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := store.Resolve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8c_LPPerObject is the Figure 8c baseline: solving one logic
// program per object; with ~half the objects conflicting this grows much
// faster than the bulk path.
func BenchmarkFig8c_LPPerObject(b *testing.B) {
	net, roots := workload.Fig19()
	bin := tn.Binarize(net)
	for _, count := range []int{1, 2, 4} {
		objs := workload.BulkObjects(rand.New(rand.NewSource(7)), roots, count)
		b.Run(fmt.Sprintf("objects=%d", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, bs := range objs {
					per := bin.Clone()
					for x, v := range bs {
						per.SetExplicit(x, v)
					}
					prog, _ := lp.TranslateBinary(per, nil)
					if _, err := lp.StableModels(prog, lp.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkBulkResolve contrasts the bulk execution strategies: the legacy
// sequential SQL path of Section 4 against the compiled concurrent engine
// at several worker counts on a 1000-object power-law workload (1000
// users), and signature deduplication against the per-object scan on the
// clustered 10k-object power-law workload (10000 users, objects drawn from
// 64 signature prototypes) plus the all-distinct adversarial workload.
// Compilation (plan construction) is excluded from the timed region for
// every strategy: the point of the engine is that the per-network analysis
// is paid once and the per-object scan parallelizes.
func BenchmarkBulkResolve(b *testing.B) {
	bin, objs := bench.BulkWorkload(1000, 1000, 42)
	b.Run("sequential-sql", func(b *testing.B) {
		plan, err := bulk.NewPlan(bin)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store := bulk.NewStore(plan)
			if err := store.LoadObjects(objs); err != nil {
				b.Fatal(err)
			}
			if err := store.Resolve(); err != nil {
				b.Fatal(err)
			}
		}
	})
	c, err := engine.Compile(bin)
	if err != nil {
		b.Fatal(err)
	}
	// Deduplicated worker counts: repeated counts would get `#01`-suffixed,
	// GOMAXPROCS-dependent sub names that do not line up across machines.
	seenWorkers := map[int]bool{}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		if seenWorkers[workers] {
			continue
		}
		seenWorkers[workers] = true
		b.Run(fmt.Sprintf("engine/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Resolve(context.Background(), objs, engine.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Signature dedup on the clustered 10k-object workload. The compiled
	// artifact persists across iterations, as in a store, so both subs
	// run with warm scratch arenas: every dedup iteration resolves its 64
	// signatures, the no-dedup run pays per object.
	binC, objsC := bench.ClusteredBulkWorkload(10000, 10000, 64, 42)
	cc, err := engine.Compile(binC)
	if err != nil {
		b.Fatal(err)
	}
	for _, sub := range []struct {
		name    string
		disable bool
	}{{"clustered10k/dedup", false}, {"clustered10k/nodedup", true}} {
		b.Run(sub.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cc.Resolve(context.Background(), objsC, engine.Options{Workers: 1, DisableDedup: sub.disable}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The adversarial counterpart: every object a distinct signature, so
	// dedup degenerates to the per-object scan plus grouping overhead up
	// to the bail-out window. Both subs recompile per iteration (timer
	// stopped) so every measured resolve is cold — no warm value
	// dictionary or scratch arenas — the worst case for dedup.
	binD, objsD := bench.AllDistinctBulkWorkload(1000, 1000, 42)
	for _, sub := range []struct {
		name    string
		disable bool
	}{{"alldistinct/dedup", false}, {"alldistinct/nodedup", true}} {
		b.Run(sub.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cd, err := engine.Compile(binD)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := cd.Resolve(context.Background(), objsD, engine.Options{Workers: 1, DisableDedup: sub.disable}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalUpdate measures the mutate-then-re-plan workload on
// the 10k-user power-law network: a full recompile per mutation (what
// a from-scratch resolve effectively pays) against the engine's delta path
// (engine.CompiledNetwork.Apply) for a small dirty region. The acceptance
// bar for the delta path is a >= 10x speedup.
func BenchmarkIncrementalUpdate(b *testing.B) {
	base, _ := bench.BulkWorkload(10000, 1, 42)
	parent, child, prio := bench.LeafEdge(base)
	b.Run("recompile", func(b *testing.B) {
		n := base.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				n.RemoveMapping(parent, child)
			} else {
				n.AddMapping(parent, child, prio)
			}
			if _, err := engine.Compile(n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apply", func(b *testing.B) {
		n := base.Clone()
		n.EnableJournal()
		c, err := engine.Compile(n)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				n.RemoveMapping(parent, child)
			} else {
				n.AddMapping(parent, child, prio)
			}
			c, _, err = c.Apply(n.DrainJournal(), engine.ApplyOptions{})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResolveAllocs measures the steady-state allocation profile of
// the columnar engine scan with dedup off: 1000 objects per op, so
// allocs/op close to the object count would mean per-object allocation.
// (Dedup on, the batch additionally pays a few bookkeeping allocations per
// distinct signature — measured by the BenchmarkBulkResolve dedup subs.)
// The hard zero-allocation gate is TestResolveObjectZeroAllocs in
// internal/engine.
func BenchmarkResolveAllocs(b *testing.B) {
	bin, objs := bench.BulkWorkload(1000, 1000, 42)
	c, err := engine.Compile(bin)
	if err != nil {
		b.Fatal(err)
	}
	opts := engine.Options{Workers: 1, DisableDedup: true}
	if _, err := c.Resolve(context.Background(), objs, opts); err != nil {
		b.Fatal(err) // warm the dictionary and arenas
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Resolve(context.Background(), objs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCompile measures the one-time per-network compilation the
// engine amortizes over all objects (plan construction only; supports are
// derived lazily and measured by BenchmarkCompile).
func BenchmarkEngineCompile(b *testing.B) {
	for _, users := range []int{1000, 10000} {
		bin, _ := bench.BulkWorkload(users, 1, 42)
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Compile(bin); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile measures the full cost of readying an artifact for
// resolution: plan construction plus root-support derivation, the part
// buildSupports distributes across independent condensation components.
func BenchmarkCompile(b *testing.B) {
	for _, users := range []int{1000, 10000, 50000} {
		bin, _ := bench.BulkWorkload(users, 1, 42)
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := engine.Compile(bin)
				if err != nil {
					b.Fatal(err)
				}
				if st := c.Stats(); st.DistinctSupports == 0 { // forces support derivation
					b.Fatal("no supports derived")
				}
			}
		})
	}
}

// BenchmarkFig15_QuadraticWorstCase measures Algorithm 1 on the nested-SCC
// family (Figure 14a): the quadratic worst case of Theorem 2.12.
func BenchmarkFig15_QuadraticWorstCase(b *testing.B) {
	for _, k := range []int{50, 100, 200, 400} {
		n := workload.NestedSCC(k)
		b.Run(fmt.Sprintf("size=%d", n.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resolve.Resolve(n)
			}
		})
	}
}

// BenchmarkBinarize measures the Proposition 2.8 transformation on
// non-binary power-law networks (an ablation: binarization is a
// preprocessing cost of every other benchmark on non-binary input).
func BenchmarkBinarize(b *testing.B) {
	for _, users := range []int{1000, 10000} {
		n := workload.PowerLaw(rand.New(rand.NewSource(9)), users, 5, 0.1, []tn.Value{"v", "w"})
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tn.Binarize(n)
			}
		})
	}
}

// BenchmarkSkepticResolution measures Algorithm 2 on oscillator chains
// with constraints sprinkled in: the constraint-aware analogue of
// Figure 8a.
func BenchmarkSkepticResolution(b *testing.B) {
	for _, k := range []int{10, 100, 1000} {
		n := workload.OscillatorClusters(k)
		c := skeptic.FromTN(n)
		b.Run(fmt.Sprintf("size=%d", n.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				skeptic.ResolveSkeptic(c)
			}
		})
	}
}

// BenchmarkPossiblePairs measures the O(n^4) pairwise extension
// (Proposition 2.13) — usable on analysis-sized networks only.
func BenchmarkPossiblePairs(b *testing.B) {
	for _, k := range []int{2, 8, 16} {
		n := workload.OscillatorClusters(k)
		b.Run(fmt.Sprintf("size=%d", n.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resolve.ResolvePairs(n)
			}
		})
	}
}

// BenchmarkFacadeResolve measures the end-to-end public API on a mid-size
// community network, including binarization.
func BenchmarkFacadeResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := New()
	for i := 0; i < 2000; i++ {
		user := fmt.Sprintf("u%d", i)
		seen := map[int]bool{}
		for e := 0; e < 2 && i > 0; e++ {
			z := rng.Intn(i)
			if seen[z] {
				continue
			}
			seen[z] = true
			n.AddTrust(user, fmt.Sprintf("u%d", z), 1+rng.Intn(100))
		}
		if rng.Float64() < 0.1 {
			n.SetBelief(user, []string{"v", "w"}[rng.Intn(2)])
		}
	}
	n.SetBelief("u0", "v")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Resolve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLPDecomposition contrasts the monolithic stable-model
// enumeration with component-decomposed brave answering on oscillator
// chains (DESIGN.md §5.7): the first is exponential in k, the second
// linear.
func BenchmarkAblationLPDecomposition(b *testing.B) {
	for _, k := range []int{4, 8} {
		n := workload.OscillatorClusters(k)
		prog, _ := lp.TranslateBinary(n, nil)
		b.Run(fmt.Sprintf("monolithic/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lp.Brave(prog, lp.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decomposed/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lp.BraveDecomposed(prog, lp.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBulkSkeptic measures the reusable-plan bulk Skeptic resolver
// (the Section 4 extension for Algorithm 2).
func BenchmarkBulkSkeptic(b *testing.B) {
	net, roots := workload.Fig19()
	bin := tn.Binarize(net)
	plan, err := bulk.NewSkepticPlan(bin, rootsOf(bin, roots), nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, count := range []int{10, 100} {
		objs := workload.BulkObjects(rand.New(rand.NewSource(5)), rootsOf(bin, roots), count)
		b.Run(fmt.Sprintf("objects=%d", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.ResolveObjects(objs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rootsOf maps original root IDs into the binarized network (roots keep
// their IDs when they have no parents, as in Figure 19).
func rootsOf(bin *tn.Network, roots []int) []int { return roots }

// BenchmarkAdmission measures the admission gate itself: the uncontended
// acquire/release cycle every admitted request pays, the shed path an
// overloaded server takes per rejected request, and the disabled (nil
// gate) case, which must stay branch-cheap because every ungated handler
// crosses it.
func BenchmarkAdmission(b *testing.B) {
	ctx := context.Background()
	b.Run("admit", func(b *testing.B) {
		g := admission.New(admission.Config{MaxConcurrent: 64})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			release, err := g.Acquire(ctx)
			if err != nil {
				b.Fatal(err)
			}
			release()
		}
		b.StopTimer()
		if st := g.Stats(); st.Admitted != uint64(b.N) || st.InFlight != 0 {
			b.Fatalf("gate stats %+v after %d admits", st, b.N)
		}
	})
	b.Run("shed", func(b *testing.B) {
		g := admission.New(admission.Config{MaxConcurrent: 1})
		release, err := g.Acquire(ctx)
		if err != nil {
			b.Fatal(err)
		}
		defer release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.Acquire(ctx); !errors.Is(err, admission.ErrShed) {
				b.Fatalf("err = %v, want shed", err)
			}
		}
		b.StopTimer()
		if st := g.Stats(); st.Shed != uint64(b.N) {
			b.Fatalf("gate stats %+v after %d sheds", st, b.N)
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var g *admission.Gate // ungated class: nil gate admits everything
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			release, err := g.Acquire(ctx)
			if err != nil {
				b.Fatal(err)
			}
			release()
		}
	})
}

// BenchmarkClientRetry measures the typed client's retry loop against a
// scripted fault server: "recover" pays two round trips plus the backoff
// bookkeeping per op (the server 429s every other request), "armed" is
// the no-fault path with a policy installed — the per-request overhead of
// having retries on at all. Backoff delays are driven to ~zero so ns/op
// tracks the code path, not the sleep schedule.
func BenchmarkClientRetry(b *testing.B) {
	newSrv := func(everyOther bool) *httptest.Server {
		var calls atomic.Uint64
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if everyOther && calls.Add(1)%2 == 1 {
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprint(w, `{"error":"shed"}`)
				return
			}
			fmt.Fprint(w, `{"ok":true,"epoch":1}`)
		}))
	}
	policy := client.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Nanosecond, MaxDelay: time.Nanosecond, Jitter: -1,
	}
	b.Run("recover", func(b *testing.B) {
		srv := newSrv(true)
		defer srv.Close()
		c := client.New(srv.URL, client.WithRetry(policy))
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Healthz(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("armed", func(b *testing.B) {
		srv := newSrv(false)
		defer srv.Close()
		c := client.New(srv.URL, client.WithRetry(policy))
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Healthz(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
