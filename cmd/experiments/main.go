// Command experiments regenerates the figures of the paper's evaluation
// (Section 5 and Appendix B.5) and prints each series as a table:
//
//	experiments -fig 5      # LP solver exponential on oscillator chains
//	experiments -fig 8a     # RA vs LP on many-cycle networks
//	experiments -fig 8b     # RA vs LP on power-law (web-like) networks
//	experiments -fig 8c     # bulk SQL resolution vs per-object LP
//	experiments -fig 15     # RA quadratic worst case (nested SCCs)
//	experiments -fig bulk   # sequential SQL vs compiled concurrent engine
//	experiments -fig incr   # recompile-per-mutation vs incremental apply
//	experiments -fig all
//
// -quick shrinks the sweeps for a fast smoke run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"trustmap/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5, 8a, 8b, 8c, 15, all")
	quick := flag.Bool("quick", false, "smaller sweeps")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()

	runs := map[string]func(bool, int64){
		"5":    fig5,
		"8a":   fig8a,
		"8b":   fig8b,
		"8c":   fig8c,
		"15":   fig15,
		"bulk": figBulk,
		"incr": figIncr,
	}
	if *fig == "all" {
		for _, name := range []string{"5", "8a", "8b", "8c", "15", "bulk", "incr"} {
			runs[name](*quick, *seed)
			fmt.Println()
		}
		return
	}
	f, ok := runs[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	f(*quick, *seed)
}

func fig5(quick bool, _ int64) {
	ks := []int{2, 4, 6, 8, 10, 12, 14, 16}
	if quick {
		ks = []int{2, 4, 6, 8}
	}
	s := bench.Fig5(ks)
	s.Fprint(os.Stdout)
	fmt.Printf("(exponential: each oscillator doubles the stable-model count)\n")
}

func fig8a(quick bool, _ int64) {
	raKs := []int{10, 100, 1000, 10000, 50000}
	lpKs := []int{2, 4, 6, 8, 10, 12, 14}
	if quick {
		raKs = []int{10, 100, 1000}
		lpKs = []int{2, 4, 6}
	}
	ra := bench.Fig8aRA(raKs, 3)
	ra.Fprint(os.Stdout)
	fmt.Printf("(log-log slope %.2f; ~1 is linear)\n\n", bench.FitSlope(ra))
	lp := bench.Fig8aLP(lpKs)
	lp.Fprint(os.Stdout)
}

func fig8b(quick bool, seed int64) {
	raUsers := []int{100, 1000, 10000, 50000}
	lpUsers := []int{25, 50, 100, 200}
	if quick {
		raUsers = []int{100, 1000}
		lpUsers = []int{25, 50}
	}
	ra := bench.Fig8bRA(raUsers, 3, seed)
	ra.Fprint(os.Stdout)
	fmt.Printf("(log-log slope %.2f; ~1 is linear)\n\n", bench.FitSlope(ra))
	lp := bench.Fig8bLP(lpUsers, seed)
	lp.Fprint(os.Stdout)
}

func fig8c(quick bool, seed int64) {
	counts := []int{100, 1000, 10000, 100000}
	lpCounts := []int{4, 8, 16, 32}
	if quick {
		counts = []int{100, 1000}
		lpCounts = []int{4, 8}
	}
	s := bench.Fig8c(counts, seed)
	s.Fprint(os.Stdout)
	fmt.Printf("(log-log slope %.2f; ~1 is linear in the number of objects)\n\n", bench.FitSlope(s))
	l := bench.Fig8cLP(lpCounts, seed)
	l.Fprint(os.Stdout)
}

func fig15(quick bool, _ int64) {
	ks := []int{100, 200, 400, 800, 1600, 3200}
	if quick {
		ks = []int{50, 100, 200}
	}
	s := bench.Fig15(ks, 3)
	s.Fprint(os.Stdout)
	fmt.Printf("(log-log slope %.2f; ~2 is the quadratic worst case of Theorem 2.12)\n", bench.FitSlope(s))
}

func figIncr(quick bool, seed int64) {
	sizes := []int{1000, 10000, 50000}
	muts := 20
	if quick {
		sizes = []int{500, 2000}
		muts = 6
	}
	series := bench.IncrementalUpdate(sizes, muts, seed)
	for _, s := range series {
		s.Fprint(os.Stdout)
		fmt.Println()
	}
	if last := len(series[0].Points) - 1; last >= 0 && series[1].Points[last].Seconds > 0 {
		fmt.Printf("(largest size: delta apply is %.0fx faster than recompile per mutation)\n",
			series[0].Points[last].Seconds/series[1].Points[last].Seconds)
	}
}

func figBulk(quick bool, seed int64) {
	counts := []int{100, 1000, 10000}
	users := 1000
	distinct := 64
	if quick {
		counts = []int{100, 1000}
		users = 200
		distinct = 16
	}
	workers := runtime.GOMAXPROCS(0)
	for _, s := range bench.BulkSeqVsPar(users, counts, workers, seed) {
		s.Fprint(os.Stdout)
		fmt.Println()
	}
	fmt.Printf("(power-law network, %d users; the engine compiles the plan once per call)\n\n", users)
	series, points := bench.BulkDedup(users, counts, distinct, workers, seed)
	for _, s := range series {
		s.Fprint(os.Stdout)
		fmt.Println()
	}
	fmt.Printf("%-14s %-14s %s\n", "objects", "signatures", "speedup")
	for _, p := range points {
		speedup := 0.0
		if p.SecsDedup > 0 {
			speedup = p.SecsNoDedup / p.SecsDedup
		}
		fmt.Printf("%-14d %-14d %.1fx\n", p.Objects, p.Stats.DistinctSignatures, speedup)
	}
	fmt.Printf("(clustered workload: objects drawn from %d signature prototypes, zipf-skewed;\n dedup resolves each distinct signature once and fans the result out)\n", distinct)
}
