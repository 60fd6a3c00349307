package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"trustmap/wire"
)

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// hashOps fingerprints an op sequence: equal hashes mean equal sequences.
func hashOps(ops []op) uint64 {
	h := fnv.New64a()
	for i := range ops {
		o := &ops[i]
		fmt.Fprintf(h, "%d|%s|%v|%s|%s|", o.kind, o.key, o.users, o.user, o.value)
		us := make([]string, 0, len(o.beliefs))
		for u := range o.beliefs {
			us = append(us, u)
		}
		sort.Strings(us)
		for _, u := range us {
			fmt.Fprintf(h, "%s=%s,", u, o.beliefs[u])
		}
		fmt.Fprintf(h, "|%s %s %s %d\n", o.spine.Op, o.spine.Truster, o.spine.Trusted, o.spine.Priority)
	}
	return h.Sum64()
}

func TestSpecsKeepTheMixExact(t *testing.T) {
	for _, sp := range specs {
		if sp.ops%(laps*sp.unit) != 0 {
			t.Errorf("%s: %d measured ops are not %d laps of whole %d-op units", sp.name, sp.ops, laps, sp.unit)
		}
		if sp.warmup%sp.unit != 0 {
			t.Errorf("%s: %d warm-up ops are not whole %d-op units", sp.name, sp.warmup, sp.unit)
		}
	}
}

func TestOpSequencesAreAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		a, b, other := newWorld(sp, 7), newWorld(sp, 7), newWorld(sp, 8)
		for c := 0; c < sp.clients; c++ {
			if len(a.streams[c]) != sp.warmup+sp.ops {
				t.Fatalf("%s client %d: %d ops, want %d", sp.name, c, len(a.streams[c]), sp.warmup+sp.ops)
			}
			ha, hb, ho := hashOps(a.streams[c]), hashOps(b.streams[c]), hashOps(other.streams[c])
			if ha != hb {
				t.Errorf("%s client %d: same seed, different sequences (%x vs %x)", sp.name, c, ha, hb)
			}
			if ha == ho {
				t.Errorf("%s client %d: seeds 7 and 8 drew the same sequence", sp.name, c)
			}
		}
		if sp.clients > 1 && hashOps(a.streams[0]) == hashOps(a.streams[1]) {
			t.Errorf("%s: clients 0 and 1 drew the same sequence", sp.name)
		}
	}
}

func TestMixFractionsAreExact(t *testing.T) {
	// want maps an op kind to its exact share of the measured ops, as a
	// fraction num/den.
	type frac struct{ num, den int }
	want := map[string]map[opKind]frac{
		"serve-read":     {opResolve: {19, 20}, opPutBelief: {1, 20}},
		"trust-churn":    {opResolve: {1, 2}, opTrust: {1, 2}},
		"ingest-recover": {opResolve: {1, 10}, opPutObject: {9, 10}},
		"cluster-scan":   {opScan: {1, 9}, opPutBelief: {127, 144}, opTrust: {1, 144}},
	}
	for _, sp := range specs {
		w := newWorld(sp, 3)
		for c, stream := range w.streams {
			got := map[opKind]int{}
			spine := map[string]int{}
			for i := range stream[sp.warmup:] {
				o := &stream[sp.warmup+i]
				got[o.kind]++
				if o.kind == opTrust {
					spine[o.spine.Op]++
				}
			}
			for kind, f := range want[sp.name] {
				if got[kind]*f.den != sp.ops*f.num {
					t.Errorf("%s client %d: kind %d is %d of %d ops, want exactly %d/%d", sp.name, c, kind, got[kind], sp.ops, f.num, f.den)
				}
			}
			if len(got) != len(want[sp.name]) {
				t.Errorf("%s client %d: op kinds %v, want %d kinds", sp.name, c, got, len(want[sp.name]))
			}
			if sp.name == "trust-churn" {
				n := got[opTrust]
				if spine[wire.OpUpdateTrust]*20 != n*14 || spine[wire.OpAddTrust]*20 != n*3 || spine[wire.OpRemoveTrust]*20 != n*3 {
					t.Errorf("trust-churn: spine mix %v of %d writes, want exactly 70/15/15", spine, n)
				}
			}
		}
	}
}

func TestTrustChurnTogglesStayApplicable(t *testing.T) {
	sp := specByName("trust-churn")
	w := newWorld(sp, 5)
	m := newModel(w)
	for i := range w.streams[0] {
		o := &w.streams[0][i]
		if o.kind != opTrust {
			continue
		}
		k := [2]string{o.spine.Truster, o.spine.Trusted}
		prio, present := m.edges[k]
		switch o.spine.Op {
		case wire.OpAddTrust:
			if present {
				t.Fatalf("op %d adds %v, which is present", i, k)
			}
		case wire.OpRemoveTrust:
			if !present {
				t.Fatalf("op %d removes %v, which is absent", i, k)
			}
		case wire.OpUpdateTrust:
			if !present || prio == o.spine.Priority {
				t.Fatalf("op %d re-prioritises %v to %d: present=%v at %d (a no-op write)", i, k, o.spine.Priority, present, prio)
			}
		}
		m.apply(o)
	}
	if d := len(m.edges) - len(w.edges); d < -3 || d > 3 {
		t.Errorf("network size drifted by %d edges", d)
	}
}

func TestIngestReadsOnlyWhatItWrote(t *testing.T) {
	sp := specByName("ingest-recover")
	w := newWorld(sp, 5)
	for c, stream := range w.streams {
		written, read := map[string]bool{}, map[string]bool{}
		for i := range stream {
			o := &stream[i]
			switch o.kind {
			case opPutObject:
				if written[o.key] {
					t.Fatalf("client %d op %d rewrites %s", c, i, o.key)
				}
				written[o.key] = true
			case opResolve:
				if !written[o.key] || read[o.key] {
					t.Fatalf("client %d op %d reads %s: written=%v read=%v", c, i, o.key, written[o.key], read[o.key])
				}
				read[o.key] = true
			}
		}
	}
}

func TestPercentileHelpers(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {0.1, 1}, {0.0, 1}, {1, 10}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartile(asc, 1), quartile(asc, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartile([]float64{1, 2, 4, 8, 16}, 1), quartile([]float64{1, 2, 4, 8, 16}, 3); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %g, %g, want 1.5, 12", q1, q3)
	}
	if got := iqrFrac(asc); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrFrac(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9}, {100, 0.9}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {20, 0.5}, {3, 0.5}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestLapRates(t *testing.T) {
	// Two callers, three laps of 10 ops. Caller 0 stalls in lap 1.
	bounds := [][]float64{{0, 1, 6, 7}, {0, 2, 4, 6}}
	per := lapRates([]int{10, 10}, bounds)
	want := []float64{10.0/1 + 10.0/2, 10.0/5 + 10.0/2, 10.0/1 + 10.0/2}
	for i := range want {
		if math.Abs(per[i]-want[i]) > 1e-12 {
			t.Errorf("lap %d rate %g, want %g", i, per[i], want[i])
		}
	}
	if median(per) != 15 {
		t.Errorf("median lap rate %g, want 15: one stalled lap must not move it", median(per))
	}
}

// TestAgreementIsTwoSided: two sets of runs of one commit disagree when
// their medians differ by more than the bound in either direction, or when
// either set spreads wider than the bound.
func TestAgreementIsTwoSided(t *testing.T) {
	base := []float64{98, 99, 100, 101, 102}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		b    []float64
		ok   bool
	}{
		{"same", base, true},
		{"5% higher", scale(1.05), true},
		{"5% lower", scale(0.95), true},
		{"11.5% higher (PR 11's serve-read/ops_s)", scale(1.115), false},
		{"11.5% lower", scale(0.885), false},
		{"same median, wide spread", []float64{80, 90, 100, 110, 120}, false},
	} {
		diff, _, _, ok := agreement(base, c.b, 0.08)
		if ok != c.ok {
			t.Errorf("%s: agreement within 8%% = %v (diff %+.3f), want %v", c.name, ok, diff, c.ok)
		}
	}
}

// TestDriverArgs: the judging harness's `--trace 0|1` and the bare -trace
// both reach the boolean flag.
func TestDriverArgs(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "serve-read", "--seed", "3", "--seconds", "15", "--trace", "0"}, []string{"--workload", "serve-read", "--seed", "3", "--seconds", "15", "-trace=false"}},
		{[]string{"--trace", "1", "-seed", "1"}, []string{"-trace=true", "-seed", "1"}},
		{[]string{"-trace", "-seed", "1"}, []string{"-trace", "-seed", "1"}},
		{[]string{"-seed", "1", "-trace"}, []string{"-seed", "1", "-trace"}},
		{[]string{"-workload", "trace", "0"}, []string{"-workload", "trace", "0"}},
	} {
		if got := driverArgs(c.in); !slices.Equal(got, c.want) {
			t.Errorf("driverArgs(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4242 (trustd (v2) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 269 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	if got, err := parseStatCPU(stat); err != nil || got != 1000 {
		t.Errorf("parseStatCPU = %d, %v; want utime 731 + stime 269 = 1000", got, err)
	}
	if _, err := parseStatCPU("4242 trustd S 1"); err == nil {
		t.Error("parseStatCPU accepted a line without a command field")
	}
	if _, err := parseStatCPU("4242 (trustd) S 1 2 3"); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
	status := "Name:\ttrustd\nVmPeak:\t 1234567 kB\nVmSize:\t 1200000 kB\nVmHWM:\t  386716 kB\nVmRSS:\t  123456 kB\nThreads:\t9\n"
	if got, err := parseStatusKB(status, "VmHWM"); err != nil || got != 386716 {
		t.Errorf("VmHWM = %d, %v; want 386716", got, err)
	}
	if got, err := parseStatusKB(status, "VmRSS"); err != nil || got != 123456 {
		t.Errorf("VmRSS = %d, %v; want 123456", got, err)
	}
	if _, err := parseStatusKB("Name:\ttrustd\nVmRSS:\t 1 kB\n", "VmHWM"); err == nil {
		t.Error("parseStatusKB found a VmHWM line in a status without one")
	}
	if _, err := parseStatusKB("VmHWM:\t 12 MB\n", "VmHWM"); err == nil {
		t.Error("parseStatusKB accepted a unit other than kB")
	}
}

// TestContractMatchesCode keeps BENCHMARK.json and the code that prints
// the metrics from drifting apart.
func TestContractMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the op counts are frozen for %d", c.RunSeconds, runSeconds)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code", i, w.Name, specs[i].name)
		}
		// The frozen sizes and op counts are part of the contract.
		if frozen := specs[i].frozen(); !strings.Contains(w.Why, frozen) {
			t.Errorf("workload %s: BENCHMARK.json does not record the frozen counts %q", w.Name, frozen)
		}
	}
	if len(c.EndToEnd) != len(e2eNames) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(c.EndToEnd), len(e2eNames))
	}
	for i, m := range c.EndToEnd {
		if m.Name != e2eNames[i] || m.Unit != e2eUnits[m.Name] {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in code", i, m.Name, m.Unit, e2eNames[i], e2eUnits[e2eNames[i]])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(c.PerLayer) != len(layerDefs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(c.PerLayer), len(layerDefs))
	}
	for i, m := range c.PerLayer {
		if d := layerDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d is %v in BENCHMARK.json, %v in code", i, m, d)
		}
	}
}

// TestQuickSmoke runs all four workloads end to end at smoke-test size:
// a real trustd subprocess, the oracle check, SIGKILL, the recoveries, and
// the traced ladder. No timing is asserted.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts trustd subprocesses")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	if err := e.buildTrustd(); err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(t.Context(), e, sp.quick(), 11, traced, e.meta())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", sp.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := len(e2eNames)
			if traced {
				want = len(layerDefs)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics reported, want %d", sp.name, traced, len(res.Metrics), want)
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s traced=%v: metric %s = %v [%q]", sp.name, traced, name, m.Value, m.Unit)
				}
			}
		}
	}
	if len(e.procs) != 0 || len(e.dirs) != 0 {
		t.Errorf("left behind %d processes and %d data dirs", len(e.procs), len(e.dirs))
	}
}
