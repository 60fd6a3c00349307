package main

// Loadgen's own acceptance tests: the pre-drawn op mix is deterministic,
// percentiles are exact, the SLO gate trips on what it should, and — the
// one that matters — an overload run against the real in-process stack
// sheds with exact counter conservation and a bounded admitted p99.

import (
	"context"
	"reflect"
	"testing"
	"time"
)

func TestDrawOpsDeterministic(t *testing.T) {
	cfg := config{seed: 7, users: 16, mutFrac: 0.3}
	a, b := drawOps(cfg, 500), drawOps(cfg, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different op sequences")
	}
	mutates := 0
	for _, o := range a {
		if o.kind == opMutate {
			mutates++
		}
	}
	if mutates == 0 || mutates == len(a) {
		t.Fatalf("mutate mix = %d/%d, want a real mixture at frac 0.3", mutates, len(a))
	}
	cfg.seed = 8
	if reflect.DeepEqual(a, drawOps(cfg, 500)) {
		t.Fatal("different seeds drew identical op sequences")
	}
}

func TestPercentileExact(t *testing.T) {
	s := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 6}, {0.90, 10}, {0.99, 10}, {0.0, 1}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(%.2f) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty = %v, want 0", got)
	}
}

func TestCheckSLO(t *testing.T) {
	rep := &report{Issued: 100, OK: 80, Shed: 20, P99: 50 * time.Millisecond}
	rep.Admission.Reads.MaxQueueDepth = 7

	if v := checkSLO(config{sloMinOps: 0, sloShedFrac: -1, sloQueueDepth: -1}, rep); len(v) != 0 {
		t.Fatalf("disarmed gate reported violations: %v", v)
	}
	pass := config{sloMinOps: 100, sloShedFrac: 0.25, sloQueueDepth: 8, sloP99: 60 * time.Millisecond}
	if v := checkSLO(pass, rep); len(v) != 0 {
		t.Fatalf("passing run reported violations: %v", v)
	}
	fail := config{sloMinOps: 101, sloShedFrac: 0.1, sloQueueDepth: 6, sloP99: 40 * time.Millisecond}
	if v := checkSLO(fail, rep); len(v) != 4 {
		t.Fatalf("want 4 violations (ops, shed, queue, p99), got %v", v)
	}
	// The inverse gate: an overload run that failed to overload.
	if v := checkSLO(config{sloShedFrac: -1, sloQueueDepth: -1, sloMinShed: 0.5}, rep); len(v) != 1 {
		t.Fatalf("want 1 violation (min shed), got %v", v)
	}
	if v := checkSLO(config{sloShedFrac: -1, sloQueueDepth: -1, sloMinShed: 0.1}, rep); len(v) != 0 {
		t.Fatalf("met min-shed gate reported violations: %v", v)
	}
}

// TestHealthyRunAdmitsEverything: with capacity far above the arrival
// rate, nothing sheds, nothing errors, and the client's view agrees with
// the server's deterministic counters.
func TestHealthyRunAdmitsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load runs are not -short material")
	}
	cfg := config{
		self: true, rate: 200, duration: 500 * time.Millisecond,
		seed: 42, mutFrac: 0.1, timeout: 5 * time.Second, users: 16,
		readLimit: 64, readQueue: 64, queueWait: time.Second,
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Issued == 0 || rep.OK != rep.Issued {
		t.Fatalf("healthy run: %+v, want every issued request ok", rep)
	}
	if rep.Shed != 0 || rep.Deadline != 0 || rep.Errors != 0 {
		t.Fatalf("healthy run had failures: %+v", rep)
	}
	if got := rep.Admission.Reads.Admitted + rep.Admission.Mutations.Admitted; got != rep.Issued {
		t.Fatalf("server admitted %d, client issued %d", got, rep.Issued)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("percentiles inverted or empty: p50 %v p99 %v", rep.P50, rep.P99)
	}
}

// TestOverloadShedsWithBoundedLatency is the ISSUE acceptance run: drive
// the real stack far past its configured capacity and require (1) a
// nonzero shed rate, (2) exact conservation between the client's observed
// outcomes and the server's deterministic admission counters, and (3) a
// bounded p99 for the requests that WERE admitted — overload degrades by
// rejecting, never by queueing everyone into latency collapse.
func TestOverloadShedsWithBoundedLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load runs are not -short material")
	}
	const (
		delay     = 10 * time.Millisecond
		queueWait = 50 * time.Millisecond
		slots     = 2
		queue     = 4
	)
	cfg := config{
		self: true, rate: 400, duration: 500 * time.Millisecond,
		seed: 42, mutFrac: 0, timeout: 5 * time.Second, users: 16,
		readLimit: slots, readQueue: queue, queueWait: queueWait,
		selfDelay: delay,
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity is slots/delay = 200 req/s against 400 req/s arrivals:
	// roughly half the load MUST shed.
	if rep.Shed == 0 {
		t.Fatalf("overload run shed nothing: %+v", rep)
	}
	if rep.OK == 0 {
		t.Fatalf("overload run admitted nothing: %+v", rep)
	}
	// Conservation: every issued request landed in exactly one class, and
	// the server's counters agree with the client's observations.
	if rep.OK+rep.Shed+rep.Deadline+rep.Errors != rep.Issued {
		t.Fatalf("outcome classes do not partition issued requests: %+v", rep)
	}
	if rep.Admission.Reads.Admitted != rep.OK || rep.Admission.Reads.Shed != rep.Shed {
		t.Fatalf("server counters (admitted %d, shed %d) disagree with client (ok %d, shed %d)",
			rep.Admission.Reads.Admitted, rep.Admission.Reads.Shed, rep.OK, rep.Shed)
	}
	// The queue bound held.
	if got := rep.Admission.Reads.MaxQueueDepth; got > queue {
		t.Fatalf("max queue depth %d exceeds configured bound %d", got, queue)
	}
	// Bounded p99 of admitted requests: service time + the worst queue
	// wait + generous scheduling slack — not the seconds-long collapse an
	// unbounded queue would produce at 2x overload.
	if bound := delay + queueWait + 500*time.Millisecond; rep.P99 > bound {
		t.Fatalf("admitted p99 %v exceeds bound %v", rep.P99, bound)
	}
	// And the SLO gate agrees in both directions.
	if v := checkSLO(config{sloMinOps: 1, sloShedFrac: 0.95, sloQueueDepth: queue, sloP99: time.Second}, rep); len(v) != 0 {
		t.Fatalf("lenient SLO violated: %v", v)
	}
	if v := checkSLO(config{sloShedFrac: 0, sloQueueDepth: -1}, rep); len(v) == 0 {
		t.Fatal("zero-shed SLO passed an overloaded run")
	}
}
