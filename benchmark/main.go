// Command benchmark is the repository's benchmark: four fixed-work,
// closed-loop workloads driven through the public client package against
// a real `trustd -data-dir` subprocess with real fsync, eight end-to-end
// metrics per workload, and (with -trace) an in-process ladder that
// replays the same ops through each layer's public functions to say where
// the time goes. README.md in this directory is the glossary; the
// contract the output follows is BENCHMARK.json at the repository root.
//
//	go run ./benchmark -workload <name|all> -seed <n> [-trace]
//	go run ./benchmark -selfcheck
//	go run ./benchmark -quick -workload all
//
// The harness that judges this benchmark calls it as
// `--workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>`;
// both spellings are accepted (see driverArgs).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// metric is one reported value. Units are fixed per name (see e2eUnits
// and layerDefs): the same name never changes unit between workloads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the contract's shape.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eNames orders the end-to-end metrics as BENCHMARK.json lists them.
var e2eNames = []string{"setup_s", "ops_s", "read_p50_ms", "write_p50_ms", "cpu_us_per_op", "rss_peak_mb", "recovery_s", "disk_bytes_per_write"}

var e2eUnits = map[string]string{
	"setup_s": "s", "ops_s": "1/s", "read_p50_ms": "ms", "write_p50_ms": "ms",
	"cpu_us_per_op": "us", "rss_peak_mb": "MB", "recovery_s": "s", "disk_bytes_per_write": "B",
}

func main() {
	os.Exit(run())
}

// driverArgs rewrites the judging harness's `--trace 0` / `--trace 1` into
// the boolean form the flag package parses, so that -trace stays the bare
// switch the rest of the repository's commands use.
func driverArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if name := strings.TrimLeft(args[i], "-"); name == "trace" && args[i] != name && i+1 < len(args) {
			switch args[i+1] {
			case "0":
				out = append(out, "-trace=false")
				i++
				continue
			case "1":
				out = append(out, "-trace=true")
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

func run() int {
	workloadFlag := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	// The judging harness passes run_seconds of BENCHMARK.json back as
	// -seconds. Work is fixed: the op counts are constants calibrated to that
	// length, so the value is accepted and changes nothing.
	seconds := flag.Int("seconds", runSeconds, "accepted for the judging harness; the op counts are frozen, so it changes nothing")
	trace := flag.Bool("trace", false, "also replay the ops through the in-process layer ladder and report the per-layer metrics")
	quick := flag.Bool("quick", false, "smoke-test sizes: same code paths, a few hundred ops, no meaningful timings")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of invocations of this binary and compare their medians against the bounds")
	flag.CommandLine.Parse(driverArgs(os.Args[1:]))
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: usage: -workload <name|all> -seed <n> [-trace] [-quick] [-selfcheck]")
		return 2
	}
	if *seconds != runSeconds {
		fmt.Printf("note: -seconds %d ignored: the op counts are frozen for %d s phases\n", *seconds, runSeconds)
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer e.cleanup()

	if *selfcheck {
		return selfCheck(ctx, e, *seed)
	}

	var todo []*spec
	for _, sp := range specs {
		if *workloadFlag == "all" || *workloadFlag == sp.name {
			todo = append(todo, sp)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadFlag)
		return 2
	}
	if err := e.buildTrustd(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	meta := e.meta()
	if meta.Filesystem == "tmpfs" || meta.Filesystem == "ramfs" {
		fmt.Println("WARNING: benchmark/out is on " + meta.Filesystem + ": fsync is not real here, so write latency on ingest-recover is the sandbox's, not a device's")
	}

	code := 0
	for _, sp := range todo {
		if *quick {
			sp = sp.quick()
		}
		res, err := runWorkload(ctx, e, sp, *seed, *trace, meta)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload and prints its report; the returned
// result is the machine-readable last line.
func runWorkload(ctx context.Context, e *env, sp *spec, seed int64, traced bool, meta runMeta) (*result, error) {
	fmt.Printf("== %s seed=%d durability=%s cluster=%d %s (users, objects, clients x ops) warmup/client=%d laps=%d\n",
		sp.name, seed, sp.durability, sp.cluster, sp.frozen(), sp.warmup, laps)
	fmt.Printf("meta nproc=%d gomaxprocs=%d go=%s kernel=%s fs=%s commit=%s\n",
		meta.NProc, meta.GOMAXPROCS, meta.GoVersion, meta.Kernel, meta.Filesystem, meta.Commit)

	pr, err := runPhase(ctx, e, sp, seed, traced)
	if err != nil {
		return nil, err
	}
	if pr.killedDir != "" {
		defer e.removeDir(pr.killedDir)
	}
	out := &result{Metrics: map[string]metric{}}
	fmt.Printf("phase measured_s=%.3f verify_s=%.3f recover_total_s=%.3f reads=%d writes=%d ops_attempted=%d ops_failed=%d recoveries=%.4f\n",
		pr.measuredSeconds, pr.verifySeconds, pr.recoverSeconds, pr.readN, pr.writeN, pr.check.attempted, pr.check.failed, pr.recoverySamples)
	fmt.Printf("laps ops_s=%.0f\nVmHWM_mb=%.1f\n", pr.lapRates, pr.hwmMB)
	for _, name := range e2eNames {
		fmt.Printf("metric %s/%s %.6g %s\n", sp.name, name, pr.e2e[name], e2eUnits[name])
	}
	fmt.Printf("tail %s/client.read_p%g_ms %.6g ms (n=%d)  %s/client.write_p%g_ms %.6g ms (n=%d)\n",
		sp.name, pr.readTailP*100, pr.readTail, pr.readN, sp.name, pr.writeTailP*100, pr.writeTail, pr.writeN)

	if !traced {
		for _, name := range e2eNames {
			out.Metrics[name] = metric{Value: pr.e2e[name], Unit: e2eUnits[name]}
		}
	} else {
		layers, err := runLadder(ctx, e, sp, seed, pr)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		for _, d := range layerDefs {
			fmt.Printf("layer %s/%s %.6g %s\n", sp.name, d.name, layers[d.name], d.unit)
			out.Metrics[d.name] = metric{Value: layers[d.name], Unit: d.unit}
		}
	}
	if pr.check.firstErr != nil {
		fmt.Println("first failure:", pr.check.firstErr)
	}
	out.Attempted, out.Failed, out.Correct = pr.check.attempted, pr.check.failed, pr.check.failed == 0
	return out, nil
}
