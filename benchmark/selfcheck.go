package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// contract is the part of BENCHMARK.json the self-check judges by.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheckRuns is how many invocations make one set of the self-check.
const selfCheckRuns = 10

// agreement judges one (workload, metric) pair of the self-check: the
// relative difference of the two sets' medians, in either direction, and
// each set's quartile spread as a share of its median, all against the
// metric's bound. Two sets of runs of one commit that differ by more than
// the bound disagree, whichever of them reads better.
func agreement(a, b []float64, bound float64) (diff, spreadA, spreadB float64, ok bool) {
	ma, mb := median(a), median(b)
	diff = (mb - ma) / ma
	spreadA, spreadB = iqrFrac(a), iqrFrac(b)
	return diff, spreadA, spreadB, math.Abs(diff) <= bound && max(spreadA, spreadB) <= bound
}

// selfCheck answers "do two sets of runs of the same code agree?": two
// back-to-back sets of selfCheckRuns invocations of this binary per
// workload, invocation i of either set on seed+i. For every (workload,
// end-to-end metric) pair it prints both medians, their relative
// difference, each set's spread and the bound, and fails if any pair
// disagrees (see agreement).
func selfCheck(ctx context.Context, e *env, seed int64) int {
	raw, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck:", err)
		return 1
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck: parsing BENCHMARK.json:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck:", err)
		return 1
	}

	// values[set][workload][metric] holds one value per invocation.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := 0; i < selfCheckRuns; i++ {
			for _, w := range c.Workloads {
				res, err := invoke(ctx, self, e.root, w.Name, seed+int64(i))
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: selfcheck: %s seed %d: %v\n", w.Name, seed+int64(i), err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: selfcheck: %s seed %d: %d of %d ops failed\n", w.Name, seed+int64(i), res.Failed, res.Attempted)
					return 1
				}
				if values[set][w.Name] == nil {
					values[set][w.Name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
				}
				fmt.Printf("set %d run %d %s:", set+1, i+1, w.Name)
				names := make([]string, 0, len(res.Metrics))
				for name := range res.Metrics {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					fmt.Printf(" %s=%.6g", name, res.Metrics[name].Value)
				}
				fmt.Println()
			}
		}
	}

	fmt.Printf("\n%-15s %-21s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median-1", "median-2", "diff", "spread-1", "spread-2", "bound", "verdict")
	bad := 0
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			diff, sa, sb, ok := agreement(a, b, m.Bound)
			verdict := "ok"
			if !ok {
				verdict = "EXCEEDS"
				bad++
			}
			fmt.Printf("%-15s %-21s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				w.Name, m.Name, median(a), median(b), diff*100, sa*100, sb*100, m.Bound*100, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\nselfcheck: %d (workload, metric) pairs exceed their bound\n", bad)
		return 1
	}
	fmt.Printf("\nselfcheck: all %d (workload, metric) pairs within their bounds\n", len(c.Workloads)*len(c.EndToEnd))
	return 0
}

// invoke runs this binary once, exactly as the driver would, and parses
// the last line of its standard output.
func invoke(ctx context.Context, self, root, workload string, seed int64) (*result, error) {
	cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(runSeconds), "--trace", "0")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("parsing the result line %q: %w", last, err)
	}
	return &res, nil
}
