package bench

import (
	"fmt"
	"strings"
	"testing"

	"trustmap/internal/tn"
	"trustmap/internal/workload"
)

func TestFig5SmokeAndShape(t *testing.T) {
	s := Fig5([]int{1, 2, 3, 4, 5, 6})
	if len(s.Points) != 6 {
		t.Fatalf("points=%d", len(s.Points))
	}
	// Exponential shape: each added oscillator roughly doubles the model
	// count; the last timed point must be much slower than the first.
	first, last := s.Points[0].Seconds, s.Points[len(s.Points)-1].Seconds
	if last < 4*first {
		t.Errorf("expected super-linear growth: first %.6fs last %.6fs", first, last)
	}
}

func TestFig8aRASmoke(t *testing.T) {
	s := Fig8aRA([]int{10, 100, 500}, 2)
	if len(s.Points) != 3 {
		t.Fatal("missing points")
	}
	for _, p := range s.Points {
		if p.Seconds <= 0 {
			t.Errorf("non-positive timing at %d", p.X)
		}
	}
}

func TestFig8bSmoke(t *testing.T) {
	ra := Fig8bRA([]int{100, 1000}, 2, 42)
	if len(ra.Points) != 2 {
		t.Fatal("missing RA points")
	}
	lps := Fig8bLP([]int{20}, 42)
	if len(lps.Points) != 1 {
		t.Fatal("missing LP point")
	}
}

func TestFig8cSmokeLinear(t *testing.T) {
	s := Fig8c([]int{100, 1000}, 7)
	if len(s.Points) != 2 {
		t.Fatal("missing points")
	}
	// Bulk resolution must be roughly linear in object count: 10x objects
	// should cost far less than 100x time.
	ratio := s.Points[1].Seconds / s.Points[0].Seconds
	if ratio > 100 {
		t.Errorf("bulk scaling looks super-linear: ratio %.1f for 10x objects", ratio)
	}
}

func TestFig15QuadraticShape(t *testing.T) {
	s := Fig15([]int{50, 100, 200, 400}, 2)
	slope := FitSlope(s)
	// The worst-case family must scale clearly super-linearly (the
	// theoretical slope is 2; allow measurement noise).
	if slope < 1.3 {
		t.Errorf("nested-SCC slope %.2f; expected clearly super-linear (~2)", slope)
	}
}

func TestBulkSeqVsParSmoke(t *testing.T) {
	series := BulkSeqVsPar(100, []int{20, 50}, 4, 11)
	if len(series) != 3 {
		t.Fatalf("series=%d want 3", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: points=%d want 2", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Seconds <= 0 {
				t.Errorf("%s: non-positive timing at %d", s.Name, p.X)
			}
		}
	}
}

func TestBulkDedupSmoke(t *testing.T) {
	series, points := BulkDedup(200, []int{50, 200}, 8, 1, 11)
	if len(series) != 2 || len(points) != 2 {
		t.Fatalf("series=%d points=%d want 2/2", len(series), len(points))
	}
	for _, p := range points {
		if p.SecsDedup <= 0 || p.SecsNoDedup <= 0 {
			t.Errorf("non-positive timing at %d objects", p.Objects)
		}
		if p.Stats.Objects != p.Objects {
			t.Errorf("stats cover %d objects, want %d", p.Stats.Objects, p.Objects)
		}
		if p.Stats.DistinctSignatures <= 0 || p.Stats.DistinctSignatures > 8 {
			t.Errorf("distinct signatures %d, want 1..8", p.Stats.DistinctSignatures)
		}
	}
}

func TestClusteredAndAllDistinctWorkloads(t *testing.T) {
	bin, objs := ClusteredBulkWorkload(100, 60, 5, 3)
	if bin == nil || len(objs) != 60 {
		t.Fatalf("clustered workload: %d objects", len(objs))
	}
	seen := map[string]bool{}
	for _, bs := range objs {
		seen[fmt.Sprintf("%p", bs)] = true // prototypes are shared by pointer
	}
	if len(seen) > 5 {
		t.Errorf("clustered workload has %d distinct prototypes, want <= 5", len(seen))
	}
	_, dobjs := AllDistinctBulkWorkload(100, 40, 3)
	vals := map[tn.Value]bool{}
	for _, k := range workload.ObjectKeys(dobjs) {
		for _, v := range dobjs[k] {
			if strings.HasPrefix(string(v), "uniq") {
				vals[v] = true
			}
		}
	}
	if len(vals) != 40 {
		t.Errorf("all-distinct workload has %d unique markers, want 40", len(vals))
	}
}

func TestSeriesFormatting(t *testing.T) {
	s := Series{Name: "test", XLabel: "n", Points: []Point{{X: 10, Seconds: 0.5}, {X: 20, Note: "DNF (budget)"}}}
	out := s.String()
	if !strings.Contains(out, "# test") || !strings.Contains(out, "DNF") {
		t.Errorf("format wrong:\n%s", out)
	}
}

func TestFitSlope(t *testing.T) {
	lin := Series{Points: []Point{{X: 10, Seconds: 0.1}, {X: 100, Seconds: 1.0}}}
	if s := FitSlope(lin); s < 0.9 || s > 1.1 {
		t.Errorf("linear slope=%f", s)
	}
	quad := Series{Points: []Point{{X: 10, Seconds: 0.1}, {X: 100, Seconds: 10}}}
	if s := FitSlope(quad); s < 1.9 || s > 2.1 {
		t.Errorf("quadratic slope=%f", s)
	}
	if FitSlope(Series{}) != 0 {
		t.Error("empty series slope must be 0")
	}
}
