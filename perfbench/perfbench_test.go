package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"dtr/internal/obs"
)

// TestHonestQuantile locks the reporting rule: a tail percentile needs at
// least ten samples beyond it.
func TestHonestQuantile(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true}, {19, 0.5, false}, {20, 0.5, true},
	} {
		if _, ok := honestQuantile(sample(c.n), c.q); ok != c.want {
			t.Errorf("n=%d q=%g: reported=%v, want %v", c.n, c.q, ok, c.want)
		}
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
}

// TestProbabilityCheck locks the round-off allowance of the response
// checks: values outside [0, 1] by at most roundOffTol pass and are
// counted, anything further fails.
func TestProbabilityCheck(t *testing.T) {
	f := func(x float64) *float64 { return &x }
	before := roundOffs.Load()
	for _, x := range []float64{0, 0.5, 1, -3e-20, 1 + 1e-11} {
		if err := prob("p", f(x)); err != nil {
			t.Errorf("prob(%g): %v", x, err)
		}
	}
	if got := roundOffs.Load() - before; got != 2 {
		t.Errorf("counted %d round-off excursions, want 2", got)
	}
	for _, x := range []*float64{nil, f(-1e-6), f(1.001)} {
		if err := prob("p", x); err == nil {
			t.Errorf("prob(%v) passed", show(x))
		}
	}
}

// TestWorkCountsRepeat runs each workload's count phase twice for one
// seed, each on a fresh set-up, and requires identical per-operation
// work counts. The counts it compares are the single-valued ones; the
// race-dependent duplicate computes and coalescing counts are not among
// them.
func TestWorkCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's count phase twice (about 30 s)")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]map[string]float64
			for k := range runs {
				s, err := w.newSession(7, nil)
				if err != nil {
					t.Fatal(err)
				}
				if obs.Default() == nil {
					obs.SetDefault(obs.NewRegistry())
				}
				c0 := snapshotCounters()
				ops, failed, err := s.countPhase()
				c1 := snapshotCounters()
				s.close()
				if err != nil || failed != 0 {
					t.Fatalf("count phase: %d failed, err %v", failed, err)
				}
				runs[k] = map[string]float64{}
				for _, m := range workCounts(c0, c1, ops) {
					runs[k][m.name] = m.value
				}
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Errorf("work counts differ between runs:\n%v\n%v", runs[0], runs[1])
			}
		})
	}
}

// TestBenchmarkFile checks that BENCHMARK.json names exactly the
// workloads and metrics the harness reports.
func TestBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, want)
	}
	e2e := map[string]bool{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = true
	}
	if !reflect.DeepEqual(e2e, gated) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", e2e, gated)
	}
	names = nil
	for _, m := range f.PerLayer {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, perLayerNames) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", names, perLayerNames)
	}
}

// TestWindowStats checks that one disturbed sub-window moves neither
// reported median.
func TestWindowStats(t *testing.T) {
	r := &loadResult{elapsed: 40 * time.Second, open: true}
	for i := 0; i < 400; i++ {
		at := float64(i) / 10
		lat := 1.0
		if at >= 10 && at < 15 {
			lat = 100 // the third 5-s slice is slow
		}
		r.atS, r.latMs = append(r.atS, at), append(r.latMs, lat)
	}
	p50s, rates := r.windowStats()
	if len(p50s) != 8 || median(p50s) != 1 || median(rates) != 10 {
		t.Errorf("p50s %v, rates %v: want 8 windows, median latency 1, median rate 10", p50s, rates)
	}
}

// TestClosedLoopRate checks the Little's-law throughput of a closed
// loop: two callers at one second per operation finish two per second.
func TestClosedLoopRate(t *testing.T) {
	r := &loadResult{elapsed: 10 * time.Second, clients: 2}
	for i := 0; i < 20; i++ {
		r.atS, r.latMs = append(r.atS, float64(i/2)+1), append(r.latMs, 1000)
	}
	if _, rates := r.windowStats(); median(rates) != 2 {
		t.Errorf("rates %v, want 2 per second", rates)
	}
}
