// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives one of three workloads against the real entry
// points users meet — the planning service over loopback HTTP for
// cold-2srv and hot-zipf, the policy and direct packages in process for
// batch-sweep — checks every answer, and prints its metrics:
//
//	perfbench --workload cold-2srv --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer metrics instead: timings of each layer's
// public functions, work counts read from the counters the program
// registers in internal/obs, and the price of the service's own tracing.
// Human-readable lines (every timing with its sample count n) precede the
// last line, a JSON object {"correct", "attempted", "failed", "metrics"}.
//
// perfbench/run.sh builds the harness from the checkout and runs it; see
// perfbench/README.md for the workloads and the layer → end-to-end map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// gated names the end-to-end metrics of the result line: those every
// workload measures, none reads 0 and each repeats within a few percent
// from run to run. Printed only: the tail percentiles (not every
// workload has ten samples beyond them), fail_ratio (0 on a healthy run;
// the result line carries attempted and failed) and peak_rss_mb (its
// high-water mark moves by 20% between runs of hot-zipf, whose ~20 MB
// footprint is set by where garbage collections fall during priming).
var gated = map[string]bool{"latency_p50_ms": true, "ops_per_s": true, "setup_s": true}

// setups is how many times each run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setups = 3

// workload is one named traffic mix.
type workload struct {
	name string
	// loop states the load shape: open or closed, with rate or clients.
	loop string
	// newSession performs one complete set-up. spans is set only in the
	// traced run: the service exports its span trees there.
	newSession func(seed uint64, spans *spanSink) (session, error)
}

// session is one set-up workload, ready to measure.
type session interface {
	// measure runs the timed window of the given length.
	measure(d time.Duration) (*loadResult, error)
	// verify runs the checks that sit outside the timed window and
	// returns how many operations it checked and how many failed.
	verify(res *loadResult) (checked, failed int)
	// countPhase runs a fixed, seed-determined prefix of the workload
	// one operation at a time and returns the number of operations, so
	// the counters it moves repeat exactly for a fixed seed.
	countPhase() (ops, failed int, err error)
	// traceOverhead prices the program's own observability on this
	// workload: instrumentation on versus off, in alternating pairs.
	traceOverhead() (pct float64, pairs int, err error)
	// probeSetup names the models and requests the layer probes use.
	probeSetup() probeSetup
	close()
}

var workloads = []workload{coldWorkload, hotWorkload, batchWorkload}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-2srv, hot-zipf or batch-sweep")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 30, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload cold-2srv|hot-zipf|batch-sweep, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	rep, err := execute(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one reported number with the sample count behind it and a
// note for the human-readable line.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
	// missing marks a metric the sample cannot support.
	missing bool
}

// execute sets the workload up several times, measures it once and
// returns the report; every line but the last goes to out.
func execute(w workload, seed uint64, d time.Duration, traced bool, out io.Writer) (*report, error) {
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%t loop=%q nproc=%d gomaxprocs=%d go=%s\n",
		w.name, seed, d.Seconds(), traced, w.loop, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var spans *spanSink
	if traced {
		spans = &spanSink{}
	}
	var setupTimes []float64
	var s session
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
			runtime.GC() // each set-up starts from the same heap
		}
		t0 := time.Now()
		var err error
		if s, err = w.newSession(seed, spans); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}

	spans.reset() // drop the set-ups' span trees
	before := snapshotCounters()
	res, err := s.measure(d)
	after := snapshotCounters()
	if err != nil {
		s.close()
		return nil, fmt.Errorf("measure: %w", err)
	}
	checked, failedChecks := s.verify(res)
	s.close()
	rep := &report{Attempted: res.attempted, Failed: res.failed + failedChecks, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "# checks: %d operations checked as they ran, %d re-checked after the window, %d failed; "+
		"%d served probabilities lay outside [0, 1] by round-off (at most %g)\n",
		res.attempted, checked, rep.Failed, roundOffs.Load(), roundOffTol)

	if res.open {
		fmt.Fprintf(out, "# generator: send lag p99 %.3f ms over %d sends; %s\n",
			quantile(sortedCopy(res.sendLagMs), 0.99), len(res.sendLagMs), validity(res))
	}
	e2e := endToEnd(res, setupTimes)
	for _, m := range e2e {
		printMetric(out, m)
		if !traced && gated[m.name] {
			rep.Metrics[m.name] = metricValue{m.value, m.unit}
		}
	}
	if traced {
		layers, failed, err := traceLayers(w, seed, res, before, after, spans)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		rep.Failed += failed
		fmt.Fprintln(out, "# per-layer metrics of the traced run (\"computed\" marks values derived from counters)")
		for _, m := range layers {
			printMetric(out, m)
			rep.Metrics[m.name] = metricValue{m.value, m.unit}
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// endToEnd derives the end-to-end metrics of one measured window.
func endToEnd(res *loadResult, setupTimes []float64) []metric {
	lat := sortedCopy(res.latMs)
	n := len(lat)
	p50s, rates := res.windowStats()
	ms := []metric{{name: "latency_p50_ms", unit: "ms", value: median(p50s), n: n,
		note: fmt.Sprintf("median of %d sub-window medians; whole window %.6g", len(p50s), quantile(lat, 0.5))}}
	for _, q := range []float64{0.9, 0.99} {
		name := fmt.Sprintf("latency_p%g_ms", q*100)
		if v, ok := honestQuantile(lat, q); ok {
			ms = append(ms, metric{name: name, unit: "ms", value: v, n: n, note: fmt.Sprintf("%d samples beyond", beyond(n, q))})
		} else {
			ms = append(ms, metric{name: name, unit: "ms", n: n, missing: true, note: "not reported: fewer than 10 samples beyond it"})
		}
	}
	ms = append(ms,
		metric{name: "ops_per_s", unit: "ops/s", value: median(rates), n: n,
			note: fmt.Sprintf("median of %d sub-windows; whole window %.6g over %.3f s",
				len(rates), float64(n)/res.elapsed.Seconds(), res.elapsed.Seconds())},
		metric{name: "fail_ratio", unit: "failed/attempted", value: safeDiv(float64(res.failed), float64(res.attempted)), n: res.attempted},
		metric{name: "setup_s", unit: "s", value: median(setupTimes), n: len(setupTimes),
			note: fmt.Sprintf("median of %.4g", setupTimes)},
		metric{name: "peak_rss_mb", unit: "MB", value: peakRSSMB(), n: 1, note: "process high-water mark"},
	)
	return ms
}

func printMetric(out io.Writer, m metric) {
	if m.missing {
		fmt.Fprintf(out, "%-30s %14s %-16s n=%-7d %s\n", m.name, "-", m.unit, m.n, m.note)
		return
	}
	fmt.Fprintf(out, "%-30s %14.6g %-16s n=%-7d %s\n", m.name, m.value, m.unit, m.n, m.note)
}

// validity marks an open-loop window whose generator fell behind its
// schedule: its latencies then under-state queueing.
func validity(res *loadResult) string {
	if res.generatorBehind() {
		return "INVALID: the generator fell behind its schedule"
	}
	return "valid: the generator kept its schedule"
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// errCheck marks a correctness check that failed.
var errCheck = errors.New("check failed")

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
