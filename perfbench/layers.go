package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/exper"
	"dtr/internal/fft"
	"dtr/internal/gridfn"
	"dtr/internal/obs"
	"dtr/internal/policy"
	"dtr/internal/serve"
	"dtr/modelspec"
)

// perLayerNames lists the metrics of a traced run, on every workload, in
// the order BENCHMARK.json lists them. A layer a workload does not use
// reports its measured zero.
var perLayerNames = []string{
	"serve.cache_hit_ratio", "serve.coalesced", "serve.rejects", "serve.queue_wait_ms_p90",
	"direct.fft_dup_ratio", "load.send_lag_p99_ms", "load.fresh_requests", "harness.traced_latency_p50_ms",
	"direct.evals", "gridfn.folds", "direct.fft_cache_misses", "fft.transforms",
	"policy.sweep_evals", "policy.alg1_pair_solves", "policy.alg1_iterations",
	"serve.computes", "serve.cache_hits", "serve.cache_misses",
	"obs.trace_overhead_pct",
	"fft.forward_us.n16384", "fft.forward_us.n8192", "fft.forward_us.n4096",
	"direct.build_ms", "direct.build_folds", "direct.alloc_mb_per_build",
	"gridfn.prefixes_ms", "gridfn.maxindep_us",
	"direct.eval_us.mean", "direct.alloc_kb_per_eval", "direct.eval_us.qos", "direct.eval_us.reliability",
	"policy.optimize2_ms", "policy.exhaustive_s", "policy.alg1_ms",
	"modelspec.parse_us", "serve.handler_us",
}

// probeSetup names what the layer probes run on: the workload's
// two-server model (reliable for mean time, failing for reliability),
// queues, lattice and deadline, and a source of its requests.
type probeSetup struct {
	reliable, failing *core.Model
	m1, m2            int
	gridN             int
	horizon           float64 // 0 = the solver's automatic horizon, as served
	deadline          float64
	requests          func(i int) (request, error)
}

// specProbe derives a probe setup from a two-server spec at a grid.
func specProbe(spec modelspec.SystemSpec, grid int, requests func(int) (request, error)) probeSetup {
	failing, q, err := spec.Build()
	if err != nil {
		panic(fmt.Sprintf("perfbench: probe spec: %v", err)) // the probe specs are fixed and valid
	}
	rel := spec
	rel.Servers = append([]modelspec.ServerSpec(nil), spec.Servers...)
	for i := range rel.Servers {
		rel.Servers[i].Failure = nil
	}
	rel.FN = nil
	reliableModel, _, err := rel.Build()
	if err != nil {
		panic(fmt.Sprintf("perfbench: probe spec: %v", err))
	}
	return probeSetup{reliable: reliableModel, failing: failing, m1: q[0], m2: q[1],
		gridN: grid, deadline: qosDeadline(spec), requests: requests}
}

func (p probeSetup) solverConfig() direct.Config {
	return direct.Config{N: p.gridN, Horizon: p.horizon, MaxQueue: [2]int{p.m1 + p.m2, p.m1 + p.m2}}
}

// overheadPairs times op with instrumentation on and off, n pairs in
// alternating order, and returns the median on/off ratio as a percent
// overhead.
func overheadPairs(n int, op func(instrumented bool, i int) (time.Duration, error)) (float64, int, error) {
	var ratios []float64
	for i := 0; i < n; i++ {
		var on, off time.Duration
		for _, instrumented := range [][2]bool{{true, false}, {false, true}}[i%2] {
			d, err := op(instrumented, i)
			if err != nil {
				return 0, 0, err
			}
			if instrumented {
				on = d
			} else {
				off = d
			}
		}
		ratios = append(ratios, float64(on)/float64(off))
	}
	return (median(ratios) - 1) * 100, n, nil
}

// counters is a snapshot of the registry's counters.
type counters map[string]uint64

func snapshotCounters() counters { return obs.Default().Snapshot().Counters }

// delta is the growth of one counter.
func delta(before, after counters, name string) float64 {
	return float64(after[name] - before[name])
}

// traceLayers is the traced part of a --trace 1 run: the work counts of
// a fixed prefix, the serve-layer figures of the measured window, the
// layer probes and the tracing price. It returns the per-layer metrics
// and how many probe checks failed.
func traceLayers(w workload, seed uint64, res *loadResult, before, after counters, spans *spanSink) ([]metric, int, error) {
	var ms []metric
	add := func(name, unit string, v float64, n int, note string) {
		ms = append(ms, metric{name: name, unit: unit, value: v, n: n, note: note})
	}

	// The measured window, under real concurrency.
	hits := delta(before, after, "dtr_serve_cache_hits_total")
	misses := delta(before, after, "dtr_serve_cache_misses_total")
	add("serve.cache_hit_ratio", "ratio", safeDiv(hits, hits+misses), int(hits+misses),
		fmt.Sprintf("window; %d of %d operations carried fresh specs", res.fresh, res.attempted))
	add("serve.coalesced", "count", delta(before, after, "dtr_serve_coalesced_total"), res.attempted, "window; depends on timing")
	rejects := delta(before, after, `dtr_serve_errors_total{code="429"}`) + delta(before, after, `dtr_serve_errors_total{code="504"}`)
	add("serve.rejects", "count", rejects, res.attempted, "window; HTTP 429 and 504")
	waits, err := spans.waits()
	if err != nil {
		return nil, 0, err
	}
	sort.Float64s(waits)
	if v, ok := honestQuantile(waits, 0.9); ok {
		add("serve.queue_wait_ms_p90", "ms", v, len(waits), "window; queue_wait spans")
	} else {
		ms = append(ms, metric{name: "serve.queue_wait_ms_p90", unit: "ms", n: len(waits), missing: true,
			note: "window; fewer than 10 queue waits beyond p90, reported as 0"})
	}
	misses2 := delta(before, after, "dtr_direct_fft_cache_misses_total")
	add("direct.fft_dup_ratio", "ratio", safeDiv(delta(before, after, "dtr_direct_fft_cache_dup_computes_total"), misses2),
		int(misses2), "window; duplicate computes per miss, depends on timing")
	if res.open {
		add("load.send_lag_p99_ms", "ms", quantile(sortedCopy(res.sendLagMs), 0.99), len(res.sendLagMs), validity(res))
	} else {
		add("load.send_lag_p99_ms", "ms", 0, 0, "closed loop: no schedule")
	}
	add("load.fresh_requests", "count", float64(res.fresh), res.attempted, "window")
	add("harness.traced_latency_p50_ms", "ms", median(res.latMs), len(res.latMs),
		"window with span capture; compare with the untraced latency_p50_ms")

	// A fixed prefix, one operation at a time: single-valued counts
	// repeat exactly for a fixed seed.
	s, err := w.newSession(seed, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("count phase set-up: %w", err)
	}
	defer s.close()
	if obs.Default() == nil {
		obs.SetDefault(obs.NewRegistry())
	}
	c0 := snapshotCounters()
	ops, failed, err := s.countPhase()
	if err != nil {
		return nil, 0, fmt.Errorf("count phase: %w", err)
	}
	c1 := snapshotCounters()
	ms = append(ms, workCounts(c0, c1, ops)...)

	pct, pairs, err := s.traceOverhead()
	if err != nil {
		return nil, 0, fmt.Errorf("tracing overhead: %w", err)
	}
	add("obs.trace_overhead_pct", "%", pct, pairs, "median on/off ratio over alternating pairs")

	probed, probeFailed, err := probeLayers(s.probeSetup())
	if err != nil {
		return nil, 0, err
	}
	ms = append(ms, probed...)
	for i, m := range ms {
		if i >= len(perLayerNames) || m.name != perLayerNames[i] {
			return nil, 0, fmt.Errorf("per-layer metric %d is %q, not the listed one", i, m.name)
		}
	}
	if len(ms) != len(perLayerNames) {
		return nil, 0, fmt.Errorf("%d per-layer metrics, %d listed", len(ms), len(perLayerNames))
	}
	return ms, failed + probeFailed, nil
}

// workCounts turns counter growth over ops operations into per-operation
// counts.
func workCounts(c0, c1 counters, ops int) []metric {
	per := func(name string) float64 { return delta(c0, c1, name) / float64(ops) }
	note := fmt.Sprintf("per op over a fixed prefix of %d ops", ops)
	m := func(name, counter string) metric {
		return metric{name: name, unit: "count/op", value: per(counter), n: ops, note: note + "; " + counter}
	}
	// A miss that loses the publish race to a concurrent worker is
	// counted as a miss and as a duplicate; net of duplicates, misses
	// are the distinct transforms, which do not depend on timing.
	folds := per("dtr_solver_folds_total")
	misses := (delta(c0, c1, "dtr_direct_fft_cache_misses_total") -
		delta(c0, c1, "dtr_direct_fft_cache_dup_computes_total")) / float64(ops)
	return []metric{
		m("direct.evals", "dtr_direct_evals_total"),
		m("gridfn.folds", "dtr_solver_folds_total"),
		{name: "direct.fft_cache_misses", unit: "count/op", value: misses, n: ops,
			note: note + "; dtr_direct_fft_cache_misses_total net of dup computes"},
		{name: "fft.transforms", unit: "count/op", value: 2*folds + misses, n: ops,
			note: "computed: 2 per solve fold + 1 per distinct cache miss; build folds add 3 each (direct.build_folds)"},
		m("policy.sweep_evals", "dtr_policy_sweep_evaluations_total"),
		m("policy.alg1_pair_solves", "dtr_policy_alg1_pair_solves_total"),
		m("policy.alg1_iterations", "dtr_policy_alg1_iterations_total"),
		m("serve.computes", "dtr_serve_computes_total"),
		m("serve.cache_hits", "dtr_serve_cache_hits_total"),
		m("serve.cache_misses", "dtr_serve_cache_misses_total"),
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeEach runs fn reps times and returns the median call in the unit.
func timeEach(reps int, unit time.Duration, fn func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0))/float64(unit))
	}
	return median(ts), nil
}

// allocated is the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// probeLayers times each layer's public functions at the workload's
// parameters.
func probeLayers(p probeSetup) ([]metric, int, error) {
	var ms []metric
	failed := 0
	add := func(name, unit string, v float64, n int, note string) {
		ms = append(ms, metric{name: name, unit: unit, value: v, n: n, note: note})
	}
	cfg := p.solverConfig()
	shape := fmt.Sprintf("N=%d, queues %d+%d", p.gridN, p.m1, p.m2)

	// fft
	r := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{16384, 8192, 4096} {
		src := make([]complex128, n)
		for i := range src {
			src[i] = complex(r.Float64(), 0)
		}
		buf := make([]complex128, n)
		const reps = 200
		v, _ := timeEach(reps, time.Microsecond, func() error {
			copy(buf, src)
			fft.Forward(buf)
			return nil
		})
		add(fmt.Sprintf("fft.forward_us.n%d", n), "us", v, reps, "median call, copy included")
	}

	// direct build (also gives the lattice step for the gridfn probes)
	var sv *direct.Solver
	a0 := allocated()
	const builds = 3
	v, err := timeEach(builds, time.Millisecond, func() error {
		var err error
		sv, err = direct.NewSolver(p.failing, cfg)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	add("direct.build_ms", "ms", v, builds, shape)
	add("direct.build_folds", "count", float64(sv.Diagnostics().BuildFolds), 1, shape)
	add("direct.alloc_mb_per_build", "MB", float64(allocated()-a0)/builds/(1<<20), builds, shape)

	// gridfn
	var pre []*gridfn.Lattice
	v, _ = timeEach(builds, time.Millisecond, func() error {
		pre = gridfn.FromCDF(p.reliable.Service[0].CDF, sv.Dx(), p.gridN).Prefixes(p.m1 + p.m2)
		return nil
	})
	add("gridfn.prefixes_ms", "ms", v, builds, "one server's prefix chain, "+shape)
	x, y := pre[len(pre)/2], pre[len(pre)/3]
	const maxReps = 100
	v, _ = timeEach(maxReps, time.Microsecond, func() error { x.MaxIndep(y); return nil })
	add("gridfn.maxindep_us", "us", v, maxReps, shape)

	// direct evaluations on warm caches
	rel, err := direct.NewSolver(p.reliable, cfg)
	if err != nil {
		return nil, 0, err
	}
	var pols [][2]int
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			pols = append(pols, [2]int{a * p.m1 / 4, b * p.m2 / 4})
		}
	}
	evalProbe := func(s *direct.Solver, f func(s *direct.Solver, l [2]int) error) (float64, float64, error) {
		for _, l := range pols {
			if err := f(s, l); err != nil {
				return 0, 0, err
			}
		}
		a0 := allocated()
		i := 0
		v, err := timeEach(len(pols), time.Microsecond, func() error {
			i++
			return f(s, pols[i-1])
		})
		return v, float64(allocated()-a0) / float64(len(pols)) / 1024, err
	}
	v, kb, err := evalProbe(rel, func(s *direct.Solver, l [2]int) error {
		_, err := s.MeanTime(p.m1, p.m2, l[0], l[1])
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	add("direct.eval_us.mean", "us", v, len(pols), "warm caches, "+shape)
	add("direct.alloc_kb_per_eval", "KB", kb, len(pols), "mean time, warm caches")
	v, _, err = evalProbe(rel, func(s *direct.Solver, l [2]int) error {
		_, err := s.QoS(p.m1, p.m2, l[0], l[1], p.deadline)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	add("direct.eval_us.qos", "us", v, len(pols), "warm caches, "+shape)
	v, _, err = evalProbe(sv, func(s *direct.Solver, l [2]int) error {
		_, err := s.Reliability(p.m1, p.m2, l[0], l[1])
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	add("direct.eval_us.reliability", "us", v, len(pols), "warm caches, "+shape)

	// policy
	var coarse []float64
	var evals int
	for i := 0; i < builds; i++ {
		s, err := direct.NewSolver(p.reliable, cfg)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		res, err := policy.Optimize2(s, p.m1, p.m2, policy.ObjMeanTime, policy.Options2{})
		if err != nil {
			return nil, 0, err
		}
		coarse = append(coarse, float64(time.Since(t0))/float64(time.Millisecond))
		evals = res.Evaluations
	}
	add("policy.optimize2_ms", "ms", median(coarse), builds, fmt.Sprintf("coarse mean-time sweep, prebuilt solver, %d evaluations, %s", evals, shape))

	b := &batchSession{}
	b.reliable, b.fails, b.cluster, b.clusterQ, err = batchModels()
	if err != nil {
		return nil, 0, err
	}
	s, err := severeSolver(b.reliable)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	res, err := policy.Optimize2(s, exper.M1, exper.M2, policy.ObjMeanTime, policy.Options2{Exhaustive: true})
	if err != nil {
		return nil, 0, err
	}
	add("policy.exhaustive_s", "s", time.Since(t0).Seconds(), 1, "severe-delay Pareto, mean time, N=2048, prebuilt solver")
	if err := severeMeanOptimum.check(res); err != nil {
		failed++
		fmt.Printf("# failed: exhaustive probe: %v\n", err)
	}
	job := alg1Job(b.cluster, b.clusterQ)
	t0 = time.Now()
	if err := job.run(); err != nil {
		failed++
		fmt.Printf("# failed: Algorithm 1 probe: %v\n", err)
	}
	add("policy.alg1_ms", "ms", float64(time.Since(t0))/float64(time.Millisecond), 1, "five-server Table II shape, N=4096")

	// modelspec and the serve hit path, in process (no network)
	hit, parse, n, err := probeHitPath(p)
	if err != nil {
		return nil, 0, err
	}
	add("modelspec.parse_us", "us", parse, n, "Decode + Build + Fingerprint of a request's spec")
	add("serve.handler_us", "us", hit-parse, n, fmt.Sprintf("hit-path self time: %.1f us per hit minus modelspec.parse_us", hit))
	return ms, failed, nil
}

// probeHitPath primes a service with the workload's first requests at a
// small grid (the hit path does not depend on it) and times cache hits
// through its handler, and the modelspec work inside each.
func probeHitPath(p probeSetup) (hitUs, parseUs float64, n int, err error) {
	const (
		keys = 16
		reps = 30
	)
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	svc := serve.New(serve.Config{Registry: reg, Tracer: obs.NewTracer(obs.TracerConfig{})})
	h := svc.Handler()
	var rqs []request
	for i := 0; i < keys; i++ {
		rq, err := p.requests(i)
		if err != nil {
			return 0, 0, 0, err
		}
		rq.req.Grid = 256
		if rq, err = newRequest(rq.verb, rq.req); err != nil {
			return 0, 0, 0, err
		}
		rqs = append(rqs, rq)
	}
	serveOnce := func(rq request) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/"+rq.verb, bytes.NewReader(rq.body)))
		if rec.Code != 200 {
			return fmt.Errorf("%w: %s answered HTTP %d: %s", errCheck, rq.verb, rec.Code, rec.Body.Bytes())
		}
		return nil
	}
	for _, rq := range rqs {
		if err := serveOnce(rq); err != nil {
			return 0, 0, 0, err
		}
	}
	i := 0
	hitUs, err = timeEach(keys*reps, time.Microsecond, func() error {
		i++
		return serveOnce(rqs[i%keys])
	})
	if err != nil {
		return 0, 0, 0, err
	}
	specs := make([]json.RawMessage, len(rqs))
	for k, rq := range rqs {
		specs[k] = rq.req.Spec
	}
	i = 0
	parseUs, err = timeEach(keys*reps, time.Microsecond, func() error {
		i++
		spec, err := modelspec.Decode(specs[i%keys])
		if err != nil {
			return err
		}
		if _, _, err := spec.Build(); err != nil {
			return err
		}
		_, err = spec.Fingerprint([]byte(rqs[i%keys].verb))
		return err
	})
	return hitUs, parseUs, keys * reps, err
}
