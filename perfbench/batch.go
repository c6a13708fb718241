package main

import (
	"fmt"
	"math"
	"time"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/direct"
	"dtr/internal/exper"
	"dtr/internal/obs"
	"dtr/internal/policy"
	"dtr/internal/rngutil"
)

// batch-sweep: one caller runs a fixed job list in process, as dtrlab
// does at its quick fidelity: exhaustive Optimize2 sweeps of the paper's
// severe-delay Pareto model for each objective, and Algorithm 1 on the
// five-server Table II shape. Each job builds its own solver. There is
// no HTTP and no cache; the par pool runs at GOMAXPROCS.
var batchWorkload = workload{
	name:       "batch-sweep",
	loop:       "closed, 1 caller, whole passes over the job list",
	newSession: newBatchSession,
}

// The severe-delay sweep geometry: dtrlab's quick-fidelity lattice.
const (
	batchGrid     = 2048
	batchHorizon  = 2600
	batchDeadline = exper.QoSDeadline
	batchStream   = 1 << 40
)

// batchJob is one job of the list with the answer recorded for it.
type batchJob struct {
	name string
	run  func() error
}

// expect2 is a recorded two-server optimum at the batch geometry.
type expect2 struct {
	l12, l21 int
	value    float64
}

// sweepJob is an exhaustive Optimize2 on a freshly built solver.
func sweepJob(name string, m *core.Model, obj policy.Objective, want expect2) batchJob {
	return batchJob{name: name, run: func() error {
		s, err := severeSolver(m)
		if err != nil {
			return err
		}
		res, err := policy.Optimize2(s, exper.M1, exper.M2, obj, policy.Options2{Exhaustive: true, Deadline: batchDeadline})
		if err != nil {
			return err
		}
		return want.check(res)
	}}
}

func severeSolver(m *core.Model) (*direct.Solver, error) {
	return direct.NewSolver(m, direct.Config{N: batchGrid, Horizon: batchHorizon,
		MaxQueue: [2]int{exper.M1 + exper.M2, exper.M1 + exper.M2}})
}

// check compares an optimum with the recorded one: the policy exactly,
// the value to 1e-9 relative (a change of floating-point evaluation
// order may move the last bits).
func (w expect2) check(res policy.Result2) error {
	feasible := (exper.M1 + 1) * (exper.M2 + 1)
	if res.L12 != w.l12 || res.L21 != w.l21 || math.Abs(res.Value-w.value) > 1e-9*math.Abs(w.value) || res.Evaluations != feasible {
		return fmt.Errorf("%w: optimum (%d, %d) = %v after %d evaluations, recorded (%d, %d) = %v after %d",
			errCheck, res.L12, res.L21, res.Value, res.Evaluations, w.l12, w.l21, w.value, feasible)
	}
	return nil
}

// severeMeanOptimum is the recorded mean-time optimum of the reliable
// severe-delay model.
var severeMeanOptimum = expect2{29, 0, 149.82376508946348}

// alg1Want is Algorithm 1's recorded mean-time plan for the Table II
// shape at its default grid (4096) and iteration cap.
var alg1Want = "[[0 0 0 24 33] [0 0 0 12 20] [0 0 0 0 0] [0 0 0 0 0] [0 0 0 0 0]]"

func alg1Job(m *core.Model, q []int) batchJob {
	return batchJob{name: "alg1-5srv-mean", run: func() error {
		p, err := policy.Algorithm1(m, q, policy.Alg1Options{Objective: policy.ObjMeanTime})
		if err != nil {
			return err
		}
		if got := fmt.Sprint([][]int(p)); got != alg1Want {
			return fmt.Errorf("%w: Algorithm 1 plan %s, recorded %s", errCheck, got, alg1Want)
		}
		return nil
	}}
}

type batchSession struct {
	seed            uint64
	jobs            []batchJob
	reliable, fails *core.Model
	cluster         *core.Model
	clusterQ        []int
}

// batchModels builds the severe-delay Pareto models (reliable and
// failure-prone) and the five-server cluster model.
func batchModels() (reliable, failing, cluster *core.Model, q []int, err error) {
	reliable = exper.CanonicalModel(dist.FamilyPareto1, exper.SevereDelay, true)
	failing = exper.CanonicalModel(dist.FamilyPareto1, exper.SevereDelay, false)
	spec := clusterSpec()
	cluster, q, err = spec.Build()
	return reliable, failing, cluster, q, err
}

// newBatchSession builds the models and the job list and warms the
// process with one coarse sweep. Like dtrlab without observability
// flags it runs with no metrics registry, except in the traced run,
// which reads the counters.
func newBatchSession(seed uint64, spans *spanSink) (session, error) {
	var reg *obs.Registry
	if spans != nil {
		reg = obs.NewRegistry()
	}
	obs.SetDefault(reg)
	obs.SetTracer(nil)
	rel, fail, cl, q, err := batchModels()
	if err != nil {
		return nil, err
	}
	b := &batchSession{seed: seed, reliable: rel, fails: fail, cluster: cl, clusterQ: q}
	b.jobs = []batchJob{
		sweepJob("exhaustive-mean", rel, policy.ObjMeanTime, severeMeanOptimum),
		sweepJob("exhaustive-qos", rel, policy.ObjQoS, expect2{23, 0, 0.935503226750611}),
		sweepJob("exhaustive-reliability", fail, policy.ObjReliability, expect2{0, 37, 0.739318304837375}),
		alg1Job(cl, q),
	}
	if _, err := b.coarse(); err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return b, nil
}

// coarse builds a severe-delay solver and runs the default
// coarse-to-fine mean-time sweep on it.
func (b *batchSession) coarse() (time.Duration, error) {
	t0 := time.Now()
	s, err := severeSolver(b.reliable)
	if err != nil {
		return 0, err
	}
	_, err = policy.Optimize2(s, exper.M1, exper.M2, policy.ObjMeanTime, policy.Options2{})
	return time.Since(t0), err
}

func (b *batchSession) close() {}

// runJob times one job and counts it; start is the window's start.
func (b *batchSession) runJob(j batchJob, res *loadResult, start time.Time) {
	t0 := time.Now()
	err := j.run()
	end := time.Now()
	res.latMs = append(res.latMs, msSince(t0, end))
	res.atS = append(res.atS, end.Sub(start).Seconds())
	res.attempted++
	if err != nil {
		res.failed++
		fmt.Printf("# failed: batch job %s: %v\n", j.name, err)
	}
}

// measure runs whole passes over the job list, each in a seeded order,
// and stops before a pass that would end after the window, so every job
// kind counts equally. The passes are the sub-windows of the reported
// medians.
func (b *batchSession) measure(d time.Duration) (*loadResult, error) {
	res := &loadResult{clients: 1}
	start := time.Now()
	for pass := 0; ; pass++ {
		for _, k := range rngutil.Stream(b.seed, batchStream+pass).Perm(len(b.jobs)) {
			b.runJob(b.jobs[k], res, start)
		}
		elapsed := time.Since(start)
		res.passEnds = append(res.passEnds, elapsed.Seconds())
		meanPass := elapsed / time.Duration(pass+1)
		if elapsed+meanPass > d {
			res.elapsed = elapsed
			return res, nil
		}
	}
}

// verify has nothing left to do: every job checks its optimum.
func (b *batchSession) verify(*loadResult) (checked, failed int) { return 0, 0 }

func (b *batchSession) countPhase() (ops, failed int, err error) {
	res := &loadResult{}
	start := time.Now()
	for _, j := range b.jobs {
		b.runJob(j, res, start)
	}
	return res.attempted, res.failed, nil
}

// traceOverhead prices the metrics registry on a coarse sweep with its
// solver build: registry on versus off, alternating.
func (b *batchSession) traceOverhead() (pct float64, pairs int, err error) {
	defer obs.SetDefault(obs.Default())
	return overheadPairs(3, func(instrumented bool, _ int) (time.Duration, error) {
		var reg *obs.Registry
		if instrumented {
			reg = obs.NewRegistry()
		}
		obs.SetDefault(reg)
		return b.coarse()
	})
}

func (b *batchSession) probeSetup() probeSetup {
	return probeSetup{
		reliable: b.reliable, failing: b.fails,
		m1: exper.M1, m2: exper.M2,
		gridN: batchGrid, horizon: batchHorizon, deadline: batchDeadline,
		requests: func(i int) (request, error) {
			rq, _, err := coldRequest(b.seed, i)
			return rq, err
		},
	}
}
