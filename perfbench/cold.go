package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dtr"
	"dtr/internal/rngutil"
	"dtr/internal/serve"
	"dtr/modelspec"
)

// cold-2srv: a closed loop with one client per core. Every request
// carries a fresh seeded two-server spec, so the cache never hits and
// every request pays a cold solve at the served default grid.
var coldWorkload = workload{
	name:       "cold-2srv",
	loop:       fmt.Sprintf("closed, %d clients", runtime.NumCPU()),
	newSession: newColdSession,
}

const (
	// coldCountOps is the prefix the traced run's count phase sends:
	// one cycle of the request mix.
	coldCountOps = 20
	// coldResolved is how many answered requests verify re-solves in
	// process and compares bit for bit.
	coldResolved = 4
	// Stream indices of the non-sequence draws; sequence request i uses
	// stream i.
	coldSampleStream   = 1 << 40
	coldOverheadStream = 1<<40 + 1
)

// coldRequest generates request i of the cold sequence: a random
// two-server spec, every third one failure-prone, asked in 14 of every 20
// requests for an optimal policy (QoS with a deadline in 5 of them, else
// mean time on reliable specs and reliability on failing ones), in 3 for
// the metrics and in 3 for the completion CDF of a fixed policy. The mix
// follows a fixed cycle rather than random draws, so every seed puts the
// same shares of each request kind in a window; the seed draws the specs.
func coldRequest(seed uint64, i int) (request, modelspec.SystemSpec, error) {
	failing := i%3 == 0
	spec := randomSpec(rngutil.Stream(seed, i), failing, paperQueues)
	req := serve.Request{Spec: specJSON(spec)}
	verb := "optimize"
	switch k := i % 20; {
	case k < 5:
		req.Objective, req.Deadline = "qos", qosDeadline(spec)
	case k < 14 && failing:
		req.Objective = "reliability"
	case k < 14:
		req.Objective = "mean"
	case k < 17:
		verb = "metrics"
		req.Policy, req.Deadline = fixedPolicy(spec), qosDeadline(spec)
	default:
		verb = "cdf"
		req.Policy = fixedPolicy(spec)
	}
	rq, err := newRequest(verb, req)
	return rq, spec, err
}

type coldSession struct {
	seed uint64
	srv  *server

	answered []coldAnswer // requests of the window that passed their checks
}

type coldAnswer struct {
	i    int
	body []byte
}

// newColdSession starts the service and sends one cold request outside
// the sequence — the testbed spec, the same on every seed so set-up
// costs the same — so connections, goroutines and the heap are warm
// before the window opens.
func newColdSession(seed uint64, spans *spanSink) (session, error) {
	srv, err := startServer(true, spans)
	if err != nil {
		return nil, err
	}
	c := &coldSession{seed: seed, srv: srv}
	spec := testbedSpec()
	rq, err := newRequest("optimize", serve.Request{Spec: specJSON(spec), Objective: "reliability"})
	if err == nil {
		err = sendChecked(srv, rq, spec)
	}
	if err != nil {
		srv.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return c, nil
}

func (c *coldSession) close() { c.srv.close() }

// sendChecked sends one request to srv and checks the answer.
func sendChecked(srv *server, rq request, spec modelspec.SystemSpec) error {
	status, body, err := srv.post(rq.verb, rq.body)
	if err != nil {
		return err
	}
	return checkResponse(rq, spec, status, body)
}

func (c *coldSession) measure(d time.Duration) (*loadResult, error) {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		res     = &loadResult{clients: runtime.NumCPU()}
		last    time.Time
		wg      sync.WaitGroup
		genErr  error
		start   = time.Now()
		closeAt = start.Add(d)
	)
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(closeAt) {
				i := int(next.Add(1) - 1)
				rq, spec, err := coldRequest(c.seed, i)
				if err != nil {
					mu.Lock()
					genErr = err
					mu.Unlock()
					return
				}
				t0 := time.Now()
				status, body, err := c.srv.post(rq.verb, rq.body)
				end := time.Now()
				if err == nil {
					err = checkResponse(rq, spec, status, body)
				}
				mu.Lock()
				res.attempted++
				res.latMs = append(res.latMs, msSince(t0, end))
				res.atS = append(res.atS, end.Sub(start).Seconds())
				if err != nil {
					res.failed++
					fmt.Printf("# failed: cold request %d: %v\n", i, err)
				} else {
					c.answered = append(c.answered, coldAnswer{i, body})
				}
				if end.After(last) {
					last = end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if genErr != nil {
		return nil, genErr
	}
	res.elapsed = last.Sub(start)
	res.fresh = res.attempted // every request carries a spec never seen before
	return res, nil
}

// verify re-solves a seed-chosen sample of the window's answers in
// process through dtr.System and requires the same bits.
func (c *coldSession) verify(*loadResult) (checked, failed int) {
	r := rngutil.Stream(c.seed, coldSampleStream)
	pool := append([]coldAnswer(nil), c.answered...)
	var sample []coldAnswer
	for k := 0; k < coldResolved && len(pool) > 0; k++ {
		j := r.IntN(len(pool))
		sample = append(sample, pool[j])
		pool = append(pool[:j], pool[j+1:]...)
	}
	errs := make([]error, len(sample))
	forEach(len(sample), func(k int) {
		rq, spec, err := coldRequest(c.seed, sample[k].i)
		if err == nil {
			err = resolve(rq, spec, sample[k].body)
		}
		errs[k] = err
	})
	for k, err := range errs {
		if err != nil {
			failed++
			fmt.Printf("# failed: re-solving cold request %d: %v\n", sample[k].i, err)
		}
	}
	return len(sample), failed
}

// forEach runs fn(0..n-1) on one goroutine per core and waits.
func forEach(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int, n) // holds every index, so filling never blocks
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// resolve recomputes a served answer through dtr.System and compares it
// with the served body bit for bit.
func resolve(rq request, spec modelspec.SystemSpec, body []byte) error {
	model, initial, err := spec.Build()
	if err != nil {
		return err
	}
	sys, err := dtr.NewSystem(model, initial)
	if err != nil {
		return err
	}
	sys.GridN = 8192
	if rq.req.Grid != 0 {
		sys.GridN = rq.req.Grid
	}
	switch rq.verb {
	case "optimize":
		var (
			pol dtr.Policy
			v   float64
		)
		switch rq.req.Objective {
		case "mean":
			pol, v, err = sys.OptimalMeanPolicy()
		case "qos":
			pol, v, err = sys.OptimalQoSPolicy(rq.req.Deadline)
		case "reliability":
			pol, v, err = sys.OptimalReliabilityPolicy()
		default:
			return fmt.Errorf("objective %q", rq.req.Objective)
		}
		if err != nil {
			return err
		}
		var b optimizeBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		if fmt.Sprint(b.Matrix) != fmt.Sprint([][]int(pol)) {
			return fmt.Errorf("%w: served policy %v, in-process %v", errCheck, b.Matrix, pol)
		}
		return sameBits("value", b.Value, v)
	case "metrics":
		pol, err := dtr.ParsePolicy(rq.req.Policy, 2)
		if err != nil {
			return err
		}
		var b metricsBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		rel, err := sys.Reliability(pol)
		if err != nil {
			return err
		}
		if err := sameBits("reliability", b.Reliability, rel); err != nil {
			return err
		}
		if model.Reliable() {
			mean, err := sys.MeanTime(pol)
			if err != nil {
				return err
			}
			if err := sameBits("meanTime", b.MeanTime, mean); err != nil {
				return err
			}
		}
		q, err := sys.QoS(pol, rq.req.Deadline)
		if err != nil {
			return err
		}
		return sameBits("qos", b.QoS, q)
	case "cdf":
		pol, err := dtr.ParsePolicy(rq.req.Policy, 2)
		if err != nil {
			return err
		}
		cdf, err := sys.CompletionCDF(pol)
		if err != nil {
			return err
		}
		var b cdfBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		for i, pt := range b.Points {
			if err := sameBits(fmt.Sprintf("points[%d].p", i), pt.P, cdf(pt.T)); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("no re-solve for verb %q", rq.verb)
}

func sameBits(name string, served *float64, want float64) error {
	if served == nil || math.Float64bits(*served) != math.Float64bits(want) {
		return fmt.Errorf("%w: served %s = %v, in-process %v", errCheck, name, show(served), want)
	}
	return nil
}

func (c *coldSession) countPhase() (ops, failed int, err error) {
	for i := 0; i < coldCountOps; i++ {
		rq, spec, err := coldRequest(c.seed, i)
		if err != nil {
			return 0, 0, err
		}
		ops++
		if err := sendChecked(c.srv, rq, spec); err != nil {
			failed++
			fmt.Printf("# failed: cold count request %d: %v\n", i, err)
		}
	}
	return ops, failed, nil
}

// traceOverhead prices the service's registry and tracer on cold
// solves: the same fresh requests against an instrumented and a bare
// service, alternating.
func (c *coldSession) traceOverhead() (pct float64, pairs int, err error) {
	const n = 3
	return overheadPairs(n, func(instrumented bool, i int) (time.Duration, error) {
		srv, err := startServer(instrumented, nil)
		if err != nil {
			return 0, err
		}
		defer srv.close()
		rq, spec, err := coldRequest(c.seed, coldOverheadStream+i)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = sendChecked(srv, rq, spec)
		return time.Since(t0), err
	})
}

func (c *coldSession) probeSetup() probeSetup {
	return specProbe(testbedSpec(), 8192, func(i int) (request, error) {
		rq, _, err := coldRequest(c.seed, i)
		return rq, err
	})
}

func msSince(t0, t1 time.Time) float64 {
	return float64(t1.Sub(t0)) / float64(time.Millisecond)
}
