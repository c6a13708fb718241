package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"

	"dtr/modelspec"
)

// testbedSpec is the paper's fitted Internet testbed (§III-B), the
// document examples/specs/testbed.json holds.
func testbedSpec() modelspec.SystemSpec {
	return modelspec.SystemSpec{
		Servers: []modelspec.ServerSpec{
			{Queue: 50, Service: modelspec.DistSpec{Type: "pareto", Mean: 4.858, Alpha: 2.614},
				Failure: &modelspec.DistSpec{Type: "exponential", Mean: 300}},
			{Queue: 25, Service: modelspec.DistSpec{Type: "pareto", Mean: 2.357, Alpha: 2.614},
				Failure: &modelspec.DistSpec{Type: "exponential", Mean: 150}},
		},
		Transfer: modelspec.TransferSpec{PerTaskMean: 1.207,
			DistSpec: modelspec.DistSpec{Type: "shifted-gamma", Shape: 2, ShiftFrac: 0.55}},
		FN: &modelspec.TransferSpec{PerTaskMean: 0.313,
			DistSpec: modelspec.DistSpec{Type: "shifted-gamma", Shape: 2, ShiftFrac: 0.55}},
	}
}

// clusterSpec is the five-server shape of Table II, the document
// examples/specs/cluster.json holds.
func clusterSpec() modelspec.SystemSpec {
	var s modelspec.SystemSpec
	for i, q := range []int{80, 50, 30, 25, 15} {
		s.Servers = append(s.Servers, modelspec.ServerSpec{Queue: q,
			Service: modelspec.DistSpec{Type: "pareto", Mean: float64(5 - i), Alpha: 2.5}})
	}
	s.Transfer = modelspec.TransferSpec{PerTaskMean: 3, DistSpec: modelspec.DistSpec{Type: "pareto", Alpha: 2.5}}
	return s
}

// queueRange bounds the generated initial queues of a two-server spec.
type queueRange struct{ lo1, hi1, lo2, hi2 int }

// paperQueues is the testbed's scale (50 + 25 tasks) with room around
// it; every generated request stays close to the served cold-solve cost
// of the testbed spec.
var paperQueues = queueRange{40, 60, 20, 30}

// randomSpec draws a two-server spec: service laws from the dist
// families, shifted-gamma or Pareto transfers and, when failing, an
// exponential failure law per server plus a failure-notice law.
func randomSpec(r *rand.Rand, failing bool, q queueRange) modelspec.SystemSpec {
	mean1 := 2 + 3*r.Float64()   // the slower server
	mean2 := 1 + 1.5*r.Float64() // the faster one
	s := modelspec.SystemSpec{Servers: []modelspec.ServerSpec{
		{Queue: q.lo1 + r.IntN(q.hi1-q.lo1+1), Service: randomLaw(r, mean1)},
		{Queue: q.lo2 + r.IntN(q.hi2-q.lo2+1), Service: randomLaw(r, mean2)},
	}}
	perTask := 0.5 + 2.5*r.Float64()
	if r.IntN(2) == 0 {
		s.Transfer = modelspec.TransferSpec{PerTaskMean: perTask,
			DistSpec: modelspec.DistSpec{Type: "shifted-gamma", Shape: 2, ShiftFrac: 0.5}}
	} else {
		s.Transfer = modelspec.TransferSpec{PerTaskMean: perTask,
			DistSpec: modelspec.DistSpec{Type: "pareto", Alpha: 2.5}}
	}
	if failing {
		for i := range s.Servers {
			s.Servers[i].Failure = &modelspec.DistSpec{Type: "exponential", Mean: 150 + 850*r.Float64()}
		}
		s.FN = &modelspec.TransferSpec{PerTaskMean: 0.1 + 0.9*r.Float64(),
			DistSpec: modelspec.DistSpec{Type: "shifted-gamma", Shape: 2, ShiftFrac: 0.5}}
	}
	return s
}

// randomLaw draws one service law of the given mean.
func randomLaw(r *rand.Rand, mean float64) modelspec.DistSpec {
	switch r.IntN(5) {
	case 0:
		return modelspec.DistSpec{Type: "pareto", Mean: mean, Alpha: 2.2 + 0.8*r.Float64()}
	case 1:
		return modelspec.DistSpec{Type: "gamma", Mean: mean, Shape: 1.5 + 2*r.Float64()}
	case 2:
		return modelspec.DistSpec{Type: "lognormal", Mean: mean, Sigma: 0.4 + 0.8*r.Float64()}
	case 3:
		return modelspec.DistSpec{Type: "hyperexponential", Mean: mean, Scv: 1.5 + 3.5*r.Float64()}
	default:
		return modelspec.DistSpec{Type: "exponential", Mean: mean}
	}
}

// queues returns a spec's initial allocation.
func queues(s modelspec.SystemSpec) []int {
	q := make([]int, len(s.Servers))
	for i, srv := range s.Servers {
		q[i] = srv.Queue
	}
	return q
}

func reliable(s modelspec.SystemSpec) bool {
	for _, srv := range s.Servers {
		if srv.Failure != nil && srv.Failure.Type != "never" {
			return false
		}
	}
	return true
}

// qosDeadline is a deadline near the balanced completion time of a
// two-server spec, where P(T < deadline) is neither 0 nor 1.
func qosDeadline(s modelspec.SystemSpec) float64 {
	m1, m2 := float64(s.Servers[0].Queue), float64(s.Servers[1].Queue)
	rate := 1/s.Servers[0].Service.Mean + 1/s.Servers[1].Service.Mean
	return math.Round(1.3 * (m1 + m2) / rate)
}

// fixedPolicy is the policy metrics and cdf requests evaluate: a fifth
// of server 0's queue moves to server 1.
func fixedPolicy(s modelspec.SystemSpec) string {
	return fmt.Sprintf("0>1:%d", s.Servers[0].Queue/5)
}

func specJSON(s modelspec.SystemSpec) json.RawMessage {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode spec: %v", err)) // plain structs always encode
	}
	return b
}

// Response bodies as the checks read them: pointers tell a JSON null
// (an undefined metric) from a number.
type (
	optimizeBody struct {
		Objective string
		Matrix    [][]int
		Value     *float64
	}
	metricsBody struct {
		Reliability, MeanTime, QoS *float64
	}
	simulateBody struct {
		Reps, Completed            int
		Reliability, MeanTime, QoS *float64
	}
	boundSide struct {
		Mean, QoS, Reliability *float64
	}
	boundsBody struct {
		Optimistic, Pessimistic boundSide
	}
	cdfBody struct {
		Points []struct {
			T float64
			P *float64
		}
	}
)

// checkResponse validates one 200 answer: a feasible policy and finite
// values, probabilities in [0, 1], undefined metrics exactly where the
// model leaves them undefined.
func checkResponse(rq request, spec modelspec.SystemSpec, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("%w: %s answered HTTP %d: %s", errCheck, rq.verb, status, body)
	}
	if err := checkBody(rq, spec, body); err != nil {
		return fmt.Errorf("%w: %s: %v", errCheck, rq.verb, err)
	}
	return nil
}

func checkBody(rq request, spec modelspec.SystemSpec, body []byte) error {
	q := queues(spec)
	switch rq.verb {
	case "optimize":
		var b optimizeBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		if err := feasible(b.Matrix, q); err != nil {
			return err
		}
		if len(q) != 2 {
			if b.Value != nil {
				return fmt.Errorf("multi-server value should be null")
			}
			return nil
		}
		if b.Objective == "mean" {
			return positive("value", b.Value)
		}
		return prob("value", b.Value)
	case "metrics":
		var b metricsBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		if err := prob("reliability", b.Reliability); err != nil {
			return err
		}
		if err := definedIff("meanTime", b.MeanTime, reliable(spec), positive); err != nil {
			return err
		}
		return definedIff("qos", b.QoS, rq.req.Deadline > 0, prob)
	case "simulate":
		var b simulateBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		if err := prob("reliability", b.Reliability); err != nil {
			return err
		}
		if b.Completed < 0 || b.Completed > b.Reps {
			return fmt.Errorf("completed %d of %d replications", b.Completed, b.Reps)
		}
		if err := definedIff("qos", b.QoS, rq.req.Deadline > 0, prob); err != nil {
			return err
		}
		return optional("meanTime", b.MeanTime, positive)
	case "bounds":
		var b boundsBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		for _, side := range []boundSide{b.Optimistic, b.Pessimistic} {
			if err := optional("reliability", side.Reliability, prob); err != nil {
				return err
			}
			if err := optional("qos", side.QoS, prob); err != nil {
				return err
			}
			if err := optional("mean", side.Mean, positive); err != nil {
				return err
			}
		}
		return nil
	case "cdf":
		var b cdfBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		want := rq.req.Points
		if want == 0 {
			want = 20
		}
		if len(b.Points) != want {
			return fmt.Errorf("%d curve points, want %d", len(b.Points), want)
		}
		prevT, prevP := 0.0, 0.0
		for i, pt := range b.Points {
			if err := prob(fmt.Sprintf("points[%d].p", i), pt.P); err != nil {
				return err
			}
			if !(pt.T > prevT) || math.IsInf(pt.T, 0) {
				return fmt.Errorf("points[%d].t = %g does not increase", i, pt.T)
			}
			if *pt.P < prevP-1e-9 {
				return fmt.Errorf("points[%d].p = %g falls below %g", i, *pt.P, prevP)
			}
			prevT, prevP = pt.T, *pt.P
		}
		return nil
	}
	return fmt.Errorf("no check for verb %q", rq.verb)
}

// feasible checks a reallocation matrix against the initial queues.
func feasible(m [][]int, q []int) error {
	if len(m) != len(q) {
		return fmt.Errorf("policy matrix has %d rows for %d servers", len(m), len(q))
	}
	for i, row := range m {
		if len(row) != len(q) {
			return fmt.Errorf("policy row %d has %d entries", i, len(row))
		}
		sent := 0
		for j, v := range row {
			if v < 0 || (i == j && v != 0) {
				return fmt.Errorf("policy entry [%d][%d] = %d", i, j, v)
			}
			sent += v
		}
		if sent > q[i] {
			return fmt.Errorf("policy ships %d tasks from server %d holding %d", sent, i, q[i])
		}
	}
	return nil
}

// roundOffTol is how far outside [0, 1] a served probability may lie:
// the solvers assemble probabilities from FFT convolutions, whose
// round-off leaves values such as -3e-20 where the exact value is 0.
const roundOffTol = 1e-9

// roundOffs counts served probabilities outside [0, 1] by no more than
// roundOffTol; each run reports the count.
var roundOffs atomic.Int64

func prob(name string, x *float64) error {
	if x == nil || math.IsNaN(*x) || *x < -roundOffTol || *x > 1+roundOffTol {
		return fmt.Errorf("%s = %v, want a probability", name, show(x))
	}
	if *x < 0 || *x > 1 {
		roundOffs.Add(1)
	}
	return nil
}

func positive(name string, x *float64) error {
	if x == nil || math.IsNaN(*x) || math.IsInf(*x, 0) || *x <= 0 {
		return fmt.Errorf("%s = %v, want a positive finite number", name, show(x))
	}
	return nil
}

// definedIff checks x with check when defined is true and requires null
// otherwise.
func definedIff(name string, x *float64, defined bool, check func(string, *float64) error) error {
	if !defined {
		if x != nil {
			return fmt.Errorf("%s = %g, want null", name, *x)
		}
		return nil
	}
	return check(name, x)
}

// optional checks x with check unless it is null.
func optional(name string, x *float64, check func(string, *float64) error) error {
	if x == nil {
		return nil
	}
	return check(name, x)
}

func show(x *float64) any {
	if x == nil {
		return "null"
	}
	return *x
}
