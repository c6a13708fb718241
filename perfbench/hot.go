package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"dtr/internal/rngutil"
	"dtr/internal/serve"
	"dtr/modelspec"
)

// hot-zipf: an open loop at a fixed rate well below the hit saturation
// of the service (about 13–15k requests/s with two clients on a 2-vCPU
// box). The rate trades two kinds of noise on a shared host: at 2000
// requests/s the wake-up of idle virtual CPUs is a large part of a hit's
// latency; at 4000 a neighbour's burst pushes the cores near saturation
// and the median can grow several-fold. Requests follow Zipf popularity over a catalogue of specs ×
// verbs primed during set-up; a small share carries fresh specs at a
// small grid, each sent twice in a row, so cache inserts, coalescing and
// admission run beside the hits.
var hotWorkload = workload{
	name:       "hot-zipf",
	loop:       fmt.Sprintf("open, %d requests/s, %d clients", hotRate, runtime.NumCPU()),
	newSession: newHotSession,
}

const (
	hotRate = 2000 // requests per second
	// hotPairShare is the share of request pairs that carry a fresh
	// spec (both requests of the pair), so it is also the fresh share
	// of all requests. Its ~10 computes/s fill the service's 512-entry
	// cache in about 50 s; the LRU would then evict the oldest fresh
	// entries, never a catalogue key (the least popular is asked for
	// every ~70 ms).
	hotPairShare     = 0.01
	hotZipfS         = 1.1
	hotCatalogueGrid = 512
	hotFreshGrid     = 64
	hotSimReps       = 2000
	// hotCatalogueSeed fixes the catalogue for every run seed, so
	// priming (part of set-up) costs the same on every run.
	hotCatalogueSeed  = 2010
	hotCatalogueSpecs = 6
	hotCountOps       = 2000
	hotZipfStream     = 1 << 40
	hotFreshStream    = 1 << 41
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

var hotVerbs = []string{"optimize", "metrics", "cdf", "simulate", "bounds"}

// catalogueRequest builds the request of one catalogue spec for a verb.
func catalogueRequest(spec modelspec.SystemSpec, verb string, grid int) (request, error) {
	req := serve.Request{Spec: specJSON(spec), Grid: grid}
	switch verb {
	case "optimize":
		req.Objective = "mean"
		if !reliable(spec) {
			req.Objective = "reliability"
		}
	case "metrics", "bounds":
		req.Policy, req.Deadline = fixedPolicy(spec), qosDeadline(spec)
	case "cdf":
		req.Policy = fixedPolicy(spec)
	case "simulate":
		req.Policy, req.Deadline, req.Reps = fixedPolicy(spec), qosDeadline(spec), hotSimReps
	}
	return newRequest(verb, req)
}

// catalogue is the fixed set of primed keys: the testbed spec and
// seeded random specs, each under every verb.
func catalogue() ([]request, []modelspec.SystemSpec, error) {
	var rqs []request
	var specs []modelspec.SystemSpec
	for k := 0; k < hotCatalogueSpecs; k++ {
		spec := testbedSpec()
		if k > 0 {
			spec = randomSpec(rngutil.Stream(hotCatalogueSeed, k), k%3 == 0, paperQueues)
		}
		for _, verb := range hotVerbs {
			rq, err := catalogueRequest(spec, verb, hotCatalogueGrid)
			if err != nil {
				return nil, nil, err
			}
			rqs = append(rqs, rq)
			specs = append(specs, spec)
		}
	}
	return rqs, specs, nil
}

// freshRequest is the fresh spec of request pair j.
func freshRequest(seed uint64, j int) (request, modelspec.SystemSpec, error) {
	r := rngutil.Stream(seed, hotFreshStream+j)
	spec := randomSpec(r, r.IntN(3) == 0, paperQueues)
	verb := []string{"metrics", "cdf"}[r.IntN(2)]
	rq, err := catalogueRequest(spec, verb, hotFreshGrid)
	return rq, spec, err
}

type hotSession struct {
	seed   uint64
	srv    *server
	cat    []request
	specs  []modelspec.SystemSpec
	primed [][]byte // the body primed for each catalogue key
	// zipfCDF[k] is the probability of popularity ranks 0..k; rank k
	// asks for catalogue key perm[k].
	zipfCDF []float64
	perm    []int
}

func newHotSession(seed uint64, spans *spanSink) (session, error) {
	srv, err := startServer(true, spans)
	if err != nil {
		return nil, err
	}
	h, err := primeHot(seed, srv)
	if err != nil {
		srv.close()
		return nil, err
	}
	return h, nil
}

// primeHot builds the catalogue, computes every key once on srv, one at
// a time, and checks each primed answer.
func primeHot(seed uint64, srv *server) (*hotSession, error) {
	cat, specs, err := catalogue()
	if err != nil {
		return nil, err
	}
	h := &hotSession{seed: seed, srv: srv, cat: cat, specs: specs, primed: make([][]byte, len(cat))}
	for k := range cat {
		status, body, err := srv.post(cat[k].verb, cat[k].body)
		if err == nil {
			err = checkResponse(cat[k], specs[k], status, body)
		}
		if err != nil {
			return nil, fmt.Errorf("priming catalogue key %d: %w", k, err)
		}
		h.primed[k] = body
	}
	var total float64
	for k := range cat {
		total += 1 / math.Pow(float64(k+1), hotZipfS)
		h.zipfCDF = append(h.zipfCDF, total)
	}
	for k := range h.zipfCDF {
		h.zipfCDF[k] /= total
	}
	h.perm = rngutil.Stream(hotCatalogueSeed, hotZipfStream).Perm(len(cat))
	return h, nil
}

func (h *hotSession) close() { h.srv.close() }

// slot is one scheduled request: a catalogue key, or one of the two
// sends of fresh pair j.
type slot struct {
	key   int // catalogue key; -1 for a fresh request
	fresh int // fresh pair index
}

// slotAt derives request i of the schedule from the seed: requests come
// in pairs (2j, 2j+1); a pair is fresh with probability hotPairShare,
// otherwise each of its requests draws a key by Zipf popularity.
func (h *hotSession) slotAt(i int) slot {
	j := i / 2
	r := rngutil.Stream(h.seed, j)
	if r.Float64() < hotPairShare {
		return slot{key: -1, fresh: j}
	}
	if i%2 == 1 {
		r.Float64() // the second request of a pair takes the next draw
	}
	u := r.Float64()
	return slot{key: h.perm[sort.SearchFloat64s(h.zipfCDF, u)]}
}

// freshAnswers records the body of each fresh pair's first answer, so
// the second must repeat it byte for byte.
type freshAnswers struct {
	mu     sync.Mutex
	bodies map[int][]byte
}

func (f *freshAnswers) match(j int, body []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	prev, ok := f.bodies[j]
	if !ok {
		f.bodies[j] = body
		return nil
	}
	if !bytes.Equal(prev, body) {
		return fmt.Errorf("%w: the two answers for fresh spec %d differ", errCheck, j)
	}
	return nil
}

// send issues one scheduled request and checks its answer: catalogue
// hits must repeat the primed body byte for byte; fresh answers must
// pass the response checks and agree with their pair.
func (h *hotSession) send(s slot, fresh *freshAnswers) error {
	if s.key >= 0 {
		rq := h.cat[s.key]
		status, body, err := h.srv.post(rq.verb, rq.body)
		if err != nil {
			return err
		}
		if status != 200 || !bytes.Equal(body, h.primed[s.key]) {
			return fmt.Errorf("%w: catalogue key %d: HTTP %d, body differs from the primed one", errCheck, s.key, status)
		}
		return nil
	}
	rq, spec, err := freshRequest(h.seed, s.fresh)
	if err != nil {
		return err
	}
	status, body, err := h.srv.post(rq.verb, rq.body)
	if err != nil {
		return err
	}
	if err := checkResponse(rq, spec, status, body); err != nil {
		return err
	}
	return fresh.match(s.fresh, body)
}

// measure runs the open loop: a generator on its own OS thread
// dispatches request i at start + i/rate (nanosleep keeps it within tens
// of microseconds; the runtime's timers round sub-millisecond sleeps up
// to a millisecond), one client per core sends them, and each latency
// runs from the scheduled send time.
func (h *hotSession) measure(d time.Duration) (*loadResult, error) {
	n := int(d.Seconds() * hotRate)
	interval := time.Second / hotRate
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // room for the whole schedule: dispatch never waits for a client
	res := &loadResult{open: true, sendLagMs: make([]float64, 0, n)}
	fresh := &freshAnswers{bodies: map[int][]byte{}}
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		last  time.Time
		start = time.Now().Add(time.Millisecond)
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				s := h.slotAt(jb.i)
				err := h.send(s, fresh)
				end := time.Now()
				mu.Lock()
				res.attempted++
				res.latMs = append(res.latMs, msSince(jb.due, end))
				res.atS = append(res.atS, jb.due.Sub(start).Seconds())
				if s.key < 0 {
					res.fresh++
				}
				if err != nil {
					res.failed++
					fmt.Printf("# failed: hot request %d: %v\n", jb.i, err)
				}
				if end.After(last) {
					last = end
				}
				mu.Unlock()
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		// Timer slack (50 µs by default) delays every wake-up; 1 ns keeps
		// the dispatch close to the schedule. Only this thread changes.
		_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				ts := syscall.NsecToTimespec(int64(wait))
				_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shortens the sleep
			}
			now := time.Now()
			res.sendLagMs = append(res.sendLagMs, msSince(due, now))
			jobs <- job{i, due}
		}
		close(jobs)
	}()
	<-done
	wg.Wait()
	res.elapsed = last.Sub(start)
	return res, nil
}

// verify has nothing left to do: every hot answer is checked as it
// arrives.
func (h *hotSession) verify(*loadResult) (checked, failed int) { return 0, 0 }

func (h *hotSession) countPhase() (ops, failed int, err error) {
	fresh := &freshAnswers{bodies: map[int][]byte{}}
	for i := 0; i < hotCountOps; i++ {
		ops++
		if err := h.send(h.slotAt(i), fresh); err != nil {
			failed++
			fmt.Printf("# failed: hot count request %d: %v\n", i, err)
		}
	}
	return ops, failed, nil
}

// traceOverhead prices the registry and tracer on the hit path: the
// same catalogue hits, alternating blocks between an instrumented and a
// bare service, each primed with the first keys of the catalogue.
func (h *hotSession) traceOverhead() (pct float64, pairs int, err error) {
	const (
		keys   = 5
		blocks = 20
		block  = 100
	)
	var srvs [2]*server
	for k, instrumented := range []bool{false, true} {
		srv, err := startServer(instrumented, nil)
		if err != nil {
			return 0, 0, err
		}
		defer srv.close()
		for key := 0; key < keys; key++ {
			if _, _, err := srv.post(h.cat[key].verb, h.cat[key].body); err != nil {
				return 0, 0, err
			}
		}
		srvs[k] = srv
	}
	return overheadPairs(blocks, func(instrumented bool, b int) (time.Duration, error) {
		srv := srvs[0]
		if instrumented {
			srv = srvs[1]
		}
		srv.install()
		lat := make([]float64, 0, block)
		for i := 0; i < block; i++ {
			key := (b*block + i) % keys
			t0 := time.Now()
			status, _, err := srv.post(h.cat[key].verb, h.cat[key].body)
			if err != nil {
				return 0, err
			}
			if status != 200 {
				return 0, fmt.Errorf("%w: HTTP %d on a primed key", errCheck, status)
			}
			lat = append(lat, float64(time.Since(t0)))
		}
		return time.Duration(median(lat)), nil
	})
}

func (h *hotSession) probeSetup() probeSetup {
	return specProbe(h.specs[0], hotCatalogueGrid, func(i int) (request, error) {
		return h.cat[h.perm[i%len(h.perm)]], nil
	})
}
