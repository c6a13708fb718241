// Package direct is the fast exact solver for the paper's canonical
// evaluation scenario: a two-server DCS that executes one DTR policy at
// t = 0 (queues r_i = m_i − L_ij, at most one task group in flight per
// direction, null age matrix) and then evolves without further control
// actions.
//
// In that scenario the servers interact only through the two groups
// launched at t = 0, so each server's finish time
//
//	F_k = max(S_{r_k}, Z_k) + S'_{g_k}
//
// (initial backlog sum, race with the incoming group's arrival, then the
// batch) is independent of the other server's, and the three metrics
// reduce to functionals of the two finish-time distributions:
//
//	T̄   = E[max(F_1, F_2)]
//	R_TM = P(F_1 ≤ TM)·P(F_2 ≤ TM)
//	R_∞  = E[S_{Y_1}(F_1)]·E[S_{Y_2}(F_2)]
//
// The finish-time laws are built by k-fold lattice convolutions
// (internal/gridfn), which makes full policy sweeps at the paper's scale
// (m1 = 100, m2 = 50) feasible — this is the engine behind Figs. 1–3 and
// Tables I–II. The general recursion of internal/core computes the same
// quantities for arbitrary configurations and is validated against this
// solver in the tests.
package direct

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dtr/dist"
	"dtr/internal/core"
	"dtr/internal/fft"
	"dtr/internal/gridfn"
	"dtr/internal/obs"
)

// Solver evaluates canonical-scenario metrics on a fixed time lattice.
//
// A Solver is safe for concurrent use: the service-sum prefix tables and
// their spectra are immutable after construction, and the lazy
// transfer-time cache is guarded by an internal lock. A cache miss
// computes outside the lock and discards the duplicate if another
// goroutine stored first, so concurrent sweeps over the policy lattice
// return bit-identical values to a serial scan. Set TailCorrect before
// sharing the solver across goroutines.
type Solver struct {
	model *core.Model
	dx    float64
	n     int

	// pre[k][f-1][j] is the law of the sum of j i.i.d. effective service
	// times at server k under replication factor f — each task's law is
	// the min-of-f order statistic of the base service law
	// (cancel-on-first-complete replication); preF[k][f-1][j] is its half
	// spectrum (gridfn.SpectrumLen bins), produced by the prefix chain
	// itself. Factor 1 is the base law, so a solver built with
	// MaxFactor ≤ 1 has exactly the pre-replication tables.
	pre  [2][][]*gridfn.Lattice
	preF [2][][][]complex128

	// scratch recycles convWithPrefix's transform buffers (*convScratch).
	scratch sync.Pool

	// maxFac is the largest replication factor with prefix tables;
	// defFac[k] is server k's default factor (the model's Repl entry,
	// 1 when unset) used by the factor-less metric methods.
	maxFac int
	defFac [2]int

	zCache map[[3]int]*gridfn.Lattice

	// mu guards zCache. Transfer lattices are never mutated once
	// published, so readers only need the lock for the map access itself.
	mu sync.RWMutex

	// TailCorrect adds the single-big-jump tail-excess estimate to mean
	// execution times: for subexponential laws (the paper's Pareto
	// models) the probability mass beyond the lattice horizon H is
	// dominated by one component being huge, so
	// E[(F−H)⁺] ≈ Σ_i E[(X_i − (H − E[F − X_i]))⁺] over F's constituent
	// draws. Light-tailed laws contribute ~0, so the correction is safe
	// to leave on (NewSolver's default).
	TailCorrect bool

	span *obs.Span

	// Numerical-health accumulators (see Diagnostics). buildMeter is
	// written only during construction; the atomics accumulate across
	// concurrent solve-phase folds with order-independent reductions.
	buildMeter  gridfn.Meter
	maxQueue    [2]int
	folds       atomic.Uint64
	evalCount   atomic.Uint64
	residualMax maxFloat64
	negMassMax  maxFloat64
	tailMax     maxFloat64

	// Half-resolution shadow solver for grid-error probes, built lazily
	// on the first ProbeGridError call when Config.ErrorProbe was set.
	probeEnabled bool
	probeOnce    sync.Once
	probeSolver  *Solver
	probeErr     error
}

// Config sizes the solver's lattice.
type Config struct {
	// Dx is the lattice step; 0 derives it from Horizon/N.
	Dx float64
	// N is the number of lattice points (power of two recommended);
	// 0 defaults to 8192.
	N int
	// Horizon is the time span covered; 0 derives a horizon from the
	// model means: 2.5× the worst-case expected completion plus transfer.
	Horizon float64
	// MaxQueue[k] bounds the prefix convolutions per server; it must be
	// at least the largest queue the sweep will produce at server k
	// (own tasks plus the largest incoming batch).
	MaxQueue [2]int
	// Span, when set, attaches solver-phase sub-spans to a request-scoped
	// trace: a "solver_build" child for the prefix-table construction, and
	// "transfer_law" children for lazy cache fills. Purely
	// observational — results are bit-identical with or without it.
	Span *obs.Span
	// ErrorProbe enables ProbeGridError: the solver may lazily build a
	// half-resolution shadow of itself to estimate grid-truncation error.
	// Off by default because the shadow doubles construction cost on the
	// first probe. Has no effect on solve results either way.
	ErrorProbe bool
	// MaxFactor requests prefix tables for replication factors
	// 1..MaxFactor per server, enabling the *Repl metric variants (the
	// joint reallocation+replication search evaluates them). 0 or 1
	// builds only the base tables; the model's own Repl factors raise
	// the effective value so the default-factor methods always have
	// their tables.
	MaxFactor int
}

// NewSolver precomputes the service-sum laws for a two-server model.
func NewSolver(m *core.Model, cfg Config) (*Solver, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.N() != 2 {
		return nil, fmt.Errorf("direct: two-server models only, got %d servers", m.N())
	}
	if cfg.MaxQueue[0] <= 0 && cfg.MaxQueue[1] <= 0 {
		return nil, fmt.Errorf("direct: Config.MaxQueue must bound the sweep queue lengths")
	}
	n := cfg.N
	if n == 0 {
		n = 8192
	}
	dx := cfg.Dx
	if dx == 0 {
		hor := cfg.Horizon
		if hor == 0 {
			worst := 0.0
			for k := 0; k < 2; k++ {
				if w := float64(cfg.MaxQueue[k]) * m.Service[k].Mean(); w > worst {
					worst = w
				}
			}
			maxG := max(cfg.MaxQueue[0], cfg.MaxQueue[1])
			hor = 2.5 * (worst + m.Transfer(max(maxG, 1), 0, 1).Mean())
		}
		dx = hor / float64(n-1)
	}

	maxFac := cfg.MaxFactor
	if maxFac < 1 {
		maxFac = 1
	}
	var defFac [2]int
	for k := 0; k < 2; k++ {
		defFac[k] = m.ReplFactor(k)
		if defFac[k] > maxFac {
			maxFac = defFac[k]
		}
	}

	s := &Solver{
		model:        m,
		dx:           dx,
		n:            n,
		zCache:       make(map[[3]int]*gridfn.Lattice),
		TailCorrect:  true,
		span:         cfg.Span,
		maxQueue:     cfg.MaxQueue,
		maxFac:       maxFac,
		defFac:       defFac,
		probeEnabled: cfg.ErrorProbe,
	}
	build := cfg.Span.Child("solver_build", "grid_n", n, "max_queue_1", cfg.MaxQueue[0], "max_queue_2", cfg.MaxQueue[1])
	// The build runs server-major, factor-minor, so a MaxFactor ≤ 1
	// solver performs exactly the pre-replication fold sequence (same
	// meter observations, same lattices — the k=1 bit-identity lock).
	for k := 0; k < 2; k++ {
		s.pre[k] = make([][]*gridfn.Lattice, maxFac)
		s.preF[k] = make([][][]complex128, maxFac)
		for f := 1; f <= maxFac; f++ {
			eff := dist.NewMinOfK(m.Service[k], f)
			base := gridfn.FromCDF(eff.CDF, dx, n)
			s.pre[k][f-1], s.preF[k][f-1] = base.PrefixSpectra(cfg.MaxQueue[k], &s.buildMeter)
		}
	}
	build.SetAttr("build_folds", s.buildMeter.Folds)
	build.SetAttr("build_mass_residual_max", s.buildMeter.MaxResidual)
	build.End()
	return s, nil
}

// MaxFactor returns the largest replication factor the solver has prefix
// tables for.
func (s *Solver) MaxFactor() int { return s.maxFac }

// DefaultFactors returns the per-server factors the factor-less metric
// methods use (the model's Repl entries, 1 when unset).
func (s *Solver) DefaultFactors() [2]int { return s.defFac }

// checkFactors validates a per-server factor pair against the tables.
func (s *Solver) checkFactors(fac [2]int) error {
	for k, f := range fac {
		if f < 1 || f > s.maxFac {
			return fmt.Errorf("direct: replication factor %d at server %d outside [1, %d] (raise Config.MaxFactor)", f, k, s.maxFac)
		}
	}
	return nil
}

// Dx returns the lattice step.
func (s *Solver) Dx() float64 { return s.dx }

// Horizon returns the last lattice time point.
func (s *Solver) Horizon() float64 { return float64(s.n-1) * s.dx }

// convScratch is one convolution's transform workspace: a half spectrum
// and the full linear-convolution output.
type convScratch struct {
	spec []complex128
	full []float64
}

// convWithPrefix convolves l with the j-fold effective service sum at
// server k under factor fac using the prefix's stored spectrum; overflow
// and tail interactions accumulate into the result's Tail exactly as
// gridfn.Convolve does. It allocates only the lattice it returns.
func (s *Solver) convWithPrefix(l *gridfn.Lattice, k, fac, j int) *gridfn.Lattice {
	if j == 0 {
		return l.Clone()
	}
	sc, ok := s.scratch.Get().(*convScratch)
	if !ok {
		m := gridfn.SpectrumLen(s.n)
		sc = &convScratch{spec: make([]complex128, m), full: make([]float64, 2*(m-1))}
	}
	defer s.scratch.Put(sc)
	fft.RealForward(sc.spec, l.M)
	fftHits.Inc() // every prefix spectrum is built with the tables
	fft.MulSpectra(sc.spec, s.preF[k][fac-1][j])
	fft.RealInverse(sc.full, sc.spec)
	out := &gridfn.Lattice{Dx: s.dx, M: make([]float64, s.n)}
	var kept, neg float64
	for i, v := range sc.full[:s.n] {
		if v < 0 {
			neg -= v
			v = 0 // FFT round-off
		}
		out.M[i] = v
		kept += v
	}
	var massL, massP float64
	for _, v := range l.M {
		massL += v
	}
	p := s.pre[k][fac-1][j]
	for _, v := range p.M {
		massP += v
	}
	overflow := massL*massP - kept
	if overflow < 0 {
		overflow = 0
	}
	out.Tail = overflow + l.Tail*(massP+p.Tail) + p.Tail*massL
	// Mass-conservation audit: an exact convolution would spread exactly
	// massL·massP over the full output, so the pre-clamp sum (clamped
	// part restored, beyond-horizon part included) deviates from it only
	// by FFT round-off.
	var rawTail float64
	for _, v := range sc.full[s.n:] {
		rawTail += v
	}
	s.noteFold(math.Abs(kept-neg+rawTail-massL*massP), neg)
	return out
}

// zLattice returns the lattice law of the transfer time of a group of
// `tasks` tasks from src to dst, cached per signature. A racing miss
// discards its duplicate in favour of the first store.
func (s *Solver) zLattice(tasks, src, dst int) *gridfn.Lattice {
	key := [3]int{tasks, src, dst}
	s.mu.RLock()
	l, ok := s.zCache[key]
	s.mu.RUnlock()
	if ok {
		zHits.Inc()
		return l
	}
	zMisses.Inc()
	sp := s.span.Child("transfer_law", "tasks", tasks, "src", src, "dst", dst)
	defer sp.End()
	l = gridfn.FromCDF(s.model.Transfer(tasks, src, dst).CDF, s.dx, s.n)
	s.mu.Lock()
	if have, ok := s.zCache[key]; ok {
		s.mu.Unlock()
		zDupComputes.Inc()
		return have
	}
	s.zCache[key] = l
	s.mu.Unlock()
	return l
}

// Finish returns the finish-time law of server k with `own` initial tasks
// and an incoming batch of `g` tasks from server src (g = 0 for none):
// F = max(S_own, Z) + S'_g. A server with no work finishes at time 0.
// The server's default replication factor applies.
func (s *Solver) Finish(k, own, g, src int) (*gridfn.Lattice, error) {
	return s.FinishRepl(k, own, g, src, s.defFac[k])
}

// FinishRepl is Finish with an explicit replication factor: every task's
// service draw is the min-of-fac order statistic of the base law
// (cancel-on-first-complete replication).
func (s *Solver) FinishRepl(k, own, g, src, fac int) (*gridfn.Lattice, error) {
	if own < 0 || g < 0 {
		return nil, fmt.Errorf("direct: negative task counts own=%d g=%d", own, g)
	}
	if fac < 1 || fac > s.maxFac {
		return nil, fmt.Errorf("direct: replication factor %d outside [1, %d] (raise Config.MaxFactor)", fac, s.maxFac)
	}
	pre := s.pre[k][fac-1]
	if own >= len(pre) || g >= len(pre) {
		return nil, fmt.Errorf("direct: queue %d/%d exceeds MaxQueue=%d at server %d",
			own, g, len(pre)-1, k)
	}
	if g == 0 {
		return pre[own].Clone(), nil
	}
	z := s.zLattice(g, src, k)
	race := pre[own].MaxIndep(z)
	return s.convWithPrefix(race, k, fac, g), nil
}

// Metrics bundles the three paper metrics for one policy, along with the
// probability mass the lattice could not represent (heavy-tail overflow):
// Mean is exact up to that tail (which is attributed at the horizon, a
// lower bound), QoS and Reliability treat it conservatively as failure.
type Metrics struct {
	Mean        float64
	QoS         float64
	Reliability float64
	TailMass    float64
}

// scenario validates and splits a canonical policy application.
func (s *Solver) scenario(m1, m2, l12, l21 int) (r1, r2 int, err error) {
	if m1 < 0 || m2 < 0 {
		return 0, 0, fmt.Errorf("direct: negative workload (%d, %d)", m1, m2)
	}
	if l12 < 0 || l21 < 0 || l12 > m1 || l21 > m2 {
		return 0, 0, fmt.Errorf("direct: policy (L12=%d, L21=%d) infeasible for workload (%d, %d)", l12, l21, m1, m2)
	}
	return m1 - l12, m2 - l21, nil
}

// finishPair builds both servers' finish-time laws for the policy under
// the default factors.
func (s *Solver) finishPair(m1, m2, l12, l21 int) (f1, f2 *gridfn.Lattice, err error) {
	return s.finishPairRepl(m1, m2, l12, l21, s.defFac)
}

// finishPairRepl builds both servers' finish-time laws under explicit
// per-server replication factors.
func (s *Solver) finishPairRepl(m1, m2, l12, l21 int, fac [2]int) (f1, f2 *gridfn.Lattice, err error) {
	r1, r2, err := s.scenario(m1, m2, l12, l21)
	if err != nil {
		return nil, nil, err
	}
	evals.Inc()
	f1, err = s.FinishRepl(0, r1, l21, 1, fac[0])
	if err != nil {
		return nil, nil, err
	}
	f2, err = s.FinishRepl(1, r2, l12, 0, fac[1])
	if err != nil {
		return nil, nil, err
	}
	s.noteFinish(f1.Tail + f2.Tail)
	return f1, f2, nil
}

// MeanTime returns T̄ = E[max(F1, F2)] for the policy (L12, L21) applied
// to the initial allocation (m1, m2). The model must be reliable.
func (s *Solver) MeanTime(m1, m2, l12, l21 int) (float64, error) {
	return s.MeanTimeRepl(m1, m2, l12, l21, s.defFac)
}

// MeanTimeRepl is MeanTime under explicit per-server replication factors.
func (s *Solver) MeanTimeRepl(m1, m2, l12, l21 int, fac [2]int) (float64, error) {
	if !s.model.Reliable() {
		return 0, fmt.Errorf("direct: mean execution time requires reliable servers")
	}
	if err := s.checkFactors(fac); err != nil {
		return 0, err
	}
	f1, f2, err := s.finishPairRepl(m1, m2, l12, l21, fac)
	if err != nil {
		return 0, err
	}
	mean := f1.MaxIndep(f2).Mean()
	if s.TailCorrect {
		r1, r2, _ := s.scenario(m1, m2, l12, l21)
		mean += s.tailExcess(0, r1, l21, 1, fac[0]) + s.tailExcess(1, r2, l12, 0, fac[1])
	}
	return mean, nil
}

// tailExcess estimates E[(F_k − H)⁺] for the finish time of server k by
// the single-big-jump approximation: each constituent draw (one group
// transfer plus own+g service times) exceeds the horizon alone while the
// others sit near their means, so the thresholds are reduced by the
// expected remainder. Under replication the per-task law is the
// min-of-fac order statistic, whose tail is the base tail to the fac-th
// power — strictly lighter, so the correction shrinks with fac.
func (s *Solver) tailExcess(k, own, g, src, fac int) float64 {
	h := s.Horizon()
	w := dist.NewMinOfK(s.model.Service[k], fac)
	nTasks := own + g
	total := float64(nTasks) * w.Mean()
	var zMean float64
	var z dist.Dist
	if g > 0 {
		z = s.model.Transfer(g, src, k)
		zMean = z.Mean()
		total += 0 // the race with Z rarely binds in the tail regime
	}
	var excess float64
	if nTasks > 0 {
		thr := h - (total - w.Mean()) - zMean
		if thr < 0 {
			thr = 0
		}
		excess += float64(nTasks) * dist.MeanExcess(w, thr)
	}
	if z != nil {
		thr := h - total
		if thr < 0 {
			thr = 0
		}
		excess += dist.MeanExcess(z, thr)
	}
	return excess
}

// QoS returns R_TM = Π_k E[1{F_k ≤ TM}·S_{Y_k}(F_k)]: each server must
// both finish by the deadline and outlive its own finish time. With
// reliable servers the failure factor is 1 and this reduces to
// P(F1 ≤ TM)·P(F2 ≤ TM).
func (s *Solver) QoS(m1, m2, l12, l21 int, tm float64) (float64, error) {
	return s.QoSRepl(m1, m2, l12, l21, tm, s.defFac)
}

// QoSRepl is QoS under explicit per-server replication factors.
func (s *Solver) QoSRepl(m1, m2, l12, l21 int, tm float64, fac [2]int) (float64, error) {
	if tm < 0 || math.IsNaN(tm) {
		return 0, fmt.Errorf("direct: invalid deadline %g", tm)
	}
	if err := s.checkFactors(fac); err != nil {
		return 0, err
	}
	f1, f2, err := s.finishPairRepl(m1, m2, l12, l21, fac)
	if err != nil {
		return 0, err
	}
	return s.qosOf(f1, 0, tm) * s.qosOf(f2, 1, tm), nil
}

// qosOf computes E[1{F ≤ tm}·S_Y(F)] for server k's finish law.
func (s *Solver) qosOf(f *gridfn.Lattice, k int, tm float64) float64 {
	y := s.model.Failure[k]
	if _, never := y.(dist.Never); never {
		return f.CDFAt(tm)
	}
	var sum float64
	for i, m := range f.M {
		x := float64(i) * f.Dx
		if x > tm {
			break
		}
		if m != 0 {
			sum += m * y.Survival(x)
		}
	}
	return sum
}

// Reliability returns R_∞ = Π_k E[S_{Y_k}(F_k)]: each server must outlive
// its own finish time; the failure laws are independent of everything
// else, so the factors multiply.
func (s *Solver) Reliability(m1, m2, l12, l21 int) (float64, error) {
	return s.ReliabilityRepl(m1, m2, l12, l21, s.defFac)
}

// ReliabilityRepl is Reliability under explicit per-server replication
// factors.
func (s *Solver) ReliabilityRepl(m1, m2, l12, l21 int, fac [2]int) (float64, error) {
	if err := s.checkFactors(fac); err != nil {
		return 0, err
	}
	f1, f2, err := s.finishPairRepl(m1, m2, l12, l21, fac)
	if err != nil {
		return 0, err
	}
	r := 1.0
	for k, f := range []*gridfn.Lattice{f1, f2} {
		y := s.model.Failure[k]
		if _, never := y.(dist.Never); never {
			continue
		}
		r *= f.ExpectSurvival(y.Survival, 0)
	}
	return r, nil
}

// CompletionCDF returns the full distribution function of the workload
// execution time T under the policy, sampled on the solver lattice:
// cdf[i] = P(T ≤ i·Dx()). With failure-prone servers T = ∞ with positive
// probability, so the curve saturates at the service reliability rather
// than 1. The QoS at any deadline is a point on this curve and the mean
// (reliable case) is its complementary integral — the curve is what a
// deadline-shopping caller actually wants.
func (s *Solver) CompletionCDF(m1, m2, l12, l21 int) ([]float64, error) {
	return s.CompletionCDFRepl(m1, m2, l12, l21, s.defFac)
}

// CompletionCDFRepl is CompletionCDF under explicit per-server
// replication factors.
func (s *Solver) CompletionCDFRepl(m1, m2, l12, l21 int, fac [2]int) ([]float64, error) {
	if err := s.checkFactors(fac); err != nil {
		return nil, err
	}
	f1, f2, err := s.finishPairRepl(m1, m2, l12, l21, fac)
	if err != nil {
		return nil, err
	}
	cdf := make([]float64, s.n)
	for i := range cdf {
		cdf[i] = 1
	}
	for k, f := range []*gridfn.Lattice{f1, f2} {
		y := s.model.Failure[k]
		_, never := y.(dist.Never)
		run := 0.0
		for i, m := range f.M {
			if m != 0 {
				if never {
					run += m
				} else {
					run += m * y.Survival(float64(i)*f.Dx)
				}
			}
			// FFT round-off can carry the running sum just below 0 or
			// above 1; a product of factors clamped to [0, 1] stays there.
			cdf[i] *= min(max(run, 0), 1)
		}
	}
	return cdf, nil
}

// All evaluates the three metrics (and the tail diagnostics) in one pass
// over the finish-time laws; Mean is NaN when the model is not reliable.
func (s *Solver) All(m1, m2, l12, l21 int, tm float64) (Metrics, error) {
	return s.AllRepl(m1, m2, l12, l21, tm, s.defFac)
}

// AllRepl is All under explicit per-server replication factors.
func (s *Solver) AllRepl(m1, m2, l12, l21 int, tm float64, fac [2]int) (Metrics, error) {
	if err := s.checkFactors(fac); err != nil {
		return Metrics{}, err
	}
	f1, f2, err := s.finishPairRepl(m1, m2, l12, l21, fac)
	if err != nil {
		return Metrics{}, err
	}
	var out Metrics
	out.TailMass = f1.Tail + f2.Tail
	if s.model.Reliable() {
		out.Mean = f1.MaxIndep(f2).Mean()
		if s.TailCorrect {
			r1, r2, _ := s.scenario(m1, m2, l12, l21)
			out.Mean += s.tailExcess(0, r1, l21, 1, fac[0]) + s.tailExcess(1, r2, l12, 0, fac[1])
		}
	} else {
		out.Mean = math.NaN()
	}
	out.QoS = s.qosOf(f1, 0, tm) * s.qosOf(f2, 1, tm)
	out.Reliability = 1
	for k, f := range []*gridfn.Lattice{f1, f2} {
		y := s.model.Failure[k]
		if _, never := y.(dist.Never); never {
			continue
		}
		out.Reliability *= f.ExpectSurvival(y.Survival, 0)
	}
	return out, nil
}
