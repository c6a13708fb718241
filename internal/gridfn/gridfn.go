// Package gridfn represents probability distributions of non-negative
// random variables as point masses on a uniform time lattice and provides
// the operations the analytic solvers need: k-fold convolution (sums of
// independent service times), maxima of independent variables (parallel
// server finish times), expectation functionals, and quantiles.
//
// A Lattice carries the probability mass that falls beyond its horizon in
// the Tail field, so heavy-tailed inputs (the paper's Pareto models with
// infinite variance) degrade gracefully: every functional documents how
// the tail is treated, and callers can widen the horizon until Tail is
// negligible.
package gridfn

import (
	"fmt"
	"math"

	"dtr/internal/fft"
)

// Lattice is a sub-probability distribution on {0, Dx, 2·Dx, ...,
// (len(M)-1)·Dx} plus a Tail mass located beyond the horizon. The
// invariant sum(M) + Tail ≈ 1 holds for distributions of proper random
// variables (it is maintained, not enforced, so defective distributions
// are representable too).
type Lattice struct {
	Dx   float64
	M    []float64
	Tail float64
}

// New returns a zero lattice (no mass anywhere) with n points of step dx.
func New(dx float64, n int) *Lattice {
	if dx <= 0 || n < 1 {
		panic(fmt.Sprintf("gridfn: invalid lattice dx=%g n=%d", dx, n))
	}
	return &Lattice{Dx: dx, M: make([]float64, n)}
}

// FromCDF discretizes the distribution with the given CDF onto an
// n-point lattice of step dx by nearest-point rounding: the mass of cell
// [x_i - dx/2, x_i + dx/2) is assigned to lattice point x_i = i·dx.
// Rounding is symmetric, so means are preserved to O(dx²) for smooth
// distributions. Mass beyond the last half-cell goes to Tail.
func FromCDF(cdf func(float64) float64, dx float64, n int) *Lattice {
	l := New(dx, n)
	prev := 0.0 // CDF at -dx/2 is 0 for non-negative variables
	for i := 0; i < n; i++ {
		hi := (float64(i) + 0.5) * dx
		c := cdf(hi)
		l.M[i] = c - prev
		prev = c
	}
	l.Tail = 1 - prev
	if l.Tail < 0 {
		l.Tail = 0
	}
	return l
}

// PointMass returns a lattice with all mass at the lattice point nearest
// to x (Tail if x is beyond the horizon).
func PointMass(x, dx float64, n int) *Lattice {
	l := New(dx, n)
	i := int(math.Round(x / dx))
	if i < 0 {
		i = 0
	}
	if i >= n {
		l.Tail = 1
		return l
	}
	l.M[i] = 1
	return l
}

// Clone returns a deep copy of l.
func (l *Lattice) Clone() *Lattice {
	c := &Lattice{Dx: l.Dx, M: make([]float64, len(l.M)), Tail: l.Tail}
	copy(c.M, l.M)
	return c
}

// Len returns the number of lattice points.
func (l *Lattice) Len() int { return len(l.M) }

// Horizon returns the time coordinate of the last lattice point.
func (l *Lattice) Horizon() float64 { return float64(len(l.M)-1) * l.Dx }

// Mass returns the total probability mass including the tail.
func (l *Lattice) Mass() float64 {
	s := l.Tail
	for _, m := range l.M {
		s += m
	}
	return s
}

// checkCompat panics unless the two lattices share a geometry. Mixing
// geometries is a programming error, not a data condition.
func (l *Lattice) checkCompat(o *Lattice) {
	if l.Dx != o.Dx || len(l.M) != len(o.M) {
		panic(fmt.Sprintf("gridfn: incompatible lattices (dx %g/%g, n %d/%d)",
			l.Dx, o.Dx, len(l.M), len(o.M)))
	}
}

// Meter accumulates per-fold numerical audit statistics over a sequence
// of convolutions: how many folds ran, the worst probability-mass
// conservation residual (an exact convolution preserves total mass, so
// |Σ output − massX·massY| is pure FFT round-off), and the worst
// negative mass produced by round-off. A Meter is plain state — not safe
// for concurrent use; the callers that meter (solver construction) are
// serial. Metering is purely observational: metered and unmetered
// convolutions return bit-identical lattices.
type Meter struct {
	// Folds counts metered convolutions.
	Folds int
	// MaxResidual is the worst |Σ full − massX·massY| over the folds.
	MaxResidual float64
	// SumResidual is the running total of the residuals (SumResidual /
	// Folds is the average per-fold mass leak).
	SumResidual float64
	// MaxNegMass is the worst total negative mass (Σ|min(v, 0)|) any
	// single fold produced before clamping.
	MaxNegMass float64
}

// Observe folds one convolution's statistics into the meter.
func (m *Meter) Observe(residual, negMass float64) {
	if m == nil {
		return
	}
	m.Folds++
	m.SumResidual += residual
	if residual > m.MaxResidual {
		m.MaxResidual = residual
	}
	if negMass > m.MaxNegMass {
		m.MaxNegMass = negMass
	}
}

// Convolve returns the distribution of X+Y for independent X ~ l, Y ~ o on
// the same geometry. Mass convolved past the horizon, and all combinations
// involving either tail, are accumulated into the result's Tail (a sum
// with a beyond-horizon component is itself beyond horizon, as lattice
// values are non-negative).
func (l *Lattice) Convolve(o *Lattice) *Lattice {
	return l.ConvolveMetered(o, nil)
}

// ConvolveMetered is Convolve with a numerical audit: when meter is
// non-nil it records the fold's mass-conservation residual and negative
// round-off mass. The returned lattice is bit-identical to Convolve's.
func (l *Lattice) ConvolveMetered(o *Lattice, meter *Meter) *Lattice {
	l.checkCompat(o)
	return l.fold(o, fft.Convolve(l.M, o.M), meter)
}

// fold assembles the law of X+Y, X ~ l and Y ~ o, from full, the
// 2n-1 samples of the linear convolution of l.M and o.M: the first n
// are kept, the rest join the tail with every tail interaction, and the
// meter audits the whole of full.
func (l *Lattice) fold(o *Lattice, full []float64, meter *Meter) *Lattice {
	n := len(l.M)
	out := &Lattice{Dx: l.Dx, M: make([]float64, n)}
	copy(out.M, full[:n])
	var overflow float64
	for _, v := range full[n:] {
		overflow += v
	}
	massL, massO := 0.0, 0.0
	for _, v := range l.M {
		massL += v
	}
	for _, v := range o.M {
		massO += v
	}
	out.Tail = overflow + l.Tail*(massO+o.Tail) + o.Tail*massL
	if meter != nil {
		var total, neg float64
		for _, v := range full {
			total += v
			if v < 0 {
				neg -= v
			}
		}
		meter.Observe(math.Abs(total-massL*massO), neg)
	}
	return out
}

// SpectrumLen is the length of the half spectra PrefixSpectra returns
// for n-point lattices: the N+1 bins of a 2N-point real transform with
// N = NextPow2(n), so 2N ≥ 2n-1 and products of spectra are linear (not
// circular) convolutions. It is the size fft.Convolve picks for two
// n-point inputs.
func SpectrumLen(n int) int {
	return fft.NextPow2(n) + 1
}

// ConvPower returns the k-fold convolution of l with itself (the
// distribution of the sum of k i.i.d. copies), via binary exponentiation.
// k = 0 yields a unit point mass at zero.
func (l *Lattice) ConvPower(k int) *Lattice {
	if k < 0 {
		panic("gridfn: negative convolution power")
	}
	result := PointMass(0, l.Dx, len(l.M))
	base := l.Clone()
	for k > 0 {
		if k&1 == 1 {
			result = result.Convolve(base)
		}
		k >>= 1
		if k > 0 {
			base = base.Convolve(base)
		}
	}
	return result
}

// Prefixes returns the distributions of the partial sums S_0, S_1, ..., S_k
// of i.i.d. copies of l, computed incrementally (k convolutions total).
// The incremental chain is cheaper and more accurate than k separate
// ConvPower calls when all prefixes are needed, which is exactly the
// policy-sweep access pattern (the sweep needs the total service time of
// every possible queue length).
func (l *Lattice) Prefixes(k int) []*Lattice {
	return l.PrefixesMetered(k, nil)
}

// PrefixesMetered is Prefixes with a numerical audit of every fold in
// the incremental chain (see Meter). The returned lattices are
// bit-identical to Prefixes'.
func (l *Lattice) PrefixesMetered(k int, meter *Meter) []*Lattice {
	pre, _ := l.prefixChain(k, meter, false)
	return pre
}

// PrefixSpectra is PrefixesMetered that also returns, for every prefix
// j, spec[j]: the half spectrum (fft.RealForward, SpectrumLen bins) of
// pre[j].M. Callers that convolve other lattices with the prefixes
// multiply by these instead of transforming the prefixes again. The
// lattices are bit-identical to PrefixesMetered's.
func (l *Lattice) PrefixSpectra(k int, meter *Meter) (pre []*Lattice, spec [][]complex128) {
	return l.prefixChain(k, meter, true)
}

// prefixChain runs the prefix chain in the frequency domain. The base
// law is transformed once; fold i transforms prefix i-1 forward (which
// is also that prefix's spectrum), multiplies by the base spectrum and
// transforms back: two real transforms per fold, the same ones
// fft.Convolve runs on lattices too long for its direct sum. keep
// retains every prefix's spectrum, paying one more transform for the
// last prefix.
func (l *Lattice) prefixChain(k int, meter *Meter, keep bool) ([]*Lattice, [][]complex128) {
	n := len(l.M)
	m := SpectrumLen(n)
	pre := make([]*Lattice, k+1)
	pre[0] = PointMass(0, l.Dx, n)
	var specs [][]complex128
	if keep {
		specs = make([][]complex128, k+1)
	}
	base, prod := make([]complex128, m), make([]complex128, m)
	fft.RealForward(base, l.M)
	full := make([]float64, 2*n-1)
	for i := 0; ; i++ {
		if keep {
			specs[i] = make([]complex128, m)
			fft.RealForward(specs[i], pre[i].M)
		}
		if i == k {
			return pre, specs
		}
		if keep {
			copy(prod, specs[i])
		} else {
			fft.RealForward(prod, pre[i].M)
		}
		fft.MulSpectra(prod, base)
		fft.RealInverse(full, prod)
		pre[i+1] = pre[i].fold(l, full, meter)
	}
}

// CDF returns the cumulative masses C[i] = P(X ≤ i·Dx). The tail is not
// included, so C[n-1] = 1 - Tail for a proper distribution.
func (l *Lattice) CDF() []float64 {
	c := make([]float64, len(l.M))
	var run float64
	for i, m := range l.M {
		run += m
		c[i] = run
	}
	return c
}

// CDFAt returns P(X ≤ x), interpolating between lattice points (the
// lattice is a discrete approximation of a continuous law, so linear
// interpolation of the CDF is the natural reading).
func (l *Lattice) CDFAt(x float64) float64 {
	if x < 0 {
		return 0
	}
	pos := x / l.Dx
	i := int(pos)
	if i >= len(l.M)-1 {
		return 1 - l.Tail
	}
	var ci float64
	for _, m := range l.M[:i+1] {
		ci += m
	}
	frac := pos - float64(i)
	// (ci+l.M[i+1])-ci is C[i+1]-C[i] as the two CDF sums round.
	return ci + frac*((ci+l.M[i+1])-ci)
}

// MaxIndep returns the distribution of max(X, Y) for independent X ~ l,
// Y ~ o on the same geometry: P(max ≤ x) = P(X ≤ x)·P(Y ≤ x). Any tail
// mass on either side forces the max beyond the horizon.
func (l *Lattice) MaxIndep(o *Lattice) *Lattice {
	l.checkCompat(o)
	out := &Lattice{Dx: l.Dx, M: make([]float64, len(l.M))}
	var cl, co, prev float64
	for i := range out.M {
		cl += l.M[i]
		co += o.M[i]
		c := cl * co
		out.M[i] = c - prev
		prev = c
	}
	out.Tail = 1 - prev
	if out.Tail < 0 {
		out.Tail = 0
	}
	return out
}

// MinIndep returns the distribution of min(X, Y) for independent X ~ l,
// Y ~ o on the same geometry: P(min > x) = P(X > x)·P(Y > x).
func (l *Lattice) MinIndep(o *Lattice) *Lattice {
	l.checkCompat(o)
	cl, co := l.CDF(), o.CDF()
	out := &Lattice{Dx: l.Dx, M: make([]float64, len(l.M))}
	prev := 0.0
	for i := range out.M {
		// Survival of the min includes the tails: S = (1-C+tail-less...)
		sl := 1 - cl[i]
		so := 1 - co[i]
		c := 1 - sl*so
		out.M[i] = c - prev
		prev = c
	}
	out.Tail = 1 - prev
	if out.Tail < 0 {
		out.Tail = 0
	}
	return out
}

// Mean returns E[X·1{X ≤ horizon}] + Tail·horizon: the exact mean of the
// lattice part plus a lower-bound attribution of the tail at the horizon.
// For a proper distribution this is a lower bound on E[X]; callers that
// know the tail shape can add an excess-mean correction (MeanTailExcess in
// the dist package).
func (l *Lattice) Mean() float64 {
	var s float64
	for i, m := range l.M {
		s += float64(i) * m
	}
	return s*l.Dx + l.Tail*l.Horizon()
}

// ExpectSurvival returns E[g(X)] for a bounded function g sampled at the
// lattice points, assigning the tail the limit value gTail (e.g. 0 for a
// survival function of an independent failure time: if the finish time
// fell beyond the horizon, survival to it is approximated as negligible).
func (l *Lattice) ExpectSurvival(g func(float64) float64, gTail float64) float64 {
	var s float64
	for i, m := range l.M {
		if m != 0 {
			s += m * g(float64(i)*l.Dx)
		}
	}
	return s + l.Tail*gTail
}

// Quantile returns the smallest lattice point q with P(X ≤ q) ≥ p, or
// +Inf if the lattice mass never reaches p (the quantile sits in the tail).
func (l *Lattice) Quantile(p float64) float64 {
	var run float64
	for i, m := range l.M {
		run += m
		if run >= p {
			return float64(i) * l.Dx
		}
	}
	return math.Inf(1)
}

// Shift returns the distribution of X + c (c ≥ 0) by lattice translation;
// mass shifted past the horizon joins the tail.
func (l *Lattice) Shift(c float64) *Lattice {
	if c < 0 {
		panic("gridfn: negative shift")
	}
	k := int(math.Round(c / l.Dx))
	out := &Lattice{Dx: l.Dx, M: make([]float64, len(l.M)), Tail: l.Tail}
	for i, m := range l.M {
		if j := i + k; j < len(out.M) {
			out.M[j] = m
		} else {
			out.Tail += m
		}
	}
	return out
}
