// Package fft implements an iterative radix-2 complex fast Fourier
// transform, a real-input transform built on it, and the real linear
// convolution built on that.
//
// The Go standard library has no FFT; the direct convolution solver
// (internal/direct) needs hundreds of k-fold convolutions of service-time
// densities per policy sweep, which would be O(N^2) each without one.
//
// Every length has one process-wide plan: the bit-reversal permutation
// and a twiddle table whose every entry is computed directly with
// cos/sin (no recurrence, so no accumulated rounding). Plans are built
// on first use and shared read-only by all goroutines. The convolution
// inputs are real, so RealForward/RealInverse run a 2N-point real
// transform as an N-point complex one plus a split step and keep only
// the N+1 non-redundant bins: half the transforms' size and work.
package fft

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// plan holds the precomputed tables for complex transforms of length n.
type plan struct {
	// rev is the bit-reversal permutation of 0..n-1.
	rev []int32
	// tw[h+j] = exp(-iπj/h) for every power of two h ≤ n and j < h: the
	// butterfly twiddles of the stage with half-length h, contiguous per
	// stage. Entries tw[n:2n] (the stage h = n) are the split twiddles
	// exp(-2πij/2n) that RealForward/RealInverse need for length 2n.
	tw []complex128
}

// plans[log2(n)] caches the plan for length n.
var plans [bits.UintSize]atomic.Pointer[plan]

// planFor returns the shared plan for length n, building it on first
// use. Racing builders compute identical tables; the first store wins.
func planFor(n int) *plan {
	if n < 1 || n&(n-1) != 0 {
		panic("fft: length is not a power of two")
	}
	slot := &plans[bits.TrailingZeros(uint(n))]
	if p := slot.Load(); p != nil {
		return p
	}
	p := &plan{rev: make([]int32, n), tw: make([]complex128, 2*n)}
	shift := bits.UintSize - bits.TrailingZeros(uint(n))
	for i := range p.rev {
		p.rev[i] = int32(bits.Reverse(uint(i)) >> shift)
	}
	for h := 1; h <= n; h <<= 1 {
		for j := 0; j < h; j++ {
			s, c := math.Sincos(-math.Pi * float64(j) / float64(h))
			p.tw[h+j] = complex(c, s)
		}
	}
	if !slot.CompareAndSwap(nil, p) {
		return slot.Load()
	}
	return p
}

// Forward computes the in-place forward DFT of a whose length must be a
// power of two. The transform is unnormalized:
// A[k] = Σ_n a[n]·exp(-2πi·kn/N).
func Forward(a []complex128) {
	if len(a) <= 1 {
		return
	}
	planFor(len(a)).forward(a)
}

// Inverse computes the in-place inverse DFT of a whose length must be a
// power of two, including the 1/N normalization.
func Inverse(a []complex128) {
	if len(a) <= 1 {
		return
	}
	// IDFT(a) = conj(DFT(conj(a)))/N.
	for i, v := range a {
		a[i] = complex(real(v), -imag(v))
	}
	planFor(len(a)).forward(a)
	n := float64(len(a))
	for i, v := range a {
		a[i] = complex(real(v)/n, -imag(v)/n)
	}
}

// forward runs the iterative Cooley–Tukey radix-2 FFT in place.
func (p *plan) forward(a []complex128) {
	n := len(a)
	for i, j := range p.rev[:n] {
		if i < int(j) {
			a[i], a[j] = a[j], a[i]
		}
	}
	h := 1
	if n >= 4 {
		// The first two stages fused: their twiddles are 1 and -i, so
		// they need no multiplications.
		for i := 0; i+3 < n; i += 4 {
			b0, b1 := a[i]+a[i+1], a[i]-a[i+1]
			b2, b3 := a[i+2]+a[i+3], a[i+2]-a[i+3]
			b3 = complex(imag(b3), -real(b3))
			a[i], a[i+2] = b0+b2, b0-b2
			a[i+1], a[i+3] = b1+b3, b1-b3
		}
		h = 4
	}
	// The remaining stages two at a time (half-lengths h and 2h), which
	// halves the passes over a; the arithmetic is that of two radix-2
	// stages, operation for operation.
	for ; 2*h < n; h <<= 2 {
		w1, w2 := p.tw[h:2*h], p.tw[2*h:4*h]
		for i := 0; i < n; i += 4 * h {
			q0 := a[i : i+h]
			q1 := a[i+h : i+2*h][:len(q0)]
			q2 := a[i+2*h : i+3*h][:len(q0)]
			q3 := a[i+3*h : i+4*h][:len(q0)]
			for j := range q0 {
				t := w1[j]
				x0, x1 := q0[j], q1[j]*t
				x2, x3 := q2[j], q3[j]*t
				y0, y1 := x0+x1, x0-x1
				y2, y3 := (x2+x3)*w2[j], (x2-x3)*w2[h+j]
				q0[j], q2[j] = y0+y2, y0-y2
				q1[j], q3[j] = y1+y3, y1-y3
			}
		}
	}
	if h < n {
		w := p.tw[h : 2*h]
		lo, hi := a[:h], a[h:][:h]
		for j := range lo {
			u, v := lo[j], hi[j]*w[j]
			lo[j] = u + v
			hi[j] = u - v
		}
	}
}

// RealForward stores in dst the first N+1 bins of the forward DFT of the
// real sequence src zero-padded to length 2N, where N = len(dst)-1 must
// be a power of two and len(src) ≤ 2N. The remaining bins follow from
// Hermitian symmetry, X[2N-k] = conj(X[k]). It does not allocate once
// the plan for length N exists.
func RealForward(dst []complex128, src []float64) {
	n := len(dst) - 1
	if len(src) > 2*n {
		panic("fft: real input longer than the transform")
	}
	p := planFor(n)
	// Pack even samples as real parts and odd ones as imaginary parts.
	z := dst[:n]
	pairs := len(src) / 2
	for i := range z[:pairs] {
		z[i] = complex(src[2*i], src[2*i+1])
	}
	if len(src)%2 == 1 {
		z[pairs] = complex(src[len(src)-1], 0)
		pairs++
	}
	clear(z[pairs:])
	p.forward(z)
	// Split: with E, O the DFTs of the even and odd samples,
	// Z[k] = E[k] + i·O[k] and X[k] = E[k] + W^k·O[k], W = exp(-iπ/N),
	// E[k] = (Z[k] + conj(Z[N-k]))/2, O[k] = (Z[k] - conj(Z[N-k]))/2i and
	// X[N-k] = conj(E[k] - W^k·O[k]).
	z0 := z[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[n] = complex(real(z0)-imag(z0), 0)
	w := p.tw[n : 2*n]
	for k := 1; k <= n/2; k++ {
		a, b := z[k], z[n-k]
		er, ei := (real(a)+real(b))*0.5, (imag(a)-imag(b))*0.5
		or, oi := (imag(a)+imag(b))*0.5, (real(b)-real(a))*0.5
		wr, wi := real(w[k]), imag(w[k])
		tr, ti := wr*or-wi*oi, wr*oi+wi*or
		dst[k] = complex(er+tr, ei+ti)
		dst[n-k] = complex(er-tr, ti-ei)
	}
}

// RealInverse is the inverse of RealForward: given the first N+1 bins
// spec of a Hermitian spectrum of length 2N (N = len(spec)-1 a power of
// two), it stores the first len(dst) ≤ 2N samples of the real inverse
// DFT, 1/(2N) normalization included. spec is used as scratch and left
// overwritten. It does not allocate once the plan for length N exists.
func RealInverse(dst []float64, spec []complex128) {
	n := len(spec) - 1
	if len(dst) > 2*n {
		panic("fft: real output longer than the transform")
	}
	p := planFor(n)
	// Unsplit into conj(Z) = conj(E + i·O), so that one forward transform
	// yields the conjugate of the N-point inverse. With a = X[k] and
	// b = X[N-k]: E[k] = (a + conj b)/2, O[k] = (a - conj b)·conj(W^k)/2,
	// E[N-k] = conj(E[k]) and O[N-k] = conj(O[k]).
	w := p.tw[n : 2*n]
	for k := 1; k <= n/2; k++ {
		a, b := spec[k], spec[n-k]
		er, ei := (real(a)+real(b))*0.5, (imag(a)-imag(b))*0.5
		dr, di := (real(a)-real(b))*0.5, (imag(a)+imag(b))*0.5
		wr, wi := real(w[k]), imag(w[k])
		or, oi := dr*wr+di*wi, di*wr-dr*wi
		spec[k] = complex(er-oi, -(ei + or))
		spec[n-k] = complex(er+oi, ei-or)
	}
	// Bins 0 and N of a Hermitian spectrum are real: E[0] and O[0] too.
	x0, xn := real(spec[0]), real(spec[n])
	spec[0] = complex((x0+xn)*0.5, -(x0-xn)*0.5)
	z := spec[:n]
	p.forward(z)
	scale := 1 / float64(n)
	pairs := len(dst) / 2
	for i, v := range z[:pairs] {
		dst[2*i] = real(v) * scale
		dst[2*i+1] = -imag(v) * scale
	}
	if len(dst)%2 == 1 {
		dst[len(dst)-1] = real(z[pairs]) * scale
	}
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// specPool recycles Convolve's spectrum buffers; specPool[log2(N)]
// holds *[]complex128 of length N+1.
var specPool [bits.UintSize]sync.Pool

func getSpec(n int) *[]complex128 {
	if b, ok := specPool[bits.TrailingZeros(uint(n))].Get().(*[]complex128); ok {
		return b
	}
	b := make([]complex128, n+1)
	return &b
}

func putSpec(b *[]complex128) {
	specPool[bits.TrailingZeros(uint(len(*b)-1))].Put(b)
}

// Convolve returns the full linear convolution of x and y,
// out[k] = Σ_i x[i]·y[k-i], of length len(x)+len(y)-1.
// Inputs are untouched. Either input being empty yields nil.
func Convolve(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	outLen := len(x) + len(y) - 1
	out := make([]float64, outLen)
	// Small problems: direct convolution beats FFT and is exact.
	if len(x)*len(y) <= 4096 {
		for i, xv := range x {
			if xv == 0 {
				continue
			}
			for j, yv := range y {
				out[i+j] += xv * yv
			}
		}
		return out
	}
	half := NextPow2(outLen) / 2
	fx, fy := getSpec(half), getSpec(half)
	defer putSpec(fx)
	defer putSpec(fy)
	RealForward(*fx, x)
	RealForward(*fy, y)
	MulSpectra(*fx, *fy)
	RealInverse(out, *fx)
	return out
}

// MulSpectra multiplies dst by src bin by bin, the frequency-domain
// counterpart of convolution.
func MulSpectra(dst, src []complex128) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] *= src[i]
	}
}
