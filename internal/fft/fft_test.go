package fft

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
)

func TestForwardKnownDFT(t *testing.T) {
	// DFT of [1,0,0,0] is [1,1,1,1].
	a := []complex128{1, 0, 0, 0}
	Forward(a)
	for i, v := range a {
		if math.Abs(real(v)-1) > 1e-12 || math.Abs(imag(v)) > 1e-12 {
			t.Fatalf("bin %d: %v", i, v)
		}
	}
	// DFT of [1,1,1,1] is [4,0,0,0].
	b := []complex128{1, 1, 1, 1}
	Forward(b)
	if math.Abs(real(b[0])-4) > 1e-12 {
		t.Fatalf("DC bin: %v", b[0])
	}
	for _, v := range b[1:] {
		if math.Abs(real(v)) > 1e-12 || math.Abs(imag(v)) > 1e-12 {
			t.Fatalf("non-DC bin: %v", v)
		}
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	n := 64
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(r.Float64()-0.5, r.Float64()-0.5)
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			s += a[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		want[k] = s
	}
	Forward(a)
	for k := range a {
		if d := a[k] - want[k]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("bin %d: got %v want %v", k, a[k], want[k])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 2, 8, 256, 1024} {
		a := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range a {
			a[i] = complex(r.NormFloat64(), r.NormFloat64())
			orig[i] = a[i]
		}
		Forward(a)
		Inverse(a)
		for i := range a {
			if d := a[i] - orig[i]; math.Hypot(real(d), imag(d)) > 1e-10 {
				t.Fatalf("n=%d idx=%d: got %v want %v", n, i, a[i], orig[i])
			}
		}
	}
}

func TestNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two length")
		}
	}()
	Forward(make([]complex128, 6))
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func naiveConv(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	out := make([]float64, len(x)+len(y)-1)
	for i := range x {
		for j := range y {
			out[i+j] += x[i] * y[j]
		}
	}
	return out
}

func TestConvolveSmallAndLargePaths(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	// Small path (direct) and large path (FFT) must agree with the naive sum.
	for _, sizes := range [][2]int{{3, 4}, {50, 60}, {300, 500}} {
		x := make([]float64, sizes[0])
		y := make([]float64, sizes[1])
		for i := range x {
			x[i] = r.Float64()
		}
		for i := range y {
			y[i] = r.Float64()
		}
		got := Convolve(x, y)
		want := naiveConv(x, y)
		if len(got) != len(want) {
			t.Fatalf("length %d want %d", len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("sizes %v idx %d: got %g want %g", sizes, i, got[i], want[i])
			}
		}
	}
	if Convolve(nil, []float64{1}) != nil || Convolve([]float64{1}, nil) != nil {
		t.Fatal("empty input should give nil")
	}
}

func TestConvolvePreservesMass(t *testing.T) {
	// Convolution of two densities has total mass = product of masses.
	prop := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		x := make([]float64, 40+int(seed%100))
		y := make([]float64, 30+int(seed%77))
		var sx, sy float64
		for i := range x {
			x[i] = r.Float64()
			sx += x[i]
		}
		for i := range y {
			y[i] = r.Float64()
			sy += y[i]
		}
		var sc float64
		for _, v := range Convolve(x, y) {
			sc += v
		}
		return math.Abs(sc-sx*sy) < 1e-6*(1+sx*sy)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// approx fails the test unless got is within rel of want relative to the
// larger of their magnitudes and scale. The scale floor is the size of
// the inputs: a bin or sample that cancels to ~0 can only be expected
// to match to round-off of that size, not to its own.
func approx(t testing.TB, what string, got, want, rel, scale float64) {
	t.Helper()
	mag := math.Max(math.Max(math.Abs(got), math.Abs(want)), scale)
	if math.Abs(got-want) > rel*mag {
		t.Fatalf("%s: got %.17g want %.17g (|diff| %.3g > %.3g)", what, got, want, math.Abs(got-want), rel*mag)
	}
}

// naiveDFT is the O(N²) DFT of a real sequence, with the twiddle angle
// reduced exactly (k·j mod N) before cos/sin.
func naiveDFT(x []float64, n int) []complex128 {
	out := make([]complex128, n)
	for k := range out {
		var re, im float64
		for j, v := range x {
			ang := -2 * math.Pi * float64(k*j%n) / float64(n)
			re += v * math.Cos(ang)
			im += v * math.Sin(ang)
		}
		out[k] = complex(re, im)
	}
	return out
}

func randReal(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64() - 0.5
	}
	return x
}

func norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func TestRealForwardMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for n := 2; n <= 1<<12; n <<= 1 {
		// A full-length input and a shorter one the transform zero-pads.
		for _, m := range []int{n, n/2 + 1} {
			x := randReal(r, m)
			got := make([]complex128, n/2+1)
			RealForward(got, x)
			want := naiveDFT(x, n)
			scale := norm2(x)
			for k, g := range got {
				what := fmt.Sprintf("n=%d len=%d bin %d", n, m, k)
				approx(t, what+" re", real(g), real(want[k]), 1e-12, scale)
				approx(t, what+" im", imag(g), imag(want[k]), 1e-12, scale)
			}
		}
	}
}

func TestRealInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	for n := 2; n <= 1<<12; n <<= 1 {
		x := randReal(r, n)
		spec := make([]complex128, n/2+1)
		RealForward(spec, x)
		got := make([]float64, n)
		RealInverse(got, spec)
		for i := range x {
			approx(t, fmt.Sprintf("n=%d sample %d", n, i), got[i], x[i], 1e-12, 1)
		}
		// A truncated output is the prefix of the full one.
		RealForward(spec, x)
		short := make([]float64, n/2+1)
		RealInverse(short, spec)
		for i := range short {
			if short[i] != got[i] {
				t.Fatalf("n=%d: truncated sample %d is %v, full %v", n, i, short[i], got[i])
			}
		}
	}
}

func TestConvolveMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	for n := 2; n <= 1<<12; n <<= 1 {
		for _, m := range []int{n, n - 1} {
			x := make([]float64, n)
			y := make([]float64, max(m, 1))
			for i := range x {
				x[i] = r.Float64()
			}
			for i := range y {
				y[i] = r.Float64()
			}
			got := Convolve(x, y)
			want := naiveConv(x, y)
			if len(got) != len(want) {
				t.Fatalf("n=%d m=%d: length %d want %d", n, m, len(got), len(want))
			}
			// Every output is a sum of at most n products of [0,1) values,
			// so n bounds the magnitude round-off is relative to.
			scale := float64(n)
			for i := range got {
				approx(t, fmt.Sprintf("n=%d m=%d out %d", n, m, i), got[i], want[i], 1e-13, scale)
			}
		}
	}
}

func TestRealTransformsDoNotAllocate(t *testing.T) {
	const n = 1 << 13
	x := randReal(rand.New(rand.NewPCG(13, 14)), 2*n)
	spec := make([]complex128, n+1)
	out := make([]float64, 2*n)
	RealForward(spec, x) // build the plan
	if a := testing.AllocsPerRun(20, func() { RealForward(spec, x) }); a != 0 {
		t.Fatalf("RealForward: %v allocations per call, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { RealInverse(out, spec) }); a != 0 {
		t.Fatalf("RealInverse: %v allocations per call, want 0", a)
	}
}

// TestPlansConcurrent builds plans from several goroutines at once; run
// under -race it checks the plan cache and the Convolve scratch pool.
func TestPlansConcurrent(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 16))
	x, y := randReal(r, 3000), randReal(r, 2500)
	want := naiveConv(x, y)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := Convolve(x, y)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-10 {
					errs <- fmt.Sprintf("out %d: got %g want %g", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
