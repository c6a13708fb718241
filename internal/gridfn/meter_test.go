package gridfn

import (
	"math"
	"sync"
	"testing"

	"dtr/internal/fft"
)

// TestConvolveMeteredBitIdentical: attaching a Meter must not change a
// single output bit — the diagnostics observe the convolution, they do
// not participate in it.
func TestConvolveMeteredBitIdentical(t *testing.T) {
	a := FromCDF(expCDF(1), 0.01, 4096)
	b := FromCDF(expCDF(2.5), 0.01, 4096)

	plain := a.Convolve(b)
	var m Meter
	metered := a.ConvolveMetered(b, &m)

	if plain.Tail != metered.Tail {
		t.Fatalf("tails differ: %v vs %v", plain.Tail, metered.Tail)
	}
	for i := range plain.M {
		if plain.M[i] != metered.M[i] {
			t.Fatalf("bin %d differs: %v vs %v", i, plain.M[i], metered.M[i])
		}
	}
	if m.Folds != 1 {
		t.Fatalf("meter counted %d folds, want 1", m.Folds)
	}
	// The residual of a well-resolved convolution is round-off, not a
	// real mass leak.
	if m.MaxResidual > 1e-9 {
		t.Fatalf("mass residual too large: %g", m.MaxResidual)
	}
	if m.MaxNegMass > 1e-9 {
		t.Fatalf("negative mass too large: %g", m.MaxNegMass)
	}
}

func TestPrefixesMeteredBitIdentical(t *testing.T) {
	e := FromCDF(expCDF(1), 0.01, 2048)

	plain := e.Prefixes(6)
	var m Meter
	metered := e.PrefixesMetered(6, &m)

	if len(plain) != len(metered) {
		t.Fatalf("length mismatch: %d vs %d", len(plain), len(metered))
	}
	for j := range plain {
		if plain[j].Tail != metered[j].Tail {
			t.Fatalf("prefix %d: tails differ", j)
		}
		for i := range plain[j].M {
			if plain[j].M[i] != metered[j].M[i] {
				t.Fatalf("prefix %d bin %d differs", j, i)
			}
		}
	}
	// Prefixes(k) folds once per power 1..k.
	if m.Folds != 6 {
		t.Fatalf("meter counted %d folds, want 6", m.Folds)
	}
	if m.SumResidual < 0 || math.IsNaN(m.SumResidual) {
		t.Fatalf("bad SumResidual %g", m.SumResidual)
	}
}

// TestMeterNilSafe: a nil meter must be accepted everywhere.
func TestMeterNilSafe(t *testing.T) {
	var m *Meter
	m.Observe(1, 1) // must not panic
	e := FromCDF(expCDF(1), 0.01, 1024)
	if got := e.ConvolveMetered(e, nil); got == nil {
		t.Fatal("nil result")
	}
	if got := e.PrefixesMetered(3, nil); len(got) != 4 {
		t.Fatalf("PrefixesMetered(3, nil) returned %d lattices", len(got))
	}
}

// TestPrefixChainMatchesConvolveFolds: the spectral prefix chain is the
// chain of Lattice.Convolve folds, to 1e-15 absolute on every bin and
// tail, with the same meter fold count; the spectra it hands out are
// the transforms of the lattices it returns.
func TestPrefixChainMatchesConvolveFolds(t *testing.T) {
	for _, n := range []int{1, 3, 16, 64, 100, 1024} {
		e := FromCDF(expCDF(0.3), 0.01, n)
		const k = 12
		var mFold, mChain Meter
		want := []*Lattice{PointMass(0, e.Dx, n)}
		for j := 1; j <= k; j++ {
			want = append(want, want[j-1].ConvolveMetered(e, &mFold))
		}
		pre, spec := e.PrefixSpectra(k, &mChain)
		if len(pre) != k+1 || len(spec) != k+1 {
			t.Fatalf("n=%d: %d prefixes and %d spectra, want %d", n, len(pre), len(spec), k+1)
		}
		if mChain.Folds != mFold.Folds {
			t.Fatalf("n=%d: chain counted %d folds, Convolve chain %d", n, mChain.Folds, mFold.Folds)
		}
		for j := range want {
			if d := math.Abs(pre[j].Tail - want[j].Tail); d > 1e-15 {
				t.Fatalf("n=%d prefix %d: tail differs by %g", n, j, d)
			}
			for i := range want[j].M {
				if d := math.Abs(pre[j].M[i] - want[j].M[i]); d > 1e-15 {
					t.Fatalf("n=%d prefix %d bin %d differs by %g", n, j, i, d)
				}
			}
			got := make([]complex128, SpectrumLen(n))
			fft.RealForward(got, pre[j].M)
			for i := range got {
				if got[i] != spec[j][i] {
					t.Fatalf("n=%d prefix %d: spectrum bin %d is %v, transform %v", n, j, i, spec[j][i], got[i])
				}
			}
		}
		plain := e.Prefixes(k)
		for j := range plain {
			for i := range plain[j].M {
				if plain[j].M[i] != pre[j].M[i] {
					t.Fatalf("n=%d prefix %d bin %d: Prefixes and PrefixSpectra differ", n, j, i)
				}
			}
		}
	}
}

// TestPrefixSpectraConcurrent runs chains from several goroutines at
// once (shared FFT plans) and checks each against a serial run; it is
// meant for -race.
func TestPrefixSpectraConcurrent(t *testing.T) {
	e := FromCDF(expCDF(0.5), 0.01, 512)
	want, _ := e.PrefixSpectra(8, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _ := e.PrefixSpectra(8, nil)
			for j := range want {
				for i := range want[j].M {
					if got[j].M[i] != want[j].M[i] {
						t.Errorf("prefix %d bin %d differs across goroutines", j, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
