package fft

import (
	"math/rand/v2"
	"testing"
)

func benchConv(b *testing.B, n int) {
	r := rand.New(rand.NewPCG(1, 2))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()
		y[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Convolve(x, y)
	}
}

func BenchmarkConvolve1k(b *testing.B)  { benchConv(b, 1<<10) }
func BenchmarkConvolve8k(b *testing.B)  { benchConv(b, 1<<13) }
func BenchmarkConvolve64k(b *testing.B) { benchConv(b, 1<<16) }

func BenchmarkForward4k(b *testing.B) {
	a := make([]complex128, 1<<12)
	for i := range a {
		a[i] = complex(float64(i%7), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward(a)
	}
}

func benchRealForward(b *testing.B, n int) {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 7)
	}
	spec := make([]complex128, n/2+1)
	RealForward(spec, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RealForward(spec, x)
	}
}

// The real transforms of these lengths do the work of complex ones of
// half the length; compare BenchmarkRealForward8k with BenchmarkForward4k.
func BenchmarkRealForward4k(b *testing.B)  { benchRealForward(b, 1<<12) }
func BenchmarkRealForward8k(b *testing.B)  { benchRealForward(b, 1<<13) }
func BenchmarkRealForward16k(b *testing.B) { benchRealForward(b, 1<<14) }
