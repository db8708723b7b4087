package fourier

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func complexClose(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func slicesClose(t *testing.T, got, want []complex128, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if !complexClose(got[i], want[i], tol) {
			t.Fatalf("element %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

func TestIsPow2(t *testing.T) {
	cases := map[int]bool{
		0: false, 1: true, 2: true, 3: false, 4: true,
		5: false, 8: true, 1024: true, 1023: false, -4: false,
	}
	for n, want := range cases {
		if got := IsPow2(n); got != want {
			t.Errorf("IsPow2(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{
		0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 255: 256, 256: 256, 257: 512,
	}
	for n, want := range cases {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNewPlanRejectsNonPow2(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) should fail", n)
		}
	}
}

func TestPlanTransformLengthMismatch(t *testing.T) {
	p, err := NewPlan(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(make([]complex128, 4)); err == nil {
		t.Error("Transform with wrong length should fail")
	}
	if err := p.Inverse(make([]complex128, 16)); err == nil {
		t.Error("Inverse with wrong length should fail")
	}
}

func TestFFTImpulse(t *testing.T) {
	// DFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	got := FFT(x)
	for i, v := range got {
		if !complexClose(v, 1, eps) {
			t.Fatalf("bin %d: got %v want 1", i, v)
		}
	}
}

func TestFFTConstant(t *testing.T) {
	// DFT of a constant is an impulse at DC of magnitude n.
	n := 32
	x := make([]complex128, n)
	for i := range x {
		x[i] = 2.5
	}
	got := FFT(x)
	if !complexClose(got[0], complex(2.5*float64(n), 0), eps) {
		t.Fatalf("DC bin: got %v", got[0])
	}
	for i := 1; i < n; i++ {
		if cmplx.Abs(got[i]) > eps {
			t.Fatalf("bin %d should be zero, got %v", i, got[i])
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A complex exponential at bin k transforms to an impulse at k.
	n, k := 64, 5
	x := make([]complex128, n)
	for i := range x {
		theta := 2 * math.Pi * float64(k) * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, theta))
	}
	got := FFT(x)
	for i := range got {
		want := complex128(0)
		if i == k {
			want = complex(float64(n), 0)
		}
		if !complexClose(got[i], want, 1e-8) {
			t.Fatalf("bin %d: got %v want %v", i, got[i], want)
		}
	}
}

func TestFFTMatchesDirectPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128} {
		x := randComplex(rng, n)
		slicesClose(t, FFT(x), DFTDirect(x), 1e-7*float64(n))
	}
}

func TestFFTMatchesDirectArbitraryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 6, 7, 9, 12, 17, 25, 100, 131} {
		x := randComplex(rng, n)
		slicesClose(t, FFT(x), DFTDirect(x), 1e-7*float64(n))
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 16, 33, 256, 255} {
		x := randComplex(rng, n)
		got := IFFT(FFT(x))
		slicesClose(t, got, x, 1e-9*float64(n+1))
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 64
	a := randComplex(rng, n)
	b := randComplex(rng, n)
	alpha := complex(1.7, -0.3)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a[i] + alpha*b[i]
	}
	fa, fb, fsum := FFT(a), FFT(b), FFT(sum)
	for i := range fsum {
		if !complexClose(fsum[i], fa[i]+alpha*fb[i], 1e-8) {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// sum |x|^2 == (1/n) sum |X|^2
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{16, 50, 128} {
		x := randComplex(rng, n)
		X := FFT(x)
		var timeE, freqE float64
		for i := range x {
			timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			freqE += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		if math.Abs(timeE-freqE/float64(n)) > 1e-8*timeE {
			t.Fatalf("n=%d: Parseval violated: %g vs %g", n, timeE, freqE/float64(n))
		}
	}
}

func TestFFTDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randComplex(rng, 32)
	orig := make([]complex128, len(x))
	copy(orig, x)
	_ = FFT(x)
	_ = IFFT(x)
	slicesClose(t, x, orig, 0)
}

func TestFFTRealMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 48)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	slicesClose(t, FFTReal(x), FFT(c), 1e-9)
}

func TestFFTRealHermitianSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	X := FFTReal(x)
	for k := 1; k < n; k++ {
		if !complexClose(X[k], cmplx.Conj(X[n-k]), 1e-8) {
			t.Fatalf("Hermitian symmetry violated at bin %d", k)
		}
	}
}

func convolveDirect(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	for i := range a {
		for j := range b {
			out[i+j] += a[i] * b[j]
		}
	}
	return out
}

func TestConvolveMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct{ la, lb int }{
		{1, 1}, {3, 3}, {5, 2}, {2, 5}, {100, 7}, {64, 64}, {255, 13},
	} {
		a := make([]float64, tc.la)
		b := make([]float64, tc.lb)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := Convolve(a, b)
		want := convolveDirect(a, b)
		if len(got) != len(want) {
			t.Fatalf("length: got %d want %d", len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("la=%d lb=%d elem %d: got %g want %g", tc.la, tc.lb, i, got[i], want[i])
			}
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if got := Convolve(nil, []float64{1}); got != nil {
		t.Errorf("Convolve(nil, x) = %v, want nil", got)
	}
	if got := Convolve([]float64{1}, nil); got != nil {
		t.Errorf("Convolve(x, nil) = %v, want nil", got)
	}
}

func TestConvolveCommutative(t *testing.T) {
	f := func(av, bv []float64) bool {
		if len(av) == 0 || len(bv) == 0 {
			return true
		}
		if len(av) > 64 {
			av = av[:64]
		}
		if len(bv) > 64 {
			bv = bv[:64]
		}
		ab := Convolve(av, bv)
		ba := Convolve(bv, av)
		for i := range ab {
			if math.Abs(ab[i]-ba[i]) > 1e-6*(1+math.Abs(ab[i])) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(10))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCrossCorrelateDelayedImpulse(t *testing.T) {
	// Correlating a signal against a shifted copy of itself peaks at the
	// lag equal to the shift.
	sig := []float64{1, 2, 3, 2, 1}
	shift := 4
	a := make([]float64, 16)
	copy(a[shift:], sig)
	c := CrossCorrelate(a, sig)
	// Peak index should be len(sig)-1 + shift.
	best, bestIdx := math.Inf(-1), -1
	for i, v := range c {
		if v > best {
			best, bestIdx = v, i
		}
	}
	if want := len(sig) - 1 + shift; bestIdx != want {
		t.Fatalf("peak at %d, want %d", bestIdx, want)
	}
}

func TestCrossCorrelateMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, 20)
	b := make([]float64, 7)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got := CrossCorrelate(a, b)
	// Direct: out[m] = sum_j a[m - (len(b)-1) + j] * b[j]
	want := make([]float64, len(a)+len(b)-1)
	for m := range want {
		for j := range b {
			idx := m - (len(b) - 1) + j
			if idx >= 0 && idx < len(a) {
				want[m] += a[idx] * b[j]
			}
		}
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("lag %d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestIntensity(t *testing.T) {
	x := []complex128{3 + 4i, 0, -2}
	inten := Intensity(x)
	want := []float64{25, 0, 4}
	for i := range x {
		if math.Abs(inten[i]-want[i]) > eps {
			t.Errorf("intensity %d: got %g want %g", i, inten[i], want[i])
		}
	}
}

func TestWienerKhinchin(t *testing.T) {
	// IFFT(|FFT(x)|^2) equals the circular autocorrelation of x.
	// This identity is the mathematical core of the JTC: the square-law
	// detector at the Fourier plane plus the second lens yields correlation.
	rng := rand.New(rand.NewSource(14))
	n := 64
	x := make([]float64, n)
	for i := 0; i < 20; i++ {
		x[i] = rng.Float64()
	}
	X := FFTReal(x)
	power := make([]complex128, n)
	for i, v := range X {
		power[i] = complex(real(v)*real(v)+imag(v)*imag(v), 0)
	}
	ac := IFFT(power)
	// Direct circular autocorrelation: r[m] = sum_n x[n] x[(n+m) mod N]
	for m := 0; m < n; m++ {
		var want float64
		for i := 0; i < n; i++ {
			want += x[i] * x[(i+m)%n]
		}
		if math.Abs(real(ac[m])-want) > 1e-8 {
			t.Fatalf("lag %d: got %g want %g", m, real(ac[m]), want)
		}
		if math.Abs(imag(ac[m])) > 1e-8 {
			t.Fatalf("lag %d: imaginary residue %g", m, imag(ac[m]))
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	x := randComplex(rng, 1024)
	p, _ := NewPlan(1024)
	buf := make([]complex128, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		_ = p.Transform(buf)
	}
}

func BenchmarkConvolve256x25(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	a := make([]float64, 256)
	k := make([]float64, 25)
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := range k {
		k[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Convolve(a, k)
	}
}
