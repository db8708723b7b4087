package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLinearValidation(t *testing.T) {
	if _, err := NewLinear(0, 1); err == nil {
		t.Error("bits=0 should fail")
	}
	if _, err := NewLinear(33, 1); err == nil {
		t.Error("bits=33 should fail")
	}
	// A signed 1-bit quantizer has no positive level: its step would be
	// Max/0 = +Inf and every Quantize NaN.
	if _, err := NewLinear(1, 1); err == nil {
		t.Error("signed bits=1 should fail")
	}
	if _, err := LinearOf(1, 1); err == nil {
		t.Error("LinearOf bits=1 should fail")
	}
	if _, err := LinearOf(33, 1); err == nil {
		t.Error("LinearOf bits=33 should fail")
	}
	if q, err := NewLinear(2, 1); err != nil || q.Step() != 1 || q.Quantize(0.7) != 1 {
		t.Errorf("signed bits=2: %v, %v", q, err)
	}
	if u, err := NewUnsigned(1, 1); err != nil || u.Step() != 1 || u.Quantize(0.7) != 1 {
		t.Errorf("unsigned bits=1: %v, %v", u, err)
	}
	if _, err := NewUnsigned(0, 1); err == nil {
		t.Error("unsigned bits=0 should fail")
	}
	if _, err := NewLinear(8, 0); err == nil {
		t.Error("zero scale should fail")
	}
	if _, err := NewLinear(8, math.Inf(1)); err == nil {
		t.Error("infinite scale should fail")
	}
	if _, err := NewLinear(8, math.NaN()); err == nil {
		t.Error("NaN scale should fail")
	}
	if _, err := NewLinear(8, -1); err == nil {
		t.Error("negative scale should fail")
	}
}

func TestLinearLevelsAndStep(t *testing.T) {
	q, err := NewLinear(8, 127)
	if err != nil {
		t.Fatal(err)
	}
	if q.Levels() != 256 {
		t.Errorf("Levels = %d", q.Levels())
	}
	if math.Abs(q.Step()-1) > 1e-12 {
		t.Errorf("Step = %g, want 1", q.Step())
	}
	u, err := NewUnsigned(8, 255)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u.Step()-1) > 1e-12 {
		t.Errorf("unsigned Step = %g, want 1", u.Step())
	}
}

func TestQuantizeClipping(t *testing.T) {
	q, _ := NewLinear(8, 1)
	if got := q.Quantize(5); got != 1 {
		t.Errorf("over-range: got %g, want 1", got)
	}
	if got := q.Quantize(-5); got != -1 {
		t.Errorf("under-range: got %g, want -1", got)
	}
	u, _ := NewUnsigned(8, 1)
	if got := u.Quantize(-0.3); got != 0 {
		t.Errorf("unsigned clips negatives to 0, got %g", got)
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	q, _ := NewLinear(6, 2)
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		once := q.Quantize(x)
		twice := q.Quantize(once)
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeErrorBound(t *testing.T) {
	q, _ := NewLinear(8, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := rng.Float64()*2 - 1
		if err := math.Abs(q.Quantize(x) - x); err > q.MaxError()+1e-12 {
			t.Fatalf("error %g exceeds bound %g for x=%g", err, q.MaxError(), x)
		}
	}
}

func TestQuantizeMonotone(t *testing.T) {
	q, _ := NewLinear(4, 1)
	prev := math.Inf(-1)
	for x := -1.5; x <= 1.5; x += 0.01 {
		v := q.Quantize(x)
		if v < prev {
			t.Fatalf("quantizer not monotone at %g", x)
		}
		prev = v
	}
}

func TestQuantizeSlice(t *testing.T) {
	q, _ := NewLinear(8, 1)
	in := []float64{0.5, -0.25, 3}
	out := q.QuantizeSlice(in)
	if len(out) != 3 {
		t.Fatal("length")
	}
	if in[2] != 3 {
		t.Fatal("input mutated")
	}
	if out[2] != 1 {
		t.Fatal("clipping in slice")
	}
}

func TestMoreBitsLessError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64()*2 - 1
	}
	var prevErr = math.Inf(1)
	for _, bits := range []int{2, 4, 8, 12} {
		q, _ := NewLinear(bits, 1)
		var sum float64
		for _, x := range xs {
			d := q.Quantize(x) - x
			sum += d * d
		}
		if sum >= prevErr {
			t.Fatalf("%d bits did not reduce error: %g >= %g", bits, sum, prevErr)
		}
		prevErr = sum
	}
}

func TestSQNR(t *testing.T) {
	ref := []float64{1, 2, 3, 4}
	if !math.IsInf(SQNR(ref, ref), 1) {
		t.Error("identical signals should give +Inf")
	}
	deg := []float64{1.1, 2.1, 3.1, 4.1}
	v := SQNR(ref, deg)
	if v < 20 || v > 30 {
		t.Errorf("SQNR = %g dB, want ~24.8", v)
	}
	if !math.IsNaN(SQNR(ref, deg[:2])) {
		t.Error("length mismatch should give NaN")
	}
	if !math.IsInf(SQNR([]float64{0, 0}, []float64{1, 0}), -1) {
		t.Error("zero reference with noise should give -Inf")
	}
}

func TestQuantizationNoiseMatchesTheory(t *testing.T) {
	// Uniform quantization of a full-scale uniform signal gives
	// SQNR ~ 6.02*bits + constant; just verify the ~6 dB/bit slope.
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.Float64()*2 - 1
	}
	var prev float64
	for _, bits := range []int{4, 6, 8, 10} {
		q, _ := NewLinear(bits, 1)
		v := SQNR(xs, q.QuantizeSlice(xs))
		if bits > 4 {
			gain := v - prev
			if gain < 10 || gain > 14 { // 2 bits => ~12 dB
				t.Errorf("bits %d->%d: gain %g dB, want ~12", bits-2, bits, gain)
			}
		}
		prev = v
	}
}
