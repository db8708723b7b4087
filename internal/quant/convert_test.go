package quant

import (
	"fmt"
	"math"
	"testing"
)

// converterFamily is one implementation of the converter loops; missing,
// when set, says why the family cannot run on this CPU.
type converterFamily struct {
	name    string
	missing string
	maxAbs  func(data []float64) float64
	split   func(pos, neg, src []float64, lo, hi, step float64) (hasPos, hasNeg bool)
	accum   func(out, src []float64, lo, hi, step, sgn float64)
}

// splitmix is the input generator's stream: a seed fully determines the
// drawn slices, so every fuzz input replays.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// draw returns one converter input for quantizer q: a tie k+0.5 steps
// from zero or one of its math.Nextafter neighbours, ±0, a subnormal, NaN,
// ±Inf, a value at or past a clamp bound, an in-range value, or arbitrary
// bits. Every NaN is math.NaN(): x86 picks between two NaN operands by
// operand order, which the Go compiler does not fix, so distinct payloads
// would test the compiler's register choice rather than the kernels.
func (s *splitmix) draw(q *Linear) float64 {
	r := s.next()
	sign := 1.0
	if r&1 == 1 {
		sign = -1
	}
	u := float64(r>>11) / (1 << 53) // [0, 1)
	switch (r >> 1) % 11 {
	case 0, 1, 2:
		k := float64((r >> 8) % (uint64(q.Levels()) + 3))
		x := sign * (k + 0.5) * q.Step()
		switch (r >> 5) % 3 {
		case 1:
			x = math.Nextafter(x, math.Inf(1))
		case 2:
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x
	case 3:
		return math.Copysign(0, sign)
	case 4:
		return sign * math.Float64frombits(1+(r>>12)) // exponent field 0
	case 5:
		return math.NaN()
	case 6:
		return math.Inf(int(sign))
	case 7:
		switch (r >> 5) % 3 {
		case 0:
			return sign * q.Max
		case 1:
			return math.Nextafter(sign*q.Max, sign*math.Inf(1))
		}
		return sign * q.Max * (1 + 4*u)
	case 8, 9:
		return sign * q.Max * 1.25 * u
	}
	if x := math.Float64frombits(s.next()); !math.IsNaN(x) {
		return x
	}
	return math.NaN()
}

func (s *splitmix) slice(q *Linear, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.draw(q)
	}
	return xs
}

// converterCase is one generated input of every converter loop: n values
// for the DAC and the ADC, the ADC's accumulator, its sign, and the slice
// offset from a 64-byte line, so that alignment varies too.
type converterCase struct {
	dac, adc       *Linear
	src, psum, out []float64
	sgn            float64
	off            int
}

// newConverterCase maps fuzz arguments onto valid quantizers (ADC 1–32
// bits unsigned, DAC 2–32 bits signed, finite positive full scales) and
// draws inputs of length n%71, so every tail length of the eight-lane
// kernels occurs.
func newConverterCase(t *testing.T, seed uint64, n, adcBits, dacBits uint8, adcFull, dacFull float64, neg bool) converterCase {
	t.Helper()
	full := func(x float64) float64 {
		x = math.Abs(x)
		if !(x > 0) || math.IsInf(x, 0) {
			return 1
		}
		return x
	}
	adc, err := NewUnsigned(1+int(adcBits)%32, full(adcFull))
	if err != nil {
		t.Fatal(err)
	}
	dac, err := NewLinear(2+int(dacBits)%31, full(dacFull))
	if err != nil {
		t.Fatal(err)
	}
	s := splitmix(seed)
	c := converterCase{dac: dac, adc: adc, sgn: 1, off: int(s.next() % 8)}
	if neg {
		c.sgn = -1
	}
	c.src = s.slice(dac, int(n)%71)
	c.psum = s.slice(adc, len(c.src))
	c.out = s.slice(adc, len(c.src))
	return c
}

// guarded returns a copy of xs at c.off within a buffer that has eight
// sentinel elements on each side, and the buffer itself.
func (c converterCase) guarded(xs []float64) (view, buf []float64) {
	buf = make([]float64, c.off+len(xs)+16)
	for i := range buf {
		buf[i] = -7.25
	}
	view = buf[c.off+8 : c.off+8+len(xs)]
	copy(view, xs)
	return view, buf
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// check runs family f on c and compares every result with the Go loops
// bit for bit, sentinels included: a kernel may write no element outside
// its slices.
func (c converterCase) check(t *testing.T, f converterFamily) {
	t.Helper()
	src, _ := c.guarded(c.src)
	if got, want := f.maxAbs(src), maxAbsGo(c.src); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s maxAbs(n=%d) = %v (%#x), go %v (%#x)", f.name, len(src), got, math.Float64bits(got), want, math.Float64bits(want))
	}

	lo, hi := c.dac.bounds()
	step := c.dac.Step()
	wantPos, wantNeg := make([]float64, len(src)), make([]float64, len(src))
	wantHP, wantHN := quantizeSplitGo(wantPos, wantNeg, c.src, lo, hi, step)
	pos, posBuf := c.guarded(make([]float64, len(src)))
	neg, negBuf := c.guarded(make([]float64, len(src)))
	for i := range pos {
		pos[i], neg[i] = 3, 3 // every element must be overwritten
	}
	hp, hn := f.split(pos, neg, src, lo, hi, step)
	if hp != wantHP || hn != wantHN {
		t.Errorf("%s split(%d bits, max %v, n=%d) signs (%v,%v), go (%v,%v)", f.name, c.dac.Bits, c.dac.Max, len(src), hp, hn, wantHP, wantHN)
	}
	for name, pair := range map[string][2][]float64{"pos": {pos, wantPos}, "neg": {neg, wantNeg}} {
		if i := sameBits(pair[0], pair[1]); i >= 0 {
			t.Errorf("%s split(%d bits, max %v) %s[%d] of src %v = %v, go %v", f.name, c.dac.Bits, c.dac.Max, name, i, c.src[i], pair[0][i], pair[1][i])
		}
	}

	lo, hi = c.adc.bounds()
	step = c.adc.Step()
	want := append([]float64(nil), c.out...)
	quantizeAccumGo(want, c.psum, lo, hi, step, c.sgn)
	psum, _ := c.guarded(c.psum)
	out, outBuf := c.guarded(c.out)
	f.accum(out, psum, lo, hi, step, c.sgn)
	if i := sameBits(out, want); i >= 0 {
		t.Errorf("%s accum(%d bits, max %v, sgn %v) out[%d] = %v + code of %v: got %v, go %v", f.name, c.adc.Bits, c.adc.Max, c.sgn, i, c.out[i], c.psum[i], out[i], want[i])
	}
	for _, b := range [][]float64{posBuf, negBuf, outBuf} {
		for i := range b {
			if i < c.off+8 || i >= c.off+8+len(src) {
				if b[i] != -7.25 {
					t.Fatalf("%s wrote element %d outside its slice [%d,%d)", f.name, i, c.off+8, c.off+8+len(src))
				}
			}
		}
	}
}

// checkGoLoops drives the portable path directly: each Go loop equals the
// per-element definition through Linear.Quantize.
func (c converterCase) checkGoLoops(t *testing.T) {
	t.Helper()
	pos, neg := make([]float64, len(c.src)), make([]float64, len(c.src))
	hp, hn := quantizeSplitGo(pos, neg, c.src, -c.dac.Max, c.dac.Max, c.dac.Step())
	var wantHP, wantHN bool
	for i, x := range c.src {
		v := c.dac.Quantize(x)
		var p, ng float64
		if v > 0 {
			p, wantHP = v, true
		} else if v < 0 {
			ng, wantHN = -v, true
		}
		if math.Float64bits(pos[i]) != math.Float64bits(p) || math.Float64bits(neg[i]) != math.Float64bits(ng) {
			t.Fatalf("go split of %v = (%v,%v), Quantize gives %v", x, pos[i], neg[i], v)
		}
	}
	if hp != wantHP || hn != wantHN {
		t.Fatalf("go split signs (%v,%v), Quantize gives (%v,%v)", hp, hn, wantHP, wantHN)
	}
	out := append([]float64(nil), c.out...)
	quantizeAccumGo(out, c.psum, 0, c.adc.Max, c.adc.Step(), c.sgn)
	for i, x := range c.psum {
		if want := c.out[i] + c.sgn*c.adc.Quantize(x); math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("go accum of %v onto %v = %v, Quantize gives %v", x, c.out[i], out[i], want)
		}
	}
	m := 0.0
	for _, x := range c.src {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	if got := maxAbsGo(c.src); got != m {
		t.Fatalf("go maxAbs = %v, want %v", got, m)
	}
}

// FuzzConverterKernels compares each packed converter kernel with its Go
// loop bit for bit on generated slices of length 0–70. The seeds pin the
// operating points the conv path uses (8-bit ADC and DAC), both bit-width
// extremes, full scales with power-of-two steps (so k+0.5-step inputs are
// exact ties) and ones without, and both accumulation signs.
func FuzzConverterKernels(f *testing.F) {
	type seed struct {
		seed                uint64
		n, adcBits, dacBits uint8
		adcFull, dacFull    float64
		neg                 bool
	}
	for _, s := range []seed{
		{1, 70, 7, 6, 255, 127, false},                 // 8-bit ADC and DAC, step 1
		{2, 69, 7, 6, 255, 127, true},                  // the same, subtracting
		{3, 64, 7, 6, 3.7, 0.83, false},                // non-power-of-two steps
		{4, 7, 0, 0, 1, 1, true},                       // 1-bit ADC, 2-bit DAC
		{5, 33, 31, 30, 4294967295, 2147483647, false}, // 32 bits, step 1
		{6, 17, 31, 30, 1e-300, 5e-310, true},          // subnormal steps
		{7, 1, 15, 14, 1e300, 1e300, false},            // huge full scales
		{8, 0, 7, 6, 1, 1, false},                      // empty slices
		{9, 15, 3, 2, 15, 7, true},                     // 4-bit, step 1
		{10, 8, 11, 11, 0.5, 2, false},                 // one full block
	} {
		f.Add(s.seed, s.n, s.adcBits, s.dacBits, s.adcFull, s.dacFull, s.neg)
	}
	families := converterFamilies()
	f.Fuzz(func(t *testing.T, seed uint64, n, adcBits, dacBits uint8, adcFull, dacFull float64, neg bool) {
		c := newConverterCase(t, seed, n, adcBits, dacBits, adcFull, dacFull, neg)
		c.checkGoLoops(t)
		for _, fam := range families {
			if fam.missing != "" {
				t.Logf("%s kernels skipped: %s", fam.name, fam.missing)
				continue
			}
			c.check(t, fam)
		}
	})
}

// TestConverterKernelFamilies runs every packed family against the Go
// loops at every tail length and bit width, and logs which families ran.
func TestConverterKernelFamilies(t *testing.T) {
	var families []converterFamily
	for _, f := range converterFamilies() {
		if f.missing != "" {
			t.Logf("%s column skipped: %s", f.name, f.missing)
			continue
		}
		t.Logf("comparing %s with go", f.name)
		families = append(families, f)
	}
	t.Logf("converter kernels in use: %s", ConverterKernels())
	for bits := uint8(0); bits < 32; bits++ {
		for n := uint8(0); n <= 70; n++ {
			seed := uint64(bits)<<8 | uint64(n)
			c := newConverterCase(t, seed, n, bits, bits, 1+float64(bits), 0.5+float64(n), n%2 == 1)
			c.checkGoLoops(t)
			for _, f := range families {
				c.check(t, f)
			}
		}
	}
}

// TestConverterExported checks that the exported entry points pass their
// quantizer's clamp range and step to the loops, and reject short
// destinations instead of writing past them.
func TestConverterExported(t *testing.T) {
	q, _ := NewLinear(4, 7) // step 1
	src := []float64{-9, -2.5, -0.0, 0.4, 2.5, 6.5, math.NaN()}
	pos, neg := make([]float64, len(src)), make([]float64, len(src))
	hp, hn := q.QuantizeSplit(pos, neg, src)
	wantPos := []float64{0, 0, 0, 0, 3, 7, 0}
	wantNeg := []float64{7, 3, 0, 0, 0, 0, 0}
	if !hp || !hn || sameBits(pos, wantPos) >= 0 || sameBits(neg, wantNeg) >= 0 {
		t.Errorf("QuantizeSplit = %v %v (%v,%v), want %v %v", pos, neg, hp, hn, wantPos, wantNeg)
	}
	adc, _ := NewUnsigned(3, 7) // step 1
	out := []float64{1, 1, 1, 1}
	adc.QuantizeAccum(out, []float64{-1, 2.5, 9, 0.49}, -1)
	if want := []float64{1, -2, -6, 1}; sameBits(out, want) >= 0 {
		t.Errorf("QuantizeAccum = %v, want %v", out, want)
	}
	if got := MaxAbs([]float64{math.NaN(), -3, 2, -0.0}); got != 3 {
		t.Errorf("MaxAbs = %v, want 3", got)
	}
	if got := MaxAbs(nil); math.Float64bits(got) != 0 {
		t.Errorf("MaxAbs(nil) = %v, want +0", got)
	}
	for name, call := range map[string]func(){
		"split": func() { q.QuantizeSplit(pos[:2], neg, src) },
		"accum": func() { adc.QuantizeAccum(out[:2], []float64{1, 2, 3}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a short destination did not panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkConverterKernels times each converter loop against its Go
// loop at the sizes of the benchmark networks' convs (3×32×32 inputs):
// DAC rows of 32, 16 and 8 values; ADC planes of one sample's outputs,
// 12×32×32 (AlexNetS conv1), 8×32×32 (SmallCNN conv1), 24×16×16 and
// 32×8×8; full-scale searches over one sample's inputs, 3×32×32 and
// 24×8×8. It reports ns per element.
func BenchmarkConverterKernels(b *testing.B) {
	dac, _ := NewLinear(8, 2.5)
	adc, _ := NewUnsigned(8, 40)
	s := splitmix(1)
	normal := func(n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = scale * (float64(s.next()>>11)/(1<<53)*2 - 1)
		}
		return xs
	}
	run := func(name string, n int, f func()) {
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				f()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
	for _, fam := range append([]converterFamily{goConverters}, converterFamilies()...) {
		if fam.missing != "" {
			continue
		}
		for _, n := range []int{32, 16, 8} {
			src := normal(n, 2)
			pos, neg := make([]float64, n), make([]float64, n)
			lo, hi := dac.bounds()
			step := dac.Step()
			run(fmt.Sprintf("dac/n=%d/%s", n, fam.name), n, func() { fam.split(pos, neg, src, lo, hi, step) })
		}
		for _, n := range []int{12 * 32 * 32, 8 * 32 * 32, 24 * 16 * 16, 32 * 8 * 8} {
			psum, out := normal(n, 30), make([]float64, n)
			lo, hi := adc.bounds()
			step := adc.Step()
			run(fmt.Sprintf("adc/n=%d/%s", n, fam.name), n, func() { fam.accum(out, psum, lo, hi, step, 1) })
		}
		for _, n := range []int{3 * 32 * 32, 24 * 8 * 8} {
			data := normal(n, 3)
			run(fmt.Sprintf("maxabs/n=%d/%s", n, fam.name), n, func() { fam.maxAbs(data) })
		}
	}
}

// goConverters is the portable family every packed family must match.
var goConverters = converterFamily{
	name:   "go",
	maxAbs: maxAbsGo,
	split:  quantizeSplitGo,
	accum:  quantizeAccumGo,
}
