package fourier

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzConvolveChunk checks full-chunk convolutions against the scalar
// grouped convolution over generated geometries: kernel length, maximum
// signal length (m up to 1024), signal length, channels (1 to 40, each
// taking one of three kernels), which samples' accumulators are nil and
// the shared window (first-writer or adding) all derive from the inputs.
// Every lane of each chunk plane must equal TransformSignalSoA's spectrum
// of its signal, and every live accumulator entry ConvolveSumInto's output
// on the sample's signals added through the window (stored as 0 + y by a
// first writer, over garbage), bit for bit; nil accumulators stay nil.
func FuzzConvolveChunk(f *testing.F) {
	f.Add(uint16(1), uint16(2), uint16(2), uint8(2), uint8(0), int64(1))          // m == 2
	f.Add(uint16(3), uint16(6), uint16(5), uint8(1), uint8(0x81), int64(2))       // m == 8
	f.Add(uint16(133), uint16(256), uint16(256), uint8(3), uint8(0), int64(3))    // AlexNetS conv1 group, 3 channels
	f.Add(uint16(35), uint16(256), uint16(256), uint8(12), uint8(0x10), int64(4)) // AlexNetS conv2 group, 12 channels
	f.Add(uint16(19), uint16(256), uint16(256), uint8(16), uint8(0x06), int64(5)) // AlexNetS conv3 group, 16 channels
	f.Add(uint16(19), uint16(256), uint16(200), uint8(17), uint8(0xFF), int64(6)) // two packed calls, every sample skipped
	f.Add(uint16(1), uint16(1), uint16(1), uint8(1), uint8(0), int64(7))          // m == 1: no chunk path
	f.Fuzz(func(t *testing.T, kLen, maxSig, sigLen uint16, channels, nilMask uint8, seed int64) {
		const maxM = 1024
		k := 1 + int(kLen-1)%maxM
		ms := 1 + int(maxSig-1)%(maxM+1-k)
		rng := rand.New(rand.NewSource(seed))
		checkChunkConv(t, rng, convPlans(t, rng, k, ms), 1+int(sigLen-1)%ms, 1+int(channels-1)%40, nilMask)
	})
}

// checkChunkConv runs one full chunk of g channels of length-sigLen
// signals through TransformChunkSoA and ConvolveChunkSoA, sample s's
// accumulator nil where bit s of nilMask is set, and checks it as
// FuzzConvolveChunk describes. A length-1 plan must be refused by both.
func checkChunkConv(t *testing.T, rng *rand.Rand, kernels []*ConvPlan, sigLen, g int, nilMask uint8) {
	t.Helper()
	cp := kernels[0]
	plans := make([]*ConvPlan, g)
	for c := range plans {
		plans[c] = kernels[rng.Intn(len(kernels))]
	}
	signals := make([][]float64, g*lw) // sample s's channel c at s*g+c
	for i := range signals {
		signals[i] = randSignal(rng, sigLen)
	}
	bins := cp.SpectrumLen()
	re, im := make([]float64, g*bins*lw), make([]float64, g*bins*lw)
	chunkSigs := make([][]float64, lw)
	outLen := cp.OutLen(sigLen)
	win := randWindow(rng, outLen)
	ch := &ConvChunk{Plans: plans, SpecRe: re, SpecIm: im, Window: win}
	if !cp.Chunkable() {
		for s := range chunkSigs {
			chunkSigs[s] = signals[s*g]
		}
		if cp.TransformChunkSoA(re[:bins*lw], im[:bins*lw], chunkSigs) == nil {
			t.Fatalf("m=%d: TransformChunkSoA accepted a length-1 plan", cp.m)
		}
		ch.Accs[0] = make([]float64, outLen)
		if ConvolveChunkSoA(sigLen, ch) == nil {
			t.Fatalf("m=%d: ConvolveChunkSoA accepted a length-1 plan", cp.m)
		}
		return
	}
	a := NewSpectrumArena(1, bins)
	for c := 0; c < g; c++ {
		for s := range chunkSigs {
			chunkSigs[s] = signals[s*g+c]
		}
		cre, cim := re[c*bins*lw:(c+1)*bins*lw], im[c*bins*lw:(c+1)*bins*lw]
		if err := cp.TransformChunkSoA(cre, cim, chunkSigs); err != nil {
			t.Fatalf("TransformChunkSoA kLen=%d m=%d: %v", cp.kLen, cp.m, err)
		}
		for s, sig := range chunkSigs {
			if err := cp.TransformSignalSoA(a, 0, sig); err != nil {
				t.Fatal(err)
			}
			wr, wi := a.Slot(0)
			for k := range wr {
				if math.Float64bits(wr[k]) != math.Float64bits(cre[k*lw+s]) || math.Float64bits(wi[k]) != math.Float64bits(cim[k*lw+s]) {
					t.Fatalf("kLen=%d m=%d channel %d sample %d bin %d: scalar (%v,%v) chunk (%v,%v)",
						cp.kLen, cp.m, c, s, k, wr[k], wi[k], cre[k*lw+s], cim[k*lw+s])
				}
			}
		}
	}
	var want [lw][]float64
	y := make([]float64, outLen)
	for s := range ch.Accs {
		if nilMask>>s&1 == 1 {
			continue
		}
		acc := garbageAcc(rng, win)
		full, err := ConvolveSumInto(y, plans, signals[s*g:(s+1)*g])
		if err != nil {
			t.Fatalf("scalar ConvolveSumInto: %v", err)
		}
		ch.Accs[s], want[s] = acc, windowRef(acc, win, full)
	}
	if err := ConvolveChunkSoA(sigLen, ch); err != nil {
		t.Fatalf("ConvolveChunkSoA kLen=%d m=%d: %v", cp.kLen, cp.m, err)
	}
	for s, acc := range ch.Accs {
		if (acc == nil) != (want[s] == nil) {
			t.Fatalf("sample %d: accumulator nil %v, want nil %v", s, acc == nil, want[s] == nil)
		}
		for i, v := range acc {
			if math.Float64bits(v) != math.Float64bits(want[s][i]) {
				t.Fatalf("kLen=%d m=%d sigLen=%d channels=%d sample %d window %+v entry %d: scalar %v chunk %v",
					cp.kLen, cp.m, sigLen, g, s, win, i, want[s][i], v)
			}
		}
	}
}

// TestConvolveChunkValidation: malformed chunks fail before any
// accumulator is written.
func TestConvolveChunkValidation(t *testing.T) {
	cp, err := NewConvPlan([]float64{1, 2, 3}, 6) // outLen 8 at sigLen 6
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewConvPlan([]float64{1, 2, 3}, 60)
	if err != nil {
		t.Fatal(err)
	}
	bins := cp.SpectrumLen()
	sig := []float64{1, 2, 3, 4, 5, 6}
	sigs := make([][]float64, lw)
	for s := range sigs {
		sigs[s] = sig
	}
	re, im := make([]float64, bins*lw), make([]float64, bins*lw)
	for _, tc := range []struct {
		name   string
		re, im []float64
		sigs   [][]float64
	}{
		{"seven signals", re, im, sigs[:lw-1]},
		{"short plane", re[:bins*lw-1], im, sigs},
		{"empty signal", re, im, append(append([][]float64(nil), sigs[:lw-1]...), nil)},
		{"long signal", re, im, append(append([][]float64(nil), sigs[:lw-1]...), make([]float64, 7))},
	} {
		if cp.TransformChunkSoA(tc.re, tc.im, tc.sigs) == nil {
			t.Errorf("TransformChunkSoA %s: want an error", tc.name)
		}
	}
	if err := cp.TransformChunkSoA(re, im, sigs); err != nil {
		t.Fatal(err)
	}
	// planes repeats the transformed chunk once per channel, less trim
	// entries.
	planes := func(chans, trim int) (pr, pi []float64) {
		for c := 0; c < chans; c++ {
			pr, pi = append(pr, re...), append(pi, im...)
		}
		return pr[:len(pr)-trim], pi[:len(pi)-trim]
	}
	for _, tc := range []struct {
		name   string
		sigLen int
		plans  []*ConvPlan
		trim   int
		win    Window
	}{
		{"no plans", 6, nil, 0, Window{Rows: 1, Width: 8}},
		{"mixed geometry", 6, []*ConvPlan{cp, other}, 0, Window{Rows: 1, Width: 8}},
		{"short plane", 6, []*ConvPlan{cp}, 1, Window{Rows: 1, Width: 8}},
		{"signal too long", 7, []*ConvPlan{cp}, 0, Window{Rows: 1, Width: 8}},
		{"window past output", 6, []*ConvPlan{cp}, 0, Window{Off: 1, Rows: 1, Width: 8}},
	} {
		acc := make([]float64, 8)
		ch := &ConvChunk{Plans: tc.plans, Window: tc.win}
		ch.SpecRe, ch.SpecIm = planes(max(1, len(tc.plans)), tc.trim)
		ch.Accs[lw-1] = acc
		if ConvolveChunkSoA(tc.sigLen, ch) == nil {
			t.Errorf("ConvolveChunkSoA %s: want an error", tc.name)
		}
		for i, v := range acc {
			if v != 0 {
				t.Fatalf("%s: call wrote acc[%d] = %v", tc.name, i, v)
			}
		}
	}
}

// BenchmarkChunkMultiply times the full-chunk multiply against the lane
// multiply (mulGroup, once per channel) on the same chunk, in every kernel
// family this CPU runs: the eight samples of one shot against one kernel
// of g channels at m = 512, the AlexNetS conv2 (g = 12) and conv3 (g = 16)
// groups.
func BenchmarkChunkMultiply(b *testing.B) {
	const bins = 257
	rng := rand.New(rand.NewSource(17))
	for _, g := range []int{12, 16} {
		plans := make([]*ConvPlan, g)
		for c := range plans {
			kspec := make([]complex128, bins)
			for k := range kspec {
				kspec[k] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			plans[c] = &ConvPlan{kspec: kspec}
		}
		// The same spectra in both layouts: lane s's channels back to back
		// for the lane multiply, channel c's bin-major plane for the chunk.
		xr, xi := make([]float64, g*bins*lw), make([]float64, g*bins*lw)
		lanes := make([]ConvLane, lw)
		for s := range lanes {
			l := ConvLane{Plans: plans, SpecRe: make([]float64, g*bins), SpecIm: make([]float64, g*bins)}
			for c := 0; c < g; c++ {
				for k := 0; k < bins; k++ {
					vr, vi := rng.NormFloat64(), rng.NormFloat64()
					l.SpecRe[c*bins+k], l.SpecIm[c*bins+k] = vr, vi
					xr[(c*bins+k)*lw+s], xi[(c*bins+k)*lw+s] = vr, vi
				}
			}
			lanes[s] = l
		}
		dre, dim := make([]float64, bins*lw), make([]float64, bins*lw)
		for _, f := range append([]kernelFamily{goKernels}, packedKernelFamilies()...) {
			if f.missing != "" {
				continue
			}
			b.Run(fmt.Sprintf("channels%d/%s/lanes", g, f.name), func(b *testing.B) {
				for b.Loop() {
					for c := 0; c < g; c++ {
						f.mulGroup(dre, dim, bins, lanes, c)
					}
				}
			})
			b.Run(fmt.Sprintf("channels%d/%s/chunk", g, f.name), func(b *testing.B) {
				for b.Loop() {
					f.mulChunk(dre, dim, bins, xr, xi, plans)
				}
			})
		}
	}
}
