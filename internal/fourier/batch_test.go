package fourier

import (
	"math"
	"math/rand"
	"testing"
)

// batchCounts is the slot-count axis: singleton, a ragged tail one short of
// a full group, exactly one group, and several groups plus a ragged tail.
var batchCounts = []int{1, LockstepWidth - 1, LockstepWidth, 3*LockstepWidth + 1}

// TestLockstepConvBitIdentity checks the arena-level lockstep APIs
// (TransformSlotsSoA, ConvolveLanesSoA over window lanes of one and of
// several channels) against the scalar TransformSignalSoA/ConvolveSumInto
// path bit-for-bit, across kernel/signal geometries that exercise
// degenerate (m==1) and general plans, with kernels mixed per lane and per
// channel.
func TestLockstepConvBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct{ kLen, maxSig int }{
		{1, 1},     // m == 1 degenerate
		{1, 2},     // m == 2, inner plan n == 1
		{3, 6},     // m == 8
		{5, 60},    // m == 64
		{9, 120},   // m == 128
		{133, 256}, // m == 512: AlexNetS conv1's row-tiled shot
		{7, 1000},  // m == 1024: inner length 512 runs final2
	}
	for _, tc := range cases {
		plans := convPlans(t, rng, tc.kLen, tc.maxSig)
		for _, channels := range []int{1, 3} {
			for _, count := range batchCounts {
				checkLockstepConv(t, rng, plans, 1+rng.Intn(tc.maxSig), count, channels)
			}
		}
	}
}

// FuzzConvolveLanesWindow checks channel-group window lanes against the
// scalar grouped convolution over generated geometries: kernel length,
// maximum signal length (m up to 1024), signal length, slot count (1 to
// 2*LockstepWidth+2 samples, one left empty past three, so 1 to
// 2*LockstepWidth+1 lanes), channels per lane (1 to 16, the kernels mixed
// per lane and per channel) and the windows (one shared by every lane, as
// a shot's lanes share it, or one per lane; even and odd offsets, source
// strides wider than the width, first-writer or adding) all derive from
// the inputs.
func FuzzConvolveLanesWindow(f *testing.F) {
	f.Add(uint16(1), uint16(1), uint16(1), uint8(1), uint8(1), int64(1))        // m == 1
	f.Add(uint16(1), uint16(2), uint16(2), uint8(3), uint8(2), int64(2))        // m == 2
	f.Add(uint16(133), uint16(256), uint16(256), uint8(18), uint8(3), int64(3)) // AlexNetS conv1, 17 lanes
	f.Add(uint16(35), uint16(256), uint16(256), uint8(9), uint8(1), int64(4))   // AlexNetS conv2 per channel, 8 lanes
	f.Add(uint16(19), uint16(256), uint16(256), uint8(8), uint8(1), int64(5))   // AlexNetS conv3 per channel, 7 lanes
	f.Add(uint16(35), uint16(256), uint16(256), uint8(9), uint8(12), int64(6))  // AlexNetS conv2 group, 12 channels
	f.Add(uint16(19), uint16(256), uint16(256), uint8(8), uint8(16), int64(7))  // AlexNetS conv3 group, 16 channels
	f.Add(uint16(19), uint16(256), uint16(256), uint8(2), uint8(1), int64(8))   // a two-lane ragged group
	f.Fuzz(func(t *testing.T, kLen, maxSig, sigLen uint16, slots, channels uint8, seed int64) {
		const maxM = 1024
		k := 1 + int(kLen-1)%maxM
		ms := 1 + int(maxSig-1)%(maxM+1-k)
		rng := rand.New(rand.NewSource(seed))
		plans := convPlans(t, rng, k, ms)
		checkLockstepConv(t, rng, plans, 1+int(sigLen-1)%ms, 1+int(slots-1)%(2*LockstepWidth+2), 1+int(channels-1)%16)
	})
}

// convPlans builds three plans of one transform geometry over random
// kernels of length kLen.
func convPlans(t *testing.T, rng *rand.Rand, kLen, maxSig int) []*ConvPlan {
	t.Helper()
	plans := make([]*ConvPlan, 3)
	for i := range plans {
		kernel := make([]float64, kLen)
		for j := range kernel {
			kernel[j] = rng.NormFloat64()
		}
		cp, err := NewConvPlan(kernel, maxSig)
		if err != nil {
			t.Fatalf("NewConvPlan(kLen %d, maxSig %d): %v", kLen, maxSig, err)
		}
		plans[i] = cp
	}
	return plans
}

// checkLockstepConv transforms count samples of channels random signals of
// length sigLen each (sample 3 left empty) through TransformSlotsSoA and
// TransformSignalSoA and requires bitwise equal spectra. It then runs one
// window lane per filled sample, whose channels each take a random plan of
// plans, into accumulators holding nonzero values (NaN among them under a
// first-writer window), and requires every accumulator entry to equal, bit
// for bit, ConvolveSumInto's output on the sample's signals added through
// the same window (stored as 0 + y by a first writer). Half the calls give
// every lane one shared window. A one-channel lane must also equal
// ConvolveSoAInto on its slot.
func checkLockstepConv(t *testing.T, rng *rand.Rand, plans []*ConvPlan, sigLen, count, channels int) {
	t.Helper()
	cp := plans[0]
	signals := make([][]float64, count*channels)
	for i := range signals {
		if count > 3 && i/channels == 3 {
			continue
		}
		signals[i] = randSignal(rng, sigLen)
	}
	want := NewSpectrumArena(len(signals), cp.SpectrumLen())
	got := NewSpectrumArena(len(signals), cp.SpectrumLen())
	for i, sig := range signals {
		if sig == nil {
			continue
		}
		if err := cp.TransformSignalSoA(want, i, sig); err != nil {
			t.Fatalf("scalar TransformSignalSoA: %v", err)
		}
	}
	if err := cp.TransformSlotsSoA(got, signals); err != nil {
		t.Fatalf("TransformSlotsSoA kLen=%d m=%d count=%d: %v", cp.kLen, cp.m, count, err)
	}
	for i := range signals {
		wr, wi := want.Slot(i)
		gr, gi := got.Slot(i)
		for k := range wr {
			if math.Float64bits(wr[k]) != math.Float64bits(gr[k]) || math.Float64bits(wi[k]) != math.Float64bits(gi[k]) {
				t.Fatalf("kLen=%d m=%d count=%d slot %d bin %d: scalar (%v,%v) batch (%v,%v)",
					cp.kLen, cp.m, count, i, k, wr[k], wi[k], gr[k], gi[k])
			}
		}
	}
	outLen := cp.OutLen(sigLen)
	var lanes []ConvLane
	var accWant [][]float64
	y := make([]float64, outLen)
	shared := rng.Intn(2) == 0
	win := randWindow(rng, outLen)
	for b := 0; b < count; b++ {
		sigs := signals[b*channels : (b+1)*channels]
		if sigs[0] == nil {
			continue
		}
		lanePlans := make([]*ConvPlan, channels)
		for c := range lanePlans {
			lanePlans[c] = plans[rng.Intn(len(plans))]
		}
		if !shared {
			win = randWindow(rng, outLen)
		}
		acc := garbageAcc(rng, win)
		full, err := ConvolveSumInto(y, lanePlans, sigs)
		if err != nil {
			t.Fatalf("scalar ConvolveSumInto: %v", err)
		}
		if channels == 1 {
			one, err := lanePlans[0].ConvolveSoAInto(make([]float64, outLen), want, b, sigLen)
			if err != nil {
				t.Fatalf("scalar ConvolveSoAInto: %v", err)
			}
			for i, v := range one {
				if math.Float64bits(v) != math.Float64bits(full[i]) {
					t.Fatalf("kLen=%d m=%d sigLen=%d sample %d: ConvolveSumInto sample %d = %v, ConvolveSoAInto %v", cp.kLen, cp.m, sigLen, b, i, full[i], v)
				}
			}
		}
		ref := windowRef(acc, win, full)
		re, im := got.SlotRange(b*channels, channels)
		lanes = append(lanes, ConvLane{Plans: lanePlans, SpecRe: re, SpecIm: im, Acc: acc, Window: win})
		accWant = append(accWant, ref)
	}
	if err := ConvolveLanesSoA(sigLen, lanes); err != nil {
		t.Fatalf("ConvolveLanesSoA kLen=%d m=%d: %v", cp.kLen, cp.m, err)
	}
	for li, l := range lanes {
		for i, v := range l.Acc {
			if math.Float64bits(v) != math.Float64bits(accWant[li][i]) {
				t.Fatalf("kLen=%d m=%d sigLen=%d count=%d channels=%d lane %d window %+v entry %d: scalar %v lockstep %v",
					cp.kLen, cp.m, sigLen, count, channels, li, l.Window, i, accWant[li][i], v)
			}
		}
	}
}

// randSignal draws a length-n shot signal of N(0,1) samples.
func randSignal(rng *rand.Rand, n int) []float64 {
	sig := make([]float64, n)
	for j := range sig {
		sig[j] = rng.NormFloat64()
	}
	return sig
}

// randWindow draws a window inside an outLen-sample output: either the
// whole output as one row, or up to four rows at a random (even or odd)
// offset whose source stride is at least, and usually more than, the width.
// Half the windows are first writers.
func randWindow(rng *rand.Rand, outLen int) Window {
	first := rng.Intn(2) == 0
	if rng.Intn(4) == 0 {
		return Window{Rows: 1, Width: outLen, SrcStride: outLen, AccStride: outLen, First: first}
	}
	rows := 1 + rng.Intn(min(4, outLen))
	src := outLen / rows
	width := 1 + rng.Intn(src)
	return Window{
		Off:       rng.Intn(outLen - (rows-1)*src - width + 1),
		Rows:      rows,
		Width:     width,
		SrcStride: src,
		AccStride: width + rng.Intn(3),
		First:     first,
	}
}

// garbageAcc returns an accumulator for window w, up to two entries
// longer, holding random values, with NaN among them when w is a first
// writer (which must overwrite every entry it covers).
func garbageAcc(rng *rand.Rand, w Window) []float64 {
	acc := make([]float64, (w.Rows-1)*w.AccStride+w.Width+rng.Intn(3))
	for i := range acc {
		acc[i] = rng.NormFloat64()
		if w.First && rng.Intn(3) == 0 {
			acc[i] = math.NaN()
		}
	}
	return acc
}

// windowRef returns acc after window w of the output full: each covered
// entry plus its sample, or 0 plus it when w is a first writer.
func windowRef(acc []float64, w Window, full []float64) []float64 {
	ref := append([]float64(nil), acc...)
	for r := 0; r < w.Rows; r++ {
		for c := 0; c < w.Width; c++ {
			i := r*w.AccStride + c
			if w.First {
				ref[i] = 0
			}
			ref[i] += full[w.Off+r*w.SrcStride+c]
		}
	}
	return ref
}

// TestConvolveLanesWindowBounds: a window reaching past the output or the
// accumulator, or with a negative field, fails before any lane runs; an
// empty window is accepted whatever its strides and adds nothing.
func TestConvolveLanesWindowBounds(t *testing.T) {
	cp, err := NewConvPlan([]float64{1, 2, 3}, 6) // outLen 8 at sigLen 6
	if err != nil {
		t.Fatal(err)
	}
	a := NewSpectrumArena(1, cp.SpectrumLen())
	if err := cp.TransformSignalSoA(a, 0, []float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	re, im := a.Slot(0)
	for _, tc := range []struct {
		name   string
		accLen int
		win    Window
		ok     bool
	}{
		{"past output", 8, Window{Off: 1, Rows: 1, Width: 8}, false},
		{"past output on last row", 8, Window{Off: 2, Rows: 2, Width: 2, SrcStride: 5, AccStride: 2}, false},
		{"past accumulator", 3, Window{Rows: 2, Width: 2, SrcStride: 2, AccStride: 2}, false},
		{"negative offset", 8, Window{Off: -1, Rows: 1, Width: 1}, false},
		{"empty", 2, Window{Off: 100, Rows: 5, SrcStride: 100, AccStride: 100}, true},
	} {
		acc := make([]float64, tc.accLen)
		lanes := []ConvLane{{Plans: []*ConvPlan{cp}, SpecRe: re, SpecIm: im, Acc: acc, Window: tc.win}}
		if err := ConvolveLanesSoA(6, lanes); (err == nil) != tc.ok {
			t.Errorf("%s: window %+v over %d accumulator entries: err %v, want ok=%v", tc.name, tc.win, tc.accLen, err, tc.ok)
		}
		for i, v := range acc {
			if v != 0 {
				t.Fatalf("%s: call wrote acc[%d] = %v", tc.name, i, v)
			}
		}
	}
}

// windowFixture is the scalar-vs-lockstep measurement at AlexNetS conv1's
// row-tiled shape: a 133-tap tiled kernel against 256-sample shots (m =
// 512), each lane reading the 128 valid samples (4 rows x 32 columns) of
// its 388-sample correlation.
type windowFixture struct {
	cp    *ConvPlan
	a     *SpectrumArena
	lanes []ConvLane
	y     []float64
}

func newWindowFixture(tb testing.TB, nsig int) *windowFixture {
	const kLen, sigLen, rowLen, rows = 133, 256, 32, 4
	kernel := make([]float64, kLen)
	for i := range kernel {
		kernel[i] = float64(i%7) + 0.5
	}
	cp, err := NewCorrPlan(kernel, sigLen)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	signals := make([][]float64, nsig)
	for i := range signals {
		sig := make([]float64, sigLen)
		for j := range sig {
			sig[j] = rng.NormFloat64()
		}
		signals[i] = sig
	}
	f := &windowFixture{cp: cp, a: NewSpectrumArena(nsig, cp.SpectrumLen()), y: make([]float64, cp.OutLen(sigLen))}
	if err := cp.TransformSlotsSoA(f.a, signals); err != nil {
		tb.Fatal(err)
	}
	win := Window{Off: kLen - 1 - 2, Rows: rows, Width: rowLen, SrcStride: rowLen, AccStride: rowLen}
	for i := range signals {
		re, im := f.a.Slot(i)
		f.lanes = append(f.lanes, ConvLane{Plans: []*ConvPlan{cp}, SpecRe: re, SpecIm: im, Acc: make([]float64, rows*rowLen), Window: win})
	}
	return f
}

// scalar runs each lane through ConvolveSoAInto and a plain window add.
func (f *windowFixture) scalar(tb testing.TB) {
	for i := range f.lanes {
		l := &f.lanes[i]
		full, err := f.cp.ConvolveSoAInto(f.y, f.a, i, 256)
		if err != nil {
			tb.Fatal(err)
		}
		for r := 0; r < l.Rows; r++ {
			for c := 0; c < l.Width; c++ {
				l.Acc[r*l.AccStride+c] += full[l.Off+r*l.SrcStride+c]
			}
		}
	}
}

// lockstep runs the same lanes through ConvolveLanesSoA.
func (f *windowFixture) lockstep(tb testing.TB) {
	if err := ConvolveLanesSoA(256, f.lanes); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkConvolveLanesWindow compares window lanes through the lockstep
// epilogue against per-slot scalar ConvolveSoAInto plus a window add, one
// lockstep group of conv1-shaped lanes per iteration; then it times the
// pass boundaries alone in every kernel family this CPU runs, on the same
// shape: the window add of the group's 128 samples per lane at odd offset
// 131, with (window/F/first) and without (window/F/add) the first-writer
// form, the forward pack of eight 256-sample signals into m = 512 planes
// (pack/F), and the copy of the eight lanes' 257 bins out to their slots
// (unpack/F).
func BenchmarkConvolveLanesWindow(b *testing.B) {
	f := newWindowFixture(b, LockstepWidth)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.scalar(b)
		}
	})
	b.Run("lockstep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.lockstep(b)
		}
	})
	const hm, sigLen = 256, 256
	bins := hm + 1
	rng := rand.New(rand.NewSource(13))
	re, im := workPlanes(bins)
	for i := range bins * lw {
		re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	var accs [lw][]float64
	signals := make([][]float64, lw)
	slotRe, slotIm := make([][]float64, lw), make([][]float64, lw)
	for s := range accs {
		accs[s] = make([]float64, 128)
		signals[s] = randPlane(rng, sigLen)
		slotRe[s], slotIm[s] = make([]float64, bins), make([]float64, bins)
	}
	for _, fam := range append([]kernelFamily{goKernels}, packedKernelFamilies()...) {
		if fam.missing != "" {
			continue
		}
		for _, first := range []bool{false, true} {
			w := Window{Off: 131, Rows: 4, Width: 32, SrcStride: 32, AccStride: 32, First: first}
			name := "add"
			if first {
				name = "first"
			}
			b.Run("window/"+fam.name+"/"+name, func(b *testing.B) {
				for b.Loop() {
					fam.window(&accs, &w, re, im, 1.0/hm)
				}
			})
		}
		b.Run("pack/"+fam.name, func(b *testing.B) {
			sre, sim := workPlanes(bins)
			for b.Loop() {
				fam.pack(sre, sim, signals, hm)
			}
		})
		b.Run("unpack/"+fam.name, func(b *testing.B) {
			for b.Loop() {
				fam.unpack(slotRe, slotIm, re, im, bins)
			}
		})
	}
}
