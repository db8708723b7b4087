package fourier

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelFamily is one implementation of the lockstep stage kernels;
// missing, when set, says why the family cannot run on this CPU.
type kernelFamily struct {
	name        string
	missing     string
	bitrevSwap  func(re, im []float64, rev []int)
	fusedFirst  func(re, im []float64, n int, inverse bool)
	fusedPair   func(re, im []float64, tw []complex128, n, size int)
	final2      func(re, im []float64, tw []complex128, n int)
	rfftRecomb  func(sre, sim []float64, w []complex128, hm int)
	irfftRecomb func(sre, sim []float64, w []complex128, hm int)
	mulGroup    func(dre, dim []float64, bins int, lanes []ConvLane, c int)
	mulChunk    func(dre, dim []float64, bins int, xr, xi []float64, plans []*ConvPlan)
	pack        func(sre, sim []float64, signals [][]float64, hm int)
	unpack      func(re, im [][]float64, sre, sim []float64, bins int)
	window      func(accs *[lw][]float64, w *Window, re, im []float64, c float64)
}

func packGo(sre, sim []float64, signals [][]float64, hm int) { packGeneric(sre, sim, signals, hm, 0) }

func unpackGo(re, im [][]float64, sre, sim []float64, bins int) {
	unpackGeneric(re, im, sre, sim, bins, 0)
}

// goKernels is the portable family every packed family must match.
var goKernels = kernelFamily{
	name:        "go",
	bitrevSwap:  bitrevSwapGeneric,
	fusedFirst:  fusedFirstGeneric,
	fusedPair:   fusedPairGeneric,
	final2:      final2Generic,
	rfftRecomb:  rfftRecombGeneric,
	irfftRecomb: irfftRecombGeneric,
	mulGroup:    gatherMulGroupGeneric,
	mulChunk:    chunkMulGeneric,
	pack:        packGo,
	unpack:      unpackGo,
	window:      addWindowsGeneric,
}

// inverseGroup runs one full lockstep group's inverse on family f, in
// lockstepTransform's stage order: the group multiply of every channel
// (the first stores, later ones accumulate), irfftRecomb and the inner
// inverse transform (inner length at least 4).
func inverseGroup(f kernelFamily, rp *RealPlan, sre, sim []float64, lanes []ConvLane) {
	p := rp.inner
	hm := rp.hm
	for c := range lanes[0].Plans {
		f.mulGroup(sre, sim, hm+1, lanes, c)
	}
	f.irfftRecomb(sre, sim, rp.w, hm)
	re, im := sre[:hm*lw], sim[:hm*lw]
	f.bitrevSwap(re, im, p.rev)
	f.fusedFirst(re, im, p.n, true)
	size := 8
	for ; size<<1 <= p.n; size <<= 2 {
		f.fusedPair(re, im, p.twiddleInv, p.n, size)
	}
	if size <= p.n {
		f.final2(re, im, p.twiddleInv, p.n)
	}
}

// randFinite draws a finite value with |x| <= 1e100: ±0, subnormals, wide
// binary exponents and ordinary normal draws. Inf and NaN are left out:
// their payloads depend on operand order, not on the op sequence.
func randFinite(rng *rand.Rand) float64 {
	var v float64
	switch rng.Intn(8) {
	case 0:
		v = 0
	case 1:
		v = math.Float64frombits(1 + uint64(rng.Int63n(1<<52-1))) // subnormal
	case 2, 3:
		v = math.Ldexp(0.5+rng.Float64()/2, rng.Intn(1350)-1020) // 2^-1021 .. 2^329
	default:
		v = rng.NormFloat64()
	}
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

func randPlane(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = randFinite(rng)
	}
	return p
}

// randKernelPlans returns n plans whose bins-bin kernel spectra are
// random finite values.
func randKernelPlans(rng *rand.Rand, n, bins int) []*ConvPlan {
	plans := make([]*ConvPlan, n)
	for i := range plans {
		kspec := make([]complex128, bins)
		for k := range kspec {
			kspec[k] = complex(randFinite(rng), randFinite(rng))
		}
		plans[i] = &ConvPlan{kspec: kspec}
	}
	return plans
}

// randGroup builds a full group of lanes of g channels with random
// bins-bin spectra over three kernel plans of random spectra, the plans
// interleaved irregularly across lanes and channels.
func randGroup(rng *rand.Rand, bins, g int) []ConvLane {
	plans := randKernelPlans(rng, 3, bins)
	lanes := make([]ConvLane, lw)
	for s := range lanes {
		l := ConvLane{SpecRe: randPlane(rng, g*bins), SpecIm: randPlane(rng, g*bins)}
		for c := 0; c < g; c++ {
			l.Plans = append(l.Plans, plans[(s*5/3+c)%3])
		}
		lanes[s] = l
	}
	return lanes
}

// TestLockstepKernelFamilies runs every lockstep kernel of the portable Go
// family, SSE2 and, when the CPU has it, AVX-512F on identical random
// planes and requires bitwise equal output, for every shape that takes its
// own code path: inner lengths 2 to 1024 (fusedPair at sizes 8 to 512,
// final2 at odd log2 n), both fusedFirst directions, the recombinations at
// hm 1 to 512, the full-group multiply over mixed kernel plans in its
// storing form (channel 0) and its accumulating form (later channels, onto
// random planes), the full-chunk multiply over 1 to 16 channels (and over
// 17 and 40, which take more than one packed call) at bin counts on and
// off its 8-row register block, whole group inverses chaining them over
// one and over several channels, and the pass boundaries: the forward
// pack of 0 to 8 signals of equal, mixed, odd and nil lengths, the copy
// of 1 to 8 lanes out to their slots, and the window add (see
// checkWindowFamilies).
func TestLockstepKernelFamilies(t *testing.T) {
	var families []kernelFamily
	for _, f := range packedKernelFamilies() {
		if f.missing != "" {
			t.Logf("%s column skipped: %s", f.name, f.missing)
			continue
		}
		t.Logf("comparing %s with go", f.name)
		families = append(families, f)
	}
	rng := rand.New(rand.NewSource(15))

	// check runs one kernel of every family on copies of the same random
	// rows-row planes and compares each packed family's planes with the Go
	// family's.
	check := func(what string, rows int, run func(f kernelFamily, re, im []float64)) {
		t.Helper()
		re0, im0 := randPlane(rng, rows*lw), randPlane(rng, rows*lw)
		wantRe, wantIm := append([]float64(nil), re0...), append([]float64(nil), im0...)
		run(goKernels, wantRe, wantIm)
		for _, f := range families {
			re, im := append([]float64(nil), re0...), append([]float64(nil), im0...)
			run(f, re, im)
			for i := range re {
				if math.Float64bits(re[i]) != math.Float64bits(wantRe[i]) || math.Float64bits(im[i]) != math.Float64bits(wantIm[i]) {
					t.Errorf("%s: %s bin %d lane %d = (%v,%v), go (%v,%v)",
						what, f.name, i/lw, i%lw, re[i], im[i], wantRe[i], wantIm[i])
					break
				}
			}
		}
	}

	for logN := 1; logN <= 10; logN++ {
		p, err := NewPlan(1 << logN)
		if err != nil {
			t.Fatal(err)
		}
		n := p.n
		check(fmt.Sprintf("bitrevSwap n=%d", n), n, func(f kernelFamily, re, im []float64) {
			f.bitrevSwap(re, im, p.rev)
		})
		if n < 4 {
			continue
		}
		for _, inverse := range []bool{false, true} {
			tw := p.twiddle
			if inverse {
				tw = p.twiddleInv
			}
			check(fmt.Sprintf("fusedFirst n=%d inverse=%v", n, inverse), n, func(f kernelFamily, re, im []float64) {
				f.fusedFirst(re, im, n, inverse)
			})
			size := 8
			for ; size<<1 <= n; size <<= 2 {
				check(fmt.Sprintf("fusedPair n=%d size=%d inverse=%v", n, size, inverse), n, func(f kernelFamily, re, im []float64) {
					f.fusedPair(re, im, tw, n, size)
				})
			}
			if size <= n {
				check(fmt.Sprintf("final2 n=%d inverse=%v", n, inverse), n, func(f kernelFamily, re, im []float64) {
					f.final2(re, im, tw, n)
				})
			}
		}
	}

	for hm := 1; hm <= 512; hm <<= 1 {
		rp, err := RealPlanFor(2 * hm)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("rfftRecomb hm=%d", hm), hm+1, func(f kernelFamily, re, im []float64) {
			f.rfftRecomb(re, im, rp.w, hm)
		})
		check(fmt.Sprintf("irfftRecomb hm=%d", hm), hm+1, func(f kernelFamily, re, im []float64) {
			f.irfftRecomb(re, im, rp.w, hm)
		})
	}

	for _, bins := range []int{2, 3, 65, 257, 513} {
		lanes := randGroup(rng, bins, 3)
		for c := 0; c < 3; c++ {
			check(fmt.Sprintf("group multiply bins=%d channel=%d", bins, c), bins, func(f kernelFamily, re, im []float64) {
				f.mulGroup(re, im, bins, lanes, c)
			})
		}
	}

	chunkChannels := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 40}
	for _, bins := range []int{1, 2, 3, 7, 8, 9, 17, 65, 257, 513} {
		for _, g := range chunkChannels {
			plans := randKernelPlans(rng, g, bins)
			xr, xi := randPlane(rng, g*bins*lw), randPlane(rng, g*bins*lw)
			check(fmt.Sprintf("chunk multiply bins=%d channels=%d", bins, g), bins, func(f kernelFamily, re, im []float64) {
				f.mulChunk(re, im, bins, xr, xi, plans)
			})
		}
	}

	for _, m := range []int{8, 16, 512, 1024} {
		rp, err := RealPlanFor(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []int{1, 5} {
			lanes := randGroup(rng, rp.hm+1, g)
			check(fmt.Sprintf("group inverse m=%d channels=%d", m, g), rp.hm+1, func(f kernelFamily, re, im []float64) {
				inverseGroup(f, rp, re, im, lanes)
			})
		}
	}

	// The pack writes rows [0, hm) and leaves row hm's garbage alone.
	for _, hm := range []int{1, 2, 4, 8, 16, 64, 256, 512} {
		for w := 0; w <= lw; w++ {
			for _, shape := range []string{"equal", "mixed", "nil"} {
				signals := make([][]float64, w)
				for s := range signals {
					n := 2 * hm
					switch {
					case shape == "mixed":
						n = 1 + rng.Intn(2*hm)
					case shape == "nil" && s == w-1:
						n = 0
					case s > 0:
						n = len(signals[0])
					default:
						n = 1 + rng.Intn(2*hm)
					}
					if n > 0 {
						signals[s] = randPlane(rng, n)
					}
				}
				check(fmt.Sprintf("pack hm=%d lanes=%d %s", hm, w, shape), hm+1, func(f kernelFamily, re, im []float64) {
					f.pack(re, im, signals, hm)
				})
			}
		}
	}

	// The unpack writes bins entries of each live lane's slot; the slots
	// start out as garbage two entries longer, which must survive.
	for _, bins := range []int{1, 2, 7, 8, 9, 17, 65, 257, 513} {
		for w := 1; w <= lw; w++ {
			sre, sim := randPlane(rng, bins*lw), randPlane(rng, bins*lw)
			garbage := randPlane(rng, 2*w*(bins+2))
			var want [2][]float64
			for i, f := range append([]kernelFamily{goKernels}, families...) {
				slots := append([]float64(nil), garbage...)
				re, im := make([][]float64, w), make([][]float64, w)
				for s := range re {
					re[s] = slots[(2*s)*(bins+2) : (2*s+1)*(bins+2)][:bins]
					im[s] = slots[(2*s+1)*(bins+2) : (2*s+2)*(bins+2)][:bins]
				}
				f.unpack(re, im, sre, sim, bins)
				if i == 0 {
					want[0] = slots
					continue
				}
				if d := firstBitDiff(slots, want[0]); d >= 0 {
					t.Errorf("unpack bins=%d lanes=%d: %s entry %d = %v, go %v", bins, w, f.name, d, slots[d], want[0][d])
				}
			}
		}
	}

	checkWindowFamilies(t, rng, families)
}

// firstBitDiff returns the first index where a and b differ bitwise, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkWindowFamilies runs the window add of every family on the same
// random unnormalized planes (hm = 64, so 128 output samples, with
// workPlanes' lw-1 rows of slack) over every shape that takes its own
// path: even and odd offsets, windows that end on the last output sample
// (their last block reads the slack rows), every width from 0 to 17, rows
// 0 to 3, source and accumulator strides equal to and wider than the
// width, nil accumulators, and first-writer windows. Accumulators start
// out as random garbage two entries longer than the window, NaN among it
// in first-writer windows, and must match the Go family's bit for bit.
func checkWindowFamilies(t *testing.T, rng *rand.Rand, families []kernelFamily) {
	t.Helper()
	const hm = 64
	const outLen = 2 * hm
	re := randPlane(rng, (hm+1+lw-1)*lw)
	im := randPlane(rng, (hm+1+lw-1)*lw)
	c := 1 / float64(hm)
	for width := 0; width <= 17; width++ {
		for rows := 0; rows <= 3; rows++ {
			for _, wide := range []int{0, 3} {
				src := width + wide
				for _, off := range []int{0, 1, 6, 33, -1} {
					if off < 0 { // the window ends on the last sample
						off = max(0, outLen-max(rows-1, 0)*src-width)
					}
					for _, first := range []bool{false, true} {
						w := Window{Off: off, Rows: rows, Width: width, SrcStride: src, AccStride: width + wide%2, First: first}
						if w.check(outLen, (max(rows, 1)-1)*w.AccStride+width) != nil {
							t.Fatalf("test window %+v does not fit", w)
						}
						nilMask := rng.Intn(256)
						if rng.Intn(2) == 0 {
							nilMask = 0
						}
						checkWindow(t, rng, families, w, nilMask, re, im, c)
					}
				}
			}
		}
	}
}

// checkWindow runs one window add on every family over the same garbage
// accumulators (nil where nilMask has the lane's bit) and compares them.
func checkWindow(t *testing.T, rng *rand.Rand, families []kernelFamily, w Window, nilMask int, re, im []float64, c float64) {
	t.Helper()
	span := (max(w.Rows, 1)-1)*w.AccStride + w.Width + 2
	var garbage [lw][]float64
	for s := range garbage {
		if nilMask>>s&1 == 0 {
			garbage[s] = randPlane(rng, span)
			if w.First {
				for i := range garbage[s] {
					if rng.Intn(4) == 0 {
						garbage[s][i] = math.NaN()
					}
				}
			}
		}
	}
	var want [lw][]float64
	for i, f := range append([]kernelFamily{goKernels}, families...) {
		var accs [lw][]float64
		for s, g := range garbage {
			if g != nil {
				accs[s] = append([]float64(nil), g...)
			}
		}
		f.window(&accs, &w, re, im, c)
		if i == 0 {
			want = accs
			continue
		}
		for s := range accs {
			if d := firstBitDiff(accs[s], want[s]); d >= 0 {
				t.Errorf("window %+v: %s lane %d entry %d = %v, go %v", w, f.name, s, d, accs[s][d], want[s][d])
				return
			}
		}
	}
}

// BenchmarkLockstepInverse times one full lockstep group's inverse at m =
// 512, AlexNetS's tiled conv length, on each packed kernel family: the
// group multiply of one channel over two kernel plans, irfftRecomb, bit
// reversal, fusedFirst and three fusedPair stages.
func BenchmarkLockstepInverse(b *testing.B) {
	rp, err := RealPlanFor(512)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	var plans [2]*ConvPlan
	for i := range plans {
		kernel := make([]float64, 133)
		for j := range kernel {
			kernel[j] = rng.NormFloat64()
		}
		if plans[i], err = NewConvPlan(kernel, 256); err != nil {
			b.Fatal(err)
		}
	}
	// Normal spectra: subnormal operands would time microcode assists, not
	// the kernels.
	bins := rp.hm + 1
	lanes := make([]ConvLane, lw)
	for s := range lanes {
		l := ConvLane{Plans: plans[s%2 : s%2+1], SpecRe: make([]float64, bins), SpecIm: make([]float64, bins)}
		for k := 0; k < bins; k++ {
			l.SpecRe[k], l.SpecIm[k] = rng.NormFloat64(), rng.NormFloat64()
		}
		lanes[s] = l
	}
	sre, sim := make([]float64, bins*lw), make([]float64, bins*lw)
	for _, f := range packedKernelFamilies() {
		b.Run(f.name, func(b *testing.B) {
			if f.missing != "" {
				b.Skip(f.missing)
			}
			b.ReportAllocs()
			for b.Loop() {
				inverseGroup(f, rp, sre, sim, lanes)
			}
		})
	}
}
