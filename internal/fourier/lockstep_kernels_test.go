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
// off its 8-row register block, and whole group inverses chaining them
// over one and over several channels.
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
