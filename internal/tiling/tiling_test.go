package tiling

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"photofourier/internal/tensor"
)

func randPlane(rng *rand.Rand, h, w int) [][]float64 {
	out := make([][]float64, h)
	for r := range out {
		out[r] = make([]float64, w)
		for c := range out[r] {
			out[r][c] = rng.NormFloat64()
		}
	}
	return out
}

func planesClose(t *testing.T, got, want [][]float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rows: got %d want %d", len(got), len(want))
	}
	for r := range got {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("row %d cols: got %d want %d", r, len(got[r]), len(want[r]))
		}
		for c := range got[r] {
			if math.Abs(got[r][c]-want[r][c]) > tol {
				t.Fatalf("(%d,%d): got %g want %g", r, c, got[r][c], want[r][c])
			}
		}
	}
}

// --- Plan construction and regime selection ---

func TestNewPlanModeSelection(t *testing.T) {
	cases := []struct {
		h, w, k, nconv int
		want           Mode
	}{
		{14, 14, 3, 256, RowTiling},        // 256 >= 3*14
		{5, 5, 3, 20, RowTiling},           // the Fig. 3 example
		{32, 32, 3, 256, PartialRowTiling}, // 32 <= 256 < 96... no: 256 >= 3*32=96 -> RowTiling
		{224, 224, 3, 256, PartialRowTiling},
		{300, 300, 3, 256, RowPartitioning},
		{256, 256, 3, 256, PartialRowTiling}, // exactly one row fits
	}
	cases[2].want = RowTiling
	for _, tc := range cases {
		p, err := NewPlan(tc.h, tc.w, tc.k, tc.nconv, tensor.Same, false)
		if err != nil {
			t.Fatalf("NewPlan(%v): %v", tc, err)
		}
		if p.Mode != tc.want {
			t.Errorf("NewPlan(%d,%d,k=%d,n=%d).Mode = %v, want %v", tc.h, tc.w, tc.k, tc.nconv, p.Mode, tc.want)
		}
	}
}

func TestNewPlanErrors(t *testing.T) {
	if _, err := NewPlan(0, 5, 3, 100, tensor.Same, false); err == nil {
		t.Error("zero height should fail")
	}
	if _, err := NewPlan(5, 5, 0, 100, tensor.Same, false); err == nil {
		t.Error("zero kernel should fail")
	}
	if _, err := NewPlan(5, 5, 3, 0, tensor.Same, false); err == nil {
		t.Error("zero NConv should fail")
	}
	if _, err := NewPlan(2, 2, 3, 100, tensor.Valid, false); err == nil {
		t.Error("kernel larger than input should fail in valid mode")
	}
	if _, err := NewPlan(100, 100, 5, 3, tensor.Same, false); err == nil {
		t.Error("kernel row longer than NConv should fail")
	}
}

func TestPaperFig3Geometry(t *testing.T) {
	// Fig. 3: 5x5 input, 3x3 kernel, NConv = 20 => 4 rows tiled, 2 valid
	// output rows per shot, 3 shots for the 5 output rows.
	p, err := NewPlan(5, 5, 3, 20, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != RowTiling {
		t.Fatalf("mode = %v", p.Mode)
	}
	if p.RowsPerShot != 4 {
		t.Errorf("RowsPerShot = %d, want 4", p.RowsPerShot)
	}
	if p.Nor != 2 {
		t.Errorf("Nor = %d, want 2", p.Nor)
	}
	if got := p.Shots(); got != 3 {
		t.Errorf("Shots = %d, want ceil(5/2)=3", got)
	}
}

func TestPaperNorFormula(t *testing.T) {
	// Nor = floor(NConv/Si) - Sk + 1 (Sec. III-A).
	for _, tc := range []struct{ si, sk, nconv, wantNor int }{
		{14, 3, 256, 16}, // floor(256/14)=18, 18-3+1=16
		{28, 3, 256, 7},  // floor(256/28)=9, 9-3+1=7
		{32, 3, 256, 6},  // floor(256/32)=8, 8-3+1=6
		{14, 5, 256, 14}, // 18-5+1
		{7, 3, 256, 34},  // floor(256/7)=36, 36-3+1
		{16, 3, 512, 30}, // floor(512/16)=32
	} {
		p, err := NewPlan(tc.si, tc.si, tc.sk, tc.nconv, tensor.Same, false)
		if err != nil {
			t.Fatal(err)
		}
		if p.Nor != tc.wantNor {
			t.Errorf("Si=%d Sk=%d NConv=%d: Nor=%d, want %d", tc.si, tc.sk, tc.nconv, p.Nor, tc.wantNor)
		}
	}
}

func TestPaperPartialCycleFormula(t *testing.T) {
	// Partial row tiling: cycles = Si * ceil(Sk/Nir) (Sec. III-B).
	p, err := NewPlan(224, 224, 3, 256, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != PartialRowTiling {
		t.Fatalf("mode = %v", p.Mode)
	}
	if p.RowsPerShot != 1 {
		t.Errorf("Nir = %d, want 1", p.RowsPerShot)
	}
	if got, want := p.Shots(), 224*3; got != want {
		t.Errorf("Shots = %d, want %d", got, want)
	}
	// 112x112 with NConv 256: Nir = 2, ceil(3/2)=2 passes.
	p2, err := NewPlan(112, 112, 3, 256, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p2.Shots(), 112*2; got != want {
		t.Errorf("112: Shots = %d, want %d", got, want)
	}
}

// TestPaperPartitioningCycleFormula keeps the paper's row-partitioning
// cycle count, Si * Sk * ceil(Si/NConv) (Sec. III-C), next to the
// halo-aware schedule Shots counts: segments of NConv-K+1 valid samples,
// with the two Same-mode kernel rows that fall outside the input skipped.
func TestPaperPartitioningCycleFormula(t *testing.T) {
	p, err := NewPlan(300, 300, 3, 256, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != RowPartitioning {
		t.Fatalf("mode = %v", p.Mode)
	}
	if got, want := p.OutH*p.K*ceilDiv(p.W, p.NConv), 300*3*2; got != want {
		t.Errorf("paper formula = %d, want %d", got, want)
	}
	if got, want := p.Shots(), (300*3-2)*ceilDiv(300, 256-3+1); got != want {
		t.Errorf("Shots = %d, want the halo-aware %d", got, want)
	}
}

func TestUnderUtilizationExample(t *testing.T) {
	// Paper Sec. V-E: with 512 waveguides, inputs smaller than 23x23 leave
	// the PFCU under-utilized; efficiency grows as inputs shrink relative
	// to NConv up to the point where all rows fit.
	small, _ := NewPlan(14, 14, 3, 512, tensor.Same, false)
	large, _ := NewPlan(22, 22, 3, 512, tensor.Same, false)
	if small.Shots() != 1 {
		t.Errorf("14x14 on 512 waveguides should take 1 shot, got %d", small.Shots())
	}
	if large.Shots() != 2 {
		t.Errorf("22x22 on 512: floor(512/22)=23 rows, Nor=21, ceil(22/21)=2 shots, got %d", large.Shots())
	}
	_ = small.Efficiency()
}

// --- TileKernel ---

func TestTileKernelLayout(t *testing.T) {
	kernel := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	got, err := TileKernel(kernel, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Rows separated by Si-Sk = 2 zeros: length (3-1)*5+3 = 13.
	want := []float64{1, 2, 3, 0, 0, 4, 5, 6, 0, 0, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestTileKernelErrors(t *testing.T) {
	if _, err := TileKernel(nil, 5); err == nil {
		t.Error("empty kernel should fail")
	}
	if _, err := TileKernel([][]float64{{1, 2}}, 5); err == nil {
		t.Error("non-square kernel should fail")
	}
	if _, err := TileKernel([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}, 2); err == nil {
		t.Error("rowLen < K should fail")
	}
}

// --- Functional equivalence: the paper's core claim ---

func TestRowTilingExactInValidMode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ h, w, k, nconv int }{
		{5, 5, 3, 20},
		{8, 8, 3, 64},
		{10, 12, 3, 256},
		{14, 14, 5, 256},
		{7, 7, 1, 64},
		{9, 9, 2, 128}, // even kernel
	} {
		p, err := NewPlan(tc.h, tc.w, tc.k, tc.nconv, tensor.Valid, false)
		if err != nil {
			t.Fatal(err)
		}
		in := randPlane(rng, tc.h, tc.w)
		kern := randPlane(rng, tc.k, tc.k)
		got, err := p.Conv2D(in, kern, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := tensor.Conv2DSingle(in, kern, tensor.Valid)
		planesClose(t, got, want, 1e-9)
	}
}

func TestRowTilingColumnPadExactInSameMode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ h, w, k, nconv int }{
		{5, 5, 3, 32},
		{8, 8, 3, 64},
		{14, 14, 3, 256},
		{14, 14, 5, 256},
		{6, 10, 3, 128},
	} {
		p, err := NewPlan(tc.h, tc.w, tc.k, tc.nconv, tensor.Same, true)
		if err != nil {
			t.Fatal(err)
		}
		in := randPlane(rng, tc.h, tc.w)
		kern := randPlane(rng, tc.k, tc.k)
		got, err := p.Conv2D(in, kern, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := tensor.Conv2DSingle(in, kern, tensor.Same)
		planesClose(t, got, want, 1e-9)
	}
}

func TestRowTilingSameModeEdgeEffectOnly(t *testing.T) {
	// Without column padding, Same-mode results must match 2D convolution
	// exactly in the interior and differ only within K-1 columns of row
	// edges (paper Fig. 3e).
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ h, w, k, nconv int }{
		{5, 5, 3, 20},
		{14, 14, 3, 256},
		{10, 10, 5, 256},
	} {
		p, err := NewPlan(tc.h, tc.w, tc.k, tc.nconv, tensor.Same, false)
		if err != nil {
			t.Fatal(err)
		}
		in := randPlane(rng, tc.h, tc.w)
		kern := randPlane(rng, tc.k, tc.k)
		got, err := p.Conv2D(in, kern, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := tensor.Conv2DSingle(in, kern, tensor.Same)
		interior, _ := MaxRelativeEdgeError(got, want, tc.k)
		if interior > 1e-9 {
			t.Errorf("h=%d w=%d k=%d: interior mismatch %g, want ~0", tc.h, tc.w, tc.k, interior)
		}
	}
}

func TestRowTilingEdgeEffectSmallForSmoothInputs(t *testing.T) {
	// The paper argues the edge-effect impact is minimal. For a smooth,
	// positive image the relative error of the full plane stays small.
	rng := rand.New(rand.NewSource(4))
	h, w, k := 14, 14, 3
	in := make([][]float64, h)
	for r := range in {
		in[r] = make([]float64, w)
		for c := range in[r] {
			in[r][c] = 1 + 0.1*rng.Float64()
		}
	}
	// Positive smoothing kernel: the smooth-image scenario the paper's
	// "minimal impact" argument assumes.
	kern := make([][]float64, k)
	for r := range kern {
		kern[r] = make([]float64, k)
		for c := range kern[r] {
			kern[r][c] = (1 + 0.2*rng.Float64()) / float64(k*k)
		}
	}
	p, _ := NewPlan(h, w, k, 256, tensor.Same, false)
	got, err := p.Conv2D(in, kern, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Conv2DSingle(in, kern, tensor.Same)
	var num, den float64
	for r := range got {
		for c := range got[r] {
			d := got[r][c] - want[r][c]
			num += d * d
			den += want[r][c] * want[r][c]
		}
	}
	relErr := math.Sqrt(num / den)
	if relErr > 0.35 {
		t.Errorf("edge-effect relative error %g unexpectedly large", relErr)
	}
}

func TestPartialRowTilingExactValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// 20x20 with NConv 48: floor(48/20)=2 rows < K=3 -> partial.
	p, err := NewPlan(20, 20, 3, 48, tensor.Valid, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != PartialRowTiling {
		t.Fatalf("mode = %v", p.Mode)
	}
	in := randPlane(rng, 20, 20)
	kern := randPlane(rng, 3, 3)
	got, err := p.Conv2D(in, kern, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Conv2DSingle(in, kern, tensor.Valid)
	planesClose(t, got, want, 1e-9)
}

func TestPartialRowTilingColumnPadExactSame(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p, err := NewPlan(24, 24, 3, 60, tensor.Same, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != PartialRowTiling {
		t.Fatalf("mode = %v (rowLen=%d)", p.Mode, p.RowLen)
	}
	in := randPlane(rng, 24, 24)
	kern := randPlane(rng, 3, 3)
	got, err := p.Conv2D(in, kern, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Conv2DSingle(in, kern, tensor.Same)
	planesClose(t, got, want, 1e-9)
}

func TestPartialRowTilingSameInteriorExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p, err := NewPlan(32, 32, 5, 80, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != PartialRowTiling {
		t.Fatalf("mode = %v", p.Mode)
	}
	in := randPlane(rng, 32, 32)
	kern := randPlane(rng, 5, 5)
	got, err := p.Conv2D(in, kern, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Conv2DSingle(in, kern, tensor.Same)
	interior, _ := MaxRelativeEdgeError(got, want, 5)
	if interior > 1e-9 {
		t.Errorf("interior mismatch %g", interior)
	}
}

func TestRowPartitioningExactSame(t *testing.T) {
	// Row partitioning processes rows independently, so Same-mode results
	// are exact (no edge effect) even without column padding.
	rng := rand.New(rand.NewSource(8))
	p, err := NewPlan(40, 40, 3, 20, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != RowPartitioning {
		t.Fatalf("mode = %v", p.Mode)
	}
	in := randPlane(rng, 40, 40)
	kern := randPlane(rng, 3, 3)
	got, err := p.Conv2D(in, kern, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Conv2DSingle(in, kern, tensor.Same)
	planesClose(t, got, want, 1e-9)
}

func TestRowPartitioningExactValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p, err := NewPlan(30, 30, 5, 16, tensor.Valid, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != RowPartitioning {
		t.Fatalf("mode = %v", p.Mode)
	}
	in := randPlane(rng, 30, 30)
	kern := randPlane(rng, 5, 5)
	got, err := p.Conv2D(in, kern, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Conv2DSingle(in, kern, tensor.Valid)
	planesClose(t, got, want, 1e-9)
}

func TestConv2DInputValidation(t *testing.T) {
	p, _ := NewPlan(5, 5, 3, 64, tensor.Same, false)
	in := randPlane(rand.New(rand.NewSource(10)), 5, 5)
	kern := randPlane(rand.New(rand.NewSource(11)), 3, 3)
	if _, err := p.Conv2D(in[:4], kern, nil); err == nil {
		t.Error("wrong row count should fail")
	}
	bad := randPlane(rand.New(rand.NewSource(12)), 5, 4)
	if _, err := p.Conv2D(bad, kern, nil); err == nil {
		t.Error("wrong col count should fail")
	}
	if _, err := p.Conv2D(in, kern[:2], nil); err == nil {
		t.Error("wrong kernel size should fail")
	}
}

func TestConv2DCustomCorrelatorIsUsed(t *testing.T) {
	// A correlator that scales results by 2 should scale outputs by 2, and
	// run once per shot of Shots(). The row-partitioning case is Same mode
	// at K = 3, so its segments overlap by K-1 samples and the kernel rows
	// that fall outside the input are skipped: Shots() must count the
	// correlations actually run, not the paper's OutH*K*ceil(W/NConv).
	cases := []struct {
		name       string
		h, w       int
		nconv      int
		pad        tensor.PadMode
		mode       Mode
		seedIn     int64
		seedKern   int64
		paperShots int // OutH*K*ceil(W/NConv), row partitioning only
	}{
		{"row-tiling", 5, 5, 20, tensor.Valid, RowTiling, 13, 14, 0},
		{"row-partitioning", 7, 12, 6, tensor.Same, RowPartitioning, 15, 16, 7 * 3 * 2},
	}
	for _, tc := range cases {
		p, err := NewPlan(tc.h, tc.w, 3, tc.nconv, tc.pad, false)
		if err != nil {
			t.Fatal(err)
		}
		if p.Mode != tc.mode {
			t.Fatalf("%s: mode = %v", tc.name, p.Mode)
		}
		in := randPlane(rand.New(rand.NewSource(tc.seedIn)), tc.h, tc.w)
		kern := randPlane(rand.New(rand.NewSource(tc.seedKern)), 3, 3)
		calls := 0
		double := func(sig, k []float64) []float64 {
			calls++
			out := make([]float64, len(sig)+len(k)-1)
			for m := range out {
				for j := range k {
					idx := m - (len(k) - 1) + j
					if idx >= 0 && idx < len(sig) {
						out[m] += 2 * sig[idx] * k[j]
					}
				}
			}
			return out
		}
		got, err := p.Conv2D(in, kern, double)
		if err != nil {
			t.Fatal(err)
		}
		want := tensor.Conv2DSingle(in, kern, tc.pad)
		for r := range got {
			for c := range got[r] {
				if math.Abs(got[r][c]-2*want[r][c]) > 1e-9 {
					t.Fatalf("%s (%d,%d): custom correlator not honored", tc.name, r, c)
				}
			}
		}
		if calls != p.Shots() {
			t.Errorf("%s: correlator invoked %d times, want Shots()=%d", tc.name, calls, p.Shots())
		}
		if tc.paperShots != 0 && calls == tc.paperShots {
			t.Errorf("%s: %d correlations equal the paper's count; the case no longer skips rows or overlaps segments", tc.name, calls)
		}
	}
}

func TestQuickRowTilingValidEquivalence(t *testing.T) {
	// Property: for random geometry in the row-tiling regime, valid-mode
	// row tiling equals 2D convolution exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 4 + rng.Intn(10)
		w := 4 + rng.Intn(10)
		k := 1 + rng.Intn(3)
		if k > h || k > w {
			k = 1
		}
		nconv := k*w + rng.Intn(200)
		p, err := NewPlan(h, w, k, nconv, tensor.Valid, false)
		if err != nil || p.Mode != RowTiling {
			return true // out of regime; skip
		}
		in := randPlane(rng, h, w)
		kern := randPlane(rng, k, k)
		got, err := p.Conv2D(in, kern, nil)
		if err != nil {
			return false
		}
		want := tensor.Conv2DSingle(in, kern, tensor.Valid)
		for r := range got {
			for c := range got[r] {
				if math.Abs(got[r][c]-want[r][c]) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSameModeInteriorEquivalence(t *testing.T) {
	// Property: Same-mode interior columns always match 2D convolution, in
	// every regime.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 5 + rng.Intn(20)
		w := 5 + rng.Intn(20)
		k := []int{1, 3, 5}[rng.Intn(3)]
		nconv := k + rng.Intn(300)
		p, err := NewPlan(h, w, k, nconv, tensor.Same, false)
		if err != nil {
			return true
		}
		in := randPlane(rng, h, w)
		kern := randPlane(rng, k, k)
		got, err := p.Conv2D(in, kern, nil)
		if err != nil {
			return false
		}
		want := tensor.Conv2DSingle(in, kern, tensor.Same)
		interior, _ := MaxRelativeEdgeError(got, want, k)
		return interior < 1e-8
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(100))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	if RowTiling.String() != "row-tiling" ||
		PartialRowTiling.String() != "partial-row-tiling" ||
		RowPartitioning.String() != "row-partitioning" {
		t.Error("Mode.String values")
	}
	if Mode(42).String() == "" {
		t.Error("unknown mode should still print")
	}
}

func TestVisualizeContainsGeometry(t *testing.T) {
	p, _ := NewPlan(5, 5, 3, 20, tensor.Same, false)
	s := p.Visualize()
	for _, want := range []string{"5x5", "3x3", "NConv=20", "row-tiling", "v", "x"} {
		if !strings.Contains(s, want) {
			t.Errorf("Visualize missing %q:\n%s", want, s)
		}
	}
	pp, _ := NewPlan(300, 300, 3, 64, tensor.Same, false)
	if !strings.Contains(pp.Visualize(), "row-partitioning") {
		t.Error("partitioning visualization should name its mode")
	}
}

func TestEfficiencyMonotonicInNConv(t *testing.T) {
	// For a fixed small input, a larger NConv should not reduce the
	// fraction of useful outputs dramatically; check the paper's claim
	// that efficiency is higher when NConv is large relative to Si*Sk.
	e1 := mustPlan(t, 14, 14, 3, 64).Efficiency()
	e2 := mustPlan(t, 14, 14, 3, 256).Efficiency()
	if e2 <= e1/4 {
		t.Errorf("efficiency collapsed: NConv=64 %.3f vs NConv=256 %.3f", e1, e2)
	}
	if e1 <= 0 || e1 > 1 || e2 <= 0 || e2 > 1 {
		t.Errorf("efficiency out of (0,1]: %g %g", e1, e2)
	}
}

func mustPlan(t *testing.T, h, w, k, nconv int) *Plan {
	t.Helper()
	p, err := NewPlan(h, w, k, nconv, tensor.Same, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func BenchmarkRowTiledConv14x14(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randPlane(rng, 14, 14)
	kern := randPlane(rng, 3, 3)
	p, err := NewPlan(14, 14, 3, 256, tensor.Same, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Conv2D(in, kern, nil); err != nil {
			b.Fatal(err)
		}
	}
}
