package photofourier

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"photofourier/internal/backend"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// TestColpadRemovesSameModeEdgeEffect pins the Same-mode edge effect of
// row tiling on whole networks. Row tiling lays a Same-padded layer's rows
// end to end on the aperture with no zero columns between them, so the
// (K-1)/2 output columns at each end of a row read pixels of the
// neighbouring row; colpad=true inserts the zero columns and is exact.
// Over SmallCNN([8,16]), AlexNetS and ResNetS([8,16,32]) at apertures 256,
// 64 and 16 (between them every tiling mode: row tiling, partial row
// tiling and row partitioning), rowtiled?colpad=true must match the exact
// 2D reference within 1e-12 on every logit of an 8-sample batch, and plain
// rowtiled must differ from it by more than 0.1, so a change that removed
// the edge effect, or broke colpad, fails here. The one exception is
// SmallCNN at aperture 16: its 32-column conv row-partitions (segments
// overlap by the halo) and its 16-column conv tiles one row per shot, so
// no row has a neighbour on the aperture and plain rowtiled must be exact
// there too.
func TestColpadRemovesSameModeEdgeEffect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three networks on three substrates at three apertures")
	}
	nets := []struct {
		name string
		mk   func() *nn.Network
	}{
		{"smallcnn", func() *nn.Network { return nn.SmallCNN([2]int{8, 16}, 10, 7) }},
		{"alexnets", func() *nn.Network { return nn.AlexNetS(10, 7) }},
		{"resnets", func() *nn.Network { return nn.ResNetS([3]int{8, 16, 32}, 10, 7) }},
	}
	x := tensor.New(8, 3, 32, 32)
	x.RandN(rand.New(rand.NewSource(3)), 1)
	logits := func(t *testing.T, mk func() *nn.Network, spec string) []float64 {
		t.Helper()
		e, err := backend.Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := mk().Compile(e)
		if err != nil {
			t.Fatal(err)
		}
		out, err := plan.ForwardBatch(x)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		return out.Data
	}
	maxDiff := func(a, b []float64) float64 {
		d := 0.0
		for i := range a {
			d = max(d, math.Abs(a[i]-b[i]))
		}
		return d
	}
	for _, nt := range nets {
		ref := logits(t, nt.mk, "reference")
		for _, aperture := range []int{256, 64, 16} {
			t.Run(fmt.Sprintf("%s/aperture%d", nt.name, aperture), func(t *testing.T) {
				exact := maxDiff(logits(t, nt.mk, fmt.Sprintf("rowtiled?colpad=true,aperture=%d", aperture)), ref)
				plain := maxDiff(logits(t, nt.mk, fmt.Sprintf("rowtiled?aperture=%d", aperture)), ref)
				t.Logf("max |logit - reference|: colpad %.3g, plain %.3g", exact, plain)
				if exact > 1e-12 {
					t.Errorf("rowtiled?colpad=true is %.3g from the reference, want <= 1e-12", exact)
				}
				switch edgeFree := nt.name == "smallcnn" && aperture == 16; {
				case edgeFree && plain > 1e-12:
					t.Errorf("plain rowtiled is %.3g from the reference where no row has a neighbour, want <= 1e-12", plain)
				case !edgeFree && plain <= 0.1:
					t.Errorf("plain rowtiled is only %.3g from the reference, want the edge effect above 0.1", plain)
				}
			})
		}
	}
}
