package photofourier

import (
	"fmt"
	"math/rand"
	"testing"

	"photofourier/internal/arch"
	"photofourier/internal/backend"
	"photofourier/internal/jtc"
	"photofourier/internal/nets"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
	"photofourier/internal/tiling"
)

// TestShotsReconcileWithArchModel ties the functional engine to the
// performance model behind Table III and Figs. 10–13: every SmallCNN and
// AlexNetS conv, run alone through NetworkPlan.ForwardSteps on the tiled
// accelerator at aperture A, fires the shots arch.EvalLayer prices for the
// same layer on PhotoFourier-CG with A waveguides.
//
// Units: the model's cycles are shots per plane × ⌈Cin/CP⌉ channel sets ×
// ⌈2·Cout/NumPFCU⌉ filter groups; the engine fires shots per plane for
// every (input channel, output channel, filter sign, activation part).
// Activation parts are 2 for the signed network input and 1 after ReLU.
//
//   - Row tiling and partial row tiling, batch 1: measured == model.
//   - Row partitioning, batch 1: the model prices the paper's formula
//     OutH·K·⌈W/NConv⌉, while the engine runs the halo-aware schedule
//     (each segment of NConv inputs yields NConv−K+1 outputs, and Same-mode
//     kernel rows outside the input are skipped). The test asserts the
//     executed count, pins SmallCNN's first conv (192 modeled, 188
//     executed at A = 24 and 282 at A = 16) and logs the ratio.
//   - Batch 8 at A = 256: measured ≤ model, logged as the packing gain.
//
// Run serially: it reads deltas of the process-wide jtc.Shots counter.
func TestShotsReconcileWithArchModel(t *testing.T) {
	builds := []struct {
		name  string
		build func() *nn.Network
	}{
		{"smallcnn", func() *nn.Network { return nn.SmallCNN([2]int{8, 16}, 10, 7) }},
		{"alexnets", func() *nn.Network { return nn.AlexNetS(10, 7) }},
	}
	// SmallCNN conv1 (3×32×32, K 3, Same) under row partitioning.
	pinned := map[string][2]int64{ // name → {model, executed} shots per plane
		"smallcnn/A24/step0": {192, 188},
		"smallcnn/A16/step0": {192, 282},
	}
	type run struct {
		aperture, batch int
	}
	runs := []run{{256, 1}, {64, 1}, {32, 1}, {24, 1}, {16, 1}, {256, 8}}
	exact := map[tiling.Mode]int{} // batch-1 steps compared for equality
	for _, r := range runs {
		cfg := arch.PhotoFourierCG()
		cfg.Waveguides = r.aperture
		cfg.WeightDACs = min(25, r.aperture)
		for _, nc := range builds {
			eng, err := backend.Open(fmt.Sprintf("accelerator?tiled=true,aperture=%d", r.aperture))
			if err != nil {
				t.Fatal(err)
			}
			plan, err := nc.build().Compile(eng)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(r.batch, 3, 32, 32)
			x.RandN(rand.New(rand.NewSource(61)), 1)
			metas, err := plan.StepMetas(3, 32, 32)
			if err != nil {
				t.Fatal(err)
			}
			act := x
			for i, m := range metas {
				if len(m.Out) != 3 {
					break // every conv runs before the first non-CHW step
				}
				parts := activationParts(act)
				shots0 := jtc.Shots()
				out, err := plan.ForwardSteps(act, i, i+1)
				if err != nil {
					t.Fatal(err)
				}
				measured := jtc.Shots() - shots0
				if act != x {
					tensor.PutScratch(act)
				}
				act = out
				if m.Conv == nil {
					continue
				}
				g := m.Conv
				name := fmt.Sprintf("%s/A%d/step%d", nc.name, r.aperture, i)
				lp, err := arch.EvalLayer(cfg, nets.Layer{
					Name: name, Kind: nets.Conv, Cin: g.Cin, Cout: g.Cout,
					H: g.H, W: g.W, K: g.K, Stride: g.Stride, Pad: g.Pad,
				})
				if err != nil {
					t.Fatal(err)
				}
				sets := int64(ceilDiv(g.Cin, cfg.CP()) * ceilDiv(2*g.Cout, cfg.NumPFCU))
				if lp.Cycles%sets != 0 {
					t.Fatalf("%s: %d cycles do not divide into %d channel sets × filter groups", name, lp.Cycles, sets)
				}
				modelPlane := lp.Cycles / sets
				units := int64(g.Cin) * int64(g.Cout) * 2 * int64(parts) * int64(r.batch)
				model := modelPlane * units

				if r.batch > 1 {
					t.Logf("%s batch %d (%v): %d measured vs %d modeled shots per sample (%.2fx packing)",
						name, r.batch, lp.TilingMode, measured/int64(r.batch), model/int64(r.batch),
						float64(model)/float64(measured))
					if measured > model {
						t.Errorf("%s batch %d: measured %d shots exceed the model's %d", name, r.batch, measured, model)
					}
					continue
				}
				if lp.TilingMode != tiling.RowPartitioning {
					exact[lp.TilingMode]++
					if measured != model {
						t.Errorf("%s (%v): measured %d shots, model %d (%d per plane × %d)",
							name, lp.TilingMode, measured, model, modelPlane, units)
					}
					continue
				}
				tp, err := tiling.NewPlan(g.H, g.W, g.K, r.aperture, g.Pad, false)
				if err != nil {
					t.Fatal(err)
				}
				bp, err := tp.PlanBatch(1)
				if err != nil {
					t.Fatal(err)
				}
				execPlane := int64(bp.UnpackedShots())
				t.Logf("%s (row partitioning): %d executed vs %d modeled shots per plane (%.3fx the model)",
					name, execPlane, modelPlane, float64(execPlane)/float64(modelPlane))
				if measured != execPlane*units {
					t.Errorf("%s: measured %d shots, halo-aware schedule %d (%d per plane × %d)",
						name, measured, execPlane*units, execPlane, units)
				}
				if want, ok := pinned[name]; ok && (modelPlane != want[0] || execPlane != want[1]) {
					t.Errorf("%s: %d modeled / %d executed shots per plane, want %d / %d",
						name, modelPlane, execPlane, want[0], want[1])
				}
				delete(pinned, name)
			}
			if act != x {
				tensor.PutScratch(act)
			}
		}
	}
	for name := range pinned {
		t.Errorf("%s never ran under row partitioning", name)
	}
	t.Logf("batch-1 steps equal to the model: %d row-tiled, %d partial-row-tiled",
		exact[tiling.RowTiling], exact[tiling.PartialRowTiling])
	if exact[tiling.RowTiling] == 0 || exact[tiling.PartialRowTiling] == 0 {
		t.Errorf("no batch-1 step compared under row tiling or partial row tiling: %v", exact)
	}
}

// activationParts counts the signs present in a batch (the engine's
// positive and negative activation parts).
func activationParts(x *tensor.Tensor) int {
	pos, neg := 0, 0
	for _, v := range x.Data {
		if v > 0 {
			pos = 1
		} else if v < 0 {
			neg = 1
		}
	}
	return pos + neg
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
