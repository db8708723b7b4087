package core

// The numerical fidelity floor. Every golden matrix compares one execution
// path with another, so a change that moves every path at once passes them
// all; these envelopes compare each compiled conv layer of SmallCNN and
// AlexNetS, run on the activation it really sees, with the exact float
// convolution on unquantized weights. The bound is derived per output
// element from the DAC step of each operand, the ADC step of the hardware
// full scale and the number of readouts (cross terms x accumulation
// groups), plus, on the tiled path, the row-tiling edge effect of plain
// Same mode.

import (
	"fmt"
	"math"
	"testing"

	"photofourier/internal/dataset"
	"photofourier/internal/nn"
	"photofourier/internal/quant"
	"photofourier/internal/tensor"
)

// fidelityLayer is one conv layer of a network with the input it sees.
type fidelityLayer struct {
	name string
	conv *nn.Conv
	x    *tensor.Tensor
}

// fidelityLayers forwards a batch of synthetic images through the exact
// reference path of net and records every conv layer's input.
func fidelityLayers(t *testing.T, net *nn.Network, batch int) []fidelityLayer {
	t.Helper()
	d, err := dataset.Synthetic(batch, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(batch, dataset.Channels, dataset.Height, dataset.Width)
	for b, img := range d.X {
		copy(x.Data[b*img.Size():], img.Data)
	}
	var out []fidelityLayer
	for _, m := range net.Root.(*nn.Sequential).Modules {
		if c, ok := m.(*nn.Conv); ok {
			out = append(out, fidelityLayer{name: fmt.Sprintf("%s/conv%d", net.Name, len(out)+1), conv: c, x: x})
		}
		if x, err = m.Forward(x, false); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// mapT returns f applied to every element of a copy of x.
func mapT(x *tensor.Tensor, f func(float64) float64) *tensor.Tensor {
	out := x.Clone()
	for i, v := range out.Data {
		out.Data[i] = f(v)
	}
	return out
}

func mustConv(t *testing.T, x, w *tensor.Tensor, stride int, pad tensor.PadMode) []float64 {
	t.Helper()
	y, err := tensor.Conv2D(x, w, nil, stride, pad)
	if err != nil {
		t.Fatal(err)
	}
	return y.Data
}

// signParts counts the sign parts of t that can be present after
// quantization (an upper bound: a part whose values all round to zero is
// counted anyway).
func signParts(t *tensor.Tensor) int {
	pos, neg := 0, 0
	for _, v := range t.Data {
		if v > 0 {
			pos = 1
		} else if v < 0 {
			neg = 1
		}
	}
	return pos + neg
}

// fidelityBound returns the per-element bound on |plan(x) - Conv2D(x, w)|
// for engine e at its operating point:
//
//   - DAC: each tap's product error |ŵx̂ - wx| is at most
//     |w|Δx/2 + |x|Δw/2 + ΔxΔw/4, summed over the taps inside the input
//     (Same-mode padding is exact zeros);
//   - ADC: every readout of every present cross term and operating group
//     rounds by at most Δadc/2, where Δadc comes from an upper bound on the
//     hardware full scale: the largest charge any design-depth channel
//     block could deposit, Σ(|x|+Δx/2)(|w|+Δw/2) over the block;
//   - edge (tiled path, plain Same mode): a tap whose column falls outside
//     its row reads the neighbouring tiled row instead of padding, adding at
//     most (|w|+Δw/2)(max|x|+Δx/2);
//   - float slack: 1e-9 of the largest possible magnitude.
//
// edge marks the elements that carry an edge term.
func fidelityBound(t *testing.T, e *Engine, x, w *tensor.Tensor, stride int, pad tensor.PadMode) (bound []float64, edge []bool) {
	t.Helper()
	step := func(v *tensor.Tensor) float64 {
		m := v.MaxAbs()
		if m == 0 {
			m = 1
		}
		q, err := quant.NewLinear(e.DACBits, m)
		if err != nil {
			t.Fatal(err)
		}
		return q.Step()
	}
	dx, dw := step(x), step(w)
	one := func(float64) float64 { return 1 }
	ax, aw := mapT(x, math.Abs), mapT(w, math.Abs)
	xs := mapT(x, func(v float64) float64 { return math.Abs(v) + dx/2 })
	ws := mapT(w, func(v float64) float64 { return math.Abs(v) + dw/2 })
	sumW := mustConv(t, mapT(x, one), aw, stride, pad)
	sumX := mustConv(t, ax, mapT(w, one), stride, pad)
	taps := mustConv(t, mapT(x, one), mapT(w, one), stride, pad)
	mag := mustConv(t, xs, ws, stride, pad)

	n, cin, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout, k := w.Shape[0], w.Shape[2]
	hwDepth := min(max(hardwareAccumulationDepth, e.NTA), cin)
	scale := 0.0
	for lo := 0; lo < cin; lo += hwDepth {
		hi := min(lo+hwDepth, cin)
		xb, err := sliceChannels(xs, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := sliceWeightChannels(ws, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range mustConv(t, xb, wb, 1, pad) {
			scale = max(scale, v)
		}
	}
	groups := (cin + e.NTA - 1) / e.NTA
	readouts := float64(signParts(x) * signParts(w) * groups)
	adc := readouts * scale / float64(uint64(1)<<e.ADCBits-1) / 2

	bound, edge = make([]float64, len(mag)), make([]bool, len(mag))
	for i := range bound {
		bound[i] = dx/2*sumW[i] + dw/2*sumX[i] + dx*dw/4*taps[i] + adc + 1e-9*mag[i]
	}
	if e.UseTiledPath && pad == tensor.Same {
		// Tap column c*stride-padL+kx outside [0, W) wraps into the
		// neighbouring row of the 1D tiled signal.
		xmax := x.MaxAbs() + dx/2
		padL := tensor.SamePad(k)
		oh, ow := (h+stride-1)/stride, (wd+stride-1)/stride
		for oc := 0; oc < cout; oc++ {
			for c := 0; c < ow; c++ {
				wrapped := 0.0
				for kx := 0; kx < k; kx++ {
					if col := c*stride - padL + kx; col >= 0 && col < wd {
						continue
					}
					for ci := 0; ci < cin; ci++ {
						for ky := 0; ky < k; ky++ {
							wrapped += ws.Data[((oc*cin+ci)*k+ky)*k+kx] * xmax
						}
					}
				}
				if wrapped == 0 {
					continue
				}
				for b := 0; b < n; b++ {
					for r := 0; r < oh; r++ {
						i := ((b*cout+oc)*oh+r)*ow + c
						bound[i] += wrapped
						edge[i] = true
					}
				}
			}
		}
	}
	return bound, edge
}

// TestCompiledLayerFidelityEnvelope runs every conv layer of SmallCNN
// ([8,16]) and AlexNetS, compiled on the direct and the tiled accelerator
// path at NTA 16 and NTA 1 (8-bit DAC and ADC), on the layer's real input,
// and requires the error against tensor.Conv2D on the unquantized weights to
// stay within fidelityBound everywhere, to be nonzero, and to have a lower
// RMS at NTA 16 than at NTA 1 (the Fig. 7 order: fewer readouts of the same
// full scale round less). The RMS leaves out the tiled path's edge columns,
// whose error does not depend on NTA and would drown the order.
func TestCompiledLayerFidelityEnvelope(t *testing.T) {
	nets := []*nn.Network{nn.SmallCNN([2]int{8, 16}, 10, 1), nn.AlexNetS(10, 2)}
	for _, net := range nets {
		for _, l := range fidelityLayers(t, net, 2) {
			w, bias := l.conv.Weight.W, l.conv.Bias.W.Data
			want, err := tensor.Conv2D(l.x, w, bias, l.conv.Stride, l.conv.Pad)
			if err != nil {
				t.Fatal(err)
			}
			for _, tiled := range []bool{false, true} {
				var rms [2]float64
				for i, nta := range []int{16, 1} {
					e := NewEngine()
					e.UseTiledPath = tiled
					e.NTA = nta
					p, err := e.PlanConv(w, bias, l.conv.Stride, l.conv.Pad)
					if err != nil {
						t.Fatal(err)
					}
					got, err := p.Conv2D(l.x)
					if err != nil {
						t.Fatal(err)
					}
					bound, edge := fidelityBound(t, e, l.x, w, l.conv.Stride, l.conv.Pad)
					what := fmt.Sprintf("%s tiled=%v nta=%d", l.name, tiled, nta)
					if len(got.Data) != len(want.Data) || len(bound) != len(want.Data) {
						t.Fatalf("%s: %d outputs, %d reference, %d bounds", what, len(got.Data), len(want.Data), len(bound))
					}
					worst, sq, inner := 0.0, 0.0, 0
					for j, v := range got.Data {
						d := math.Abs(v - want.Data[j])
						if d > bound[j] {
							t.Fatalf("%s: element %d off by %g, bound %g", what, j, d, bound[j])
						}
						worst = max(worst, d/bound[j])
						if !edge[j] {
							sq += d * d
							inner++
						}
					}
					if sq == 0 {
						t.Errorf("%s: output equals the exact convolution; quantization left no error", what)
					}
					rms[i] = math.Sqrt(sq / float64(inner))
					t.Logf("%s: RMS error %.3g over %d of %d elements, worst error / bound %.3f", what, rms[i], inner, len(got.Data), worst)
				}
				if rms[0] >= rms[1] {
					t.Errorf("%s tiled=%v: RMS error %g at NTA 16 is not below %g at NTA 1", l.name, tiled, rms[0], rms[1])
				}
			}
		}
	}
}
