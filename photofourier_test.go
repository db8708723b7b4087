package photofourier

import (
	"testing"

	"photofourier/internal/tensor"
)

func TestEvaluateKnownNetworks(t *testing.T) {
	for _, name := range []string{"AlexNet", "VGG-16", "ResNet-18"} {
		p, err := Evaluate(ConfigCG(), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.FPS() <= 0 || p.AvgPowerW() <= 0 {
			t.Errorf("%s: degenerate result %+v", name, p)
		}
	}
	if _, err := Evaluate(ConfigCG(), "LeNet"); err == nil {
		t.Error("unknown network should fail")
	}
}

func TestEnginesImplementConvEngine(t *testing.T) {
	for _, spec := range []string{"rowtiled?aperture=256", "accelerator"} {
		e, err := Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		var _ ConvEngine = e
	}
}

func TestNewTilingPlan(t *testing.T) {
	p, err := NewTilingPlan(14, 14, 3, 256, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shots() != 1 {
		t.Errorf("14x14 on 256 waveguides should take 1 shot, got %d", p.Shots())
	}
	if _, err := NewTilingPlan(0, 14, 3, 256, true); err == nil {
		t.Error("invalid geometry should fail")
	}
}

func TestFacadeEndToEndConv(t *testing.T) {
	e, err := Open("rowtiled?aperture=256")
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 1, 8, 8)
	w := tensor.New(1, 1, 3, 3)
	w.Set(1, 0, 0, 1, 1)
	out, err := e.Conv2D(in, w, nil, 1, tensor.Valid)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape[2] != 6 || out.Shape[3] != 6 {
		t.Errorf("output shape %v", out.Shape)
	}
}

func TestNewJTCSystem(t *testing.T) {
	sys, err := NewJTCSystem(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Correlate1D([]float64{1, 2, 3, 4}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("correlation length %d, want 5", len(got))
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{"crosslight", "fig10", "fig11", "fig12", "fig13a", "fig13b", "fig13c",
		"fig2", "fig3", "fig6", "fig7", "fig8", "table1", "table3", "table45"}
	if len(ids) != len(want) {
		t.Fatalf("experiment ids %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("experiment ids %v, want %v", ids, want)
		}
	}
	if _, err := Experiment("nope", true); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestLightExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig2", "fig3", "fig6", "fig8", "fig11", "table45", "crosslight"} {
		r, err := Experiment(id, true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(r.Rows) == 0 {
			t.Errorf("%s: empty result", id)
		}
		if r.String() == "" {
			t.Errorf("%s: empty rendering", id)
		}
	}
}
