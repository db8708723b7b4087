package jtc_test

import (
	"math"
	"testing"

	"photofourier/internal/jtc"
)

func TestLinearPowerDetectorNoiseless(t *testing.T) {
	d := jtc.NewLinearPowerDetector(0, 0, 0)
	if d.Detect(3.5) != 3.5 || d.PostReadout(2) != 2 {
		t.Error("noiseless linear detector should be identity")
	}
	if d.Name() != "linear-power" {
		t.Error("name")
	}
}

func TestLinearPowerDetectorNoiseStatistics(t *testing.T) {
	d := jtc.NewLinearPowerDetector(0.1, 0, 42)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := d.Detect(1.0) - 1.0
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Errorf("noise mean %g should be ~0", mean)
	}
	if math.Abs(std-0.1) > 0.01 {
		t.Errorf("noise std %g should be ~0.1", std)
	}
}

func TestShotNoiseGrowsWithSignal(t *testing.T) {
	big := jtc.NewLinearPowerDetector(0, 0.1, 1)
	small := jtc.NewLinearPowerDetector(0, 0.1, 1)
	n := 5000
	var varBig, varSmall float64
	for i := 0; i < n; i++ {
		d1 := big.Detect(100.0) - 100.0
		varBig += d1 * d1
		d2 := small.Detect(1.0) - 1.0
		varSmall += d2 * d2
	}
	if varBig <= varSmall*10 {
		t.Errorf("shot noise should scale with sqrt(signal): big %g small %g", varBig, varSmall)
	}
}

func TestSquareLawDetector(t *testing.T) {
	d := jtc.NewSquareLawDetector(0, 0)
	if d.Detect(3) != 9 {
		t.Error("square law should square")
	}
	if d.PostReadout(9) != 3 {
		t.Error("post readout should sqrt")
	}
	if d.PostReadout(-1) != 0 {
		t.Error("negative charge clamps to 0")
	}
	if d.Name() != "square-law" {
		t.Error("name")
	}
	// Round trip for single-channel accumulation.
	v := 1.7
	if math.Abs(d.PostReadout(d.Detect(v))-v) > 1e-12 {
		t.Error("square-law round trip at depth 1")
	}
}

// TestShotRetryAccounting: a retry is a real illumination, so every
// guard-triggered re-execution the engine records advances jtc.Shots
// alongside jtc.RetriedShots.
func TestShotRetryAccounting(t *testing.T) {
	shots0, retried0 := jtc.Shots(), jtc.RetriedShots()
	jtc.AddShots(5)
	jtc.AddRetriedShots(2)
	if d := jtc.RetriedShots() - retried0; d != 2 {
		t.Fatalf("retried-shot delta %d, want 2", d)
	}
	if d := jtc.Shots() - shots0; d != 7 {
		t.Fatalf("shot delta %d, want 5 shots + 2 retries = 7", d)
	}
}
