package fourier

import (
	"os"
	"testing"
	"time"
)

// TestLockstepAB is a manual A/B measurement: interleaved scalar/lockstep
// blocks of window lanes at AlexNetS conv1's shape (windowFixture) with
// min-of-blocks timing, robust to noisy-neighbor drift. Run with
// FOURIER_AB=1 go test -run LockstepAB -v.
func TestLockstepAB(t *testing.T) {
	if os.Getenv("FOURIER_AB") == "" {
		t.Skip("set FOURIER_AB=1 to run")
	}
	const nsig = 64
	f := newWindowFixture(t, nsig)
	const iters = 20
	const blocks = 12
	minS, minL := time.Duration(1<<62), time.Duration(1<<62)
	f.scalar(t)
	f.lockstep(t)
	for b := 0; b < blocks; b++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f.scalar(t)
		}
		if d := time.Since(t0); d < minS {
			minS = d
		}
		t0 = time.Now()
		for i := 0; i < iters; i++ {
			f.lockstep(t)
		}
		if d := time.Since(t0); d < minL {
			minL = d
		}
	}
	perS := minS / (iters * nsig)
	perL := minL / (iters * nsig)
	t.Logf("m=%d scalar %v/conv lockstep %v/conv ratio %.3f", f.cp.m, perS, perL, float64(minS)/float64(minL))
}
