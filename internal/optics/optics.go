// Package optics simulates the physical layer of an on-chip Joint Transform
// Correlator: a joint input plane carrying the signal and kernel side by
// side, a first 1D metasurface lens (Fourier transform), a square-law
// photodetector + electro-optic modulator stage at the Fourier plane, a
// second lens, and the output photodetector array (paper Sec. II, Fig. 1a).
//
// The mathematical identity the hardware exploits is Wiener-Khinchin: the
// Fourier transform of the joint power spectrum is the autocorrelation of
// the joint input, which contains the signal/kernel cross-correlation at an
// offset set by their separation (Eq. 1). The simulator reproduces the
// three-term output plane of Fig. 2, models detector noise, and validates
// term separation.
package optics

import (
	"fmt"
	"math"
	"math/rand"

	"photofourier/internal/fourier"
)

// System describes one simulated JTC. Samples is the number of spatial
// samples used to represent the optical field; it bounds the total extent of
// the joint input plane and sets the output-plane resolution. Noise models
// the Fourier-plane photodetectors (the dominant noise insertion point):
// DarkNoise is an additive Gaussian sigma per sample and ShotNoiseFactor
// scales a signal-dependent Gaussian term with sigma proportional to
// sqrt(intensity).
type System struct {
	Samples         int
	DarkNoise       float64
	ShotNoiseFactor float64
	FinalDarkNoise  float64 // additive noise at the output photodetectors
	rng             *rand.Rand
}

// NewSystem creates a noiseless system with the given field resolution and
// deterministic RNG seed (noise parameters default to zero; set the exported
// fields to enable them).
func NewSystem(samples int, seed int64) (*System, error) {
	if samples < 4 {
		return nil, fmt.Errorf("optics: %d samples is too small for a JTC", samples)
	}
	return &System{Samples: samples, rng: rand.New(rand.NewSource(seed))}, nil
}

// Result captures every observable plane of one JTC shot.
type Result struct {
	Joint            []float64 // joint input plane g (length Samples)
	FourierIntensity []float64 // |G|^2 after first lens + square-law detect (with noise)
	Output           []float64 // second-lens output amplitude (real by symmetry)
	OutputIntensity  []float64 // what the final photodetectors record

	SignalLen  int
	KernelLen  int
	Separation int // kernel start offset relative to signal start
	samples    int
}

// StrictOffset returns the smallest kernel offset that guarantees the
// cross-correlation term cannot overlap the center (non-convolution) term:
// the center autocorrelation extends to lag max(ls,lk)-1 on each side and
// the cross term starts at lag offset-ls+1.
func StrictOffset(ls, lk int) int {
	m := ls
	if lk > m {
		m = lk
	}
	return ls + m - 1
}

// MinSamples returns the smallest field size for which both the strict
// offset fits and the mirrored cross term stays clear of the direct one.
func MinSamples(ls, lk int) int {
	d := StrictOffset(ls, lk)
	return 2*d + 2*lk
}

// Simulate runs one JTC shot: signal occupies samples [0, len(signal)), the
// kernel occupies [offset, offset+len(kernel)). Pass offset <= 0 to use
// StrictOffset automatically. Both inputs should be non-negative (optical
// amplitudes); negative entries are rejected.
func (s *System) Simulate(signal, kernel []float64, offset int) (*Result, error) {
	ls, lk := len(signal), len(kernel)
	if ls == 0 || lk == 0 {
		return nil, fmt.Errorf("optics: empty signal (%d) or kernel (%d)", ls, lk)
	}
	for i, v := range signal {
		if v < 0 {
			return nil, fmt.Errorf("optics: signal[%d] = %g is negative; optical amplitudes are non-negative", i, v)
		}
	}
	for i, v := range kernel {
		if v < 0 {
			return nil, fmt.Errorf("optics: kernel[%d] = %g is negative; split signed kernels into pseudo-negative parts first", i, v)
		}
	}
	if offset <= 0 {
		offset = StrictOffset(ls, lk)
	}
	if offset < ls {
		return nil, fmt.Errorf("optics: kernel offset %d overlaps the %d-sample signal", offset, ls)
	}
	if offset+lk > s.Samples {
		return nil, fmt.Errorf("optics: joint plane needs %d samples, system has %d", offset+lk, s.Samples)
	}
	joint := make([]float64, s.Samples)
	copy(joint, signal)
	copy(joint[offset:], kernel)

	// First lens: 1D Fourier transform of the joint plane.
	field := fourier.FFTReal(joint)
	// Square-law photodetectors: |G|^2 plus detector noise; the EOM stage
	// re-emits the detected electrical signal as an optical amplitude.
	inten := fourier.Intensity(field)
	if s.DarkNoise > 0 || s.ShotNoiseFactor > 0 {
		for i := range inten {
			sigma := s.DarkNoise
			if s.ShotNoiseFactor > 0 {
				sigma = math.Hypot(sigma, s.ShotNoiseFactor*math.Sqrt(inten[i]))
			}
			inten[i] += s.rng.NormFloat64() * sigma
			if inten[i] < 0 {
				inten[i] = 0 // photocurrent cannot be negative
			}
		}
	}
	// Second lens: Fourier transform of the (real, even-symmetric in the
	// noiseless case) intensity pattern. The result is the autocorrelation
	// of the joint plane scaled by Samples.
	out := fourier.FFTReal(inten)
	amp := make([]float64, s.Samples)
	outInt := make([]float64, s.Samples)
	norm := float64(s.Samples)
	for i, v := range out {
		a := real(v) / norm
		amp[i] = a
		outInt[i] = a*a + imag(v)*imag(v)/(norm*norm)
	}
	if s.FinalDarkNoise > 0 {
		for i := range amp {
			amp[i] += s.rng.NormFloat64() * s.FinalDarkNoise
		}
	}
	return &Result{
		Joint:            joint,
		FourierIntensity: inten,
		Output:           amp,
		OutputIntensity:  outInt,
		SignalLen:        ls,
		KernelLen:        lk,
		Separation:       offset,
		samples:          s.Samples,
	}, nil
}

// ExtractCorrelation reads the cross-correlation term out of the output
// plane using the tiling.Correlator index convention: the returned slice has
// length SignalLen+KernelLen-1 and index q+KernelLen-1 holds
// y[q] = sum_j signal[q+j]*kernel[j].
func (r *Result) ExtractCorrelation() []float64 {
	ls, lk, d, m := r.SignalLen, r.KernelLen, r.Separation, r.samples
	out := make([]float64, ls+lk-1)
	for q := -(lk - 1); q <= ls-1; q++ {
		lag := ((d-q)%m + m) % m
		out[q+lk-1] = r.Output[lag]
	}
	return out
}

// TermEnergies integrates |output|^2 over the three regions of Eq. 1: the
// center non-convolution term O(x), the direct cross-correlation term, and
// its mirror. Leakage outside all three regions is returned as residual.
func (r *Result) TermEnergies() (center, cross, mirror, residual float64) {
	ls, lk, d, m := r.SignalLen, r.KernelLen, r.Separation, r.samples
	w := ls
	if lk > w {
		w = lk
	}
	inCenter := func(lag int) bool {
		return lag <= w-1 || lag >= m-(w-1)
	}
	inCross := func(lag int) bool {
		lo, hi := d-ls+1, d+lk-1
		return lag >= lo && lag <= hi
	}
	inMirror := func(lag int) bool {
		lo, hi := m-(d+lk-1), m-(d-ls+1)
		return lag >= lo && lag <= hi
	}
	for lag, a := range r.Output {
		e := a * a
		switch {
		case inCenter(lag):
			center += e
		case inCross(lag):
			cross += e
		case inMirror(lag):
			mirror += e
		default:
			residual += e
		}
	}
	return center, cross, mirror, residual
}

// SNRdB estimates the output-plane signal-to-noise ratio by comparing the
// cross-term energy of this (noisy) result against the noise energy measured
// as the deviation from a noiseless reference.
func SNRdB(noisy, clean *Result) float64 {
	if len(noisy.Output) != len(clean.Output) {
		return math.NaN()
	}
	var sig, noise float64
	_, cross, _, _ := clean.TermEnergies()
	sig = cross
	for i := range noisy.Output {
		d := noisy.Output[i] - clean.Output[i]
		noise += d * d
	}
	if noise == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sig/noise)
}

// Correlate1D runs a full JTC shot and extracts the correlation — a
// convenience wrapper turning a System into a tiling.Correlator-compatible
// function. The system must have enough samples for strict term separation.
func (s *System) Correlate1D(signal, kernel []float64) ([]float64, error) {
	res, err := s.Simulate(signal, kernel, 0)
	if err != nil {
		return nil, err
	}
	return res.ExtractCorrelation(), nil
}
