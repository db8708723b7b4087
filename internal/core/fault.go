// Fault hooks of the accelerator engine: the detection and mitigation half
// of the internal/fault substrate model. Both readout paths — the unplanned
// Engine.Conv2D oracle and the planned run behind every LayerPlan entry
// point — funnel through applyGroupFaults with the same (call, term, group)
// coordinates that key the readout-noise substreams, so fault behavior is
// deterministic and identical across paths for a matching call sequence.
//
// Recovery semantics (the first two rungs of the recovery ladder, see
// DESIGN.md):
//
//   - Transient shot misfires are caught by the per-shot sanity guard
//     (fault.GuardPlane) and re-fired within the injector's retry budget;
//     the charge pattern is deterministic, so a retry re-reads the clean
//     plane. Retries are real illuminations: they advance jtc.Shots (and
//     jtc.RetriedShots). A misfire that survives the budget surfaces as
//     ErrDeviceFault.
//   - Laser-power drift multiplies the plane by the residual gain since
//     the last calibration probe (fault.Injector.ResidualGain): the probe
//     re-references the DAC/ADC scales every ProbeInterval calls, so only
//     the intra-epoch residual reaches the ADC as clip/quantization error.
//   - ADC stuck bits pre-distort each value to the stuck code so the
//     subsequent readout quantization reproduces it exactly (approximate
//     when readout noise shifts the code afterwards).
//   - Full outage refuses the engine call up front (checkOutage) with
//     ErrDeviceFault; the serving layer fails over.
//
// A nil or inactive injector performs no floating-point work on the plane,
// so a zero-rate fault spec stays bit-identical to no fault spec at all.
package core

import (
	"fmt"
	"math"

	"photofourier/internal/fault"
	"photofourier/internal/jtc"
)

// ErrDeviceFault marks an unrecoverable device-level failure: a shot
// misfire that exhausted its retry budget, a full device outage, or an
// aperture quarantine too fragmented to schedule. It is an alias of
// fault.ErrDeviceFault (the canonical sentinel, defined below core's
// imports so internal/tiling can wrap it too); test with errors.Is.
var ErrDeviceFault = fault.ErrDeviceFault

// FaultInjector returns the engine's fault injector (nil when fault-free).
// The serve-bench counters read it through this accessor.
func (e *Engine) FaultInjector() *fault.Injector { return e.Faults }

// FaultInjector forwards to the wrapped engine's injector.
func (u UnplannedEngine) FaultInjector() *fault.Injector { return u.E.Faults }

// checkOutage refuses an engine call while the device is in full outage.
func (e *Engine) checkOutage(call uint64) error {
	inj := e.Faults
	if inj == nil || !inj.Down(call) {
		return nil
	}
	inj.NoteOutage()
	return fmt.Errorf("core: %w: device outage at call %d (down since call %d)",
		ErrDeviceFault, call, inj.OutageAt)
}

// applyGroupFaults applies the injector's per-readout fault model to one
// group partial-sum plane, in place, just before ADC readout: residual
// laser drift, guarded transient misfires with bounded retry, and ADC
// stuck-bit pre-distortion. scale is the layer's ADC full scale (which
// stands for probe-time calibration — drift is applied after it is
// derived, so only the residual reaches the ADC).
func (e *Engine) applyGroupFaults(call uint64, term, gi int, psum []float64, scale float64) error {
	inj := e.Faults
	if inj == nil {
		return nil
	}
	if inj.DriftRate > 0 {
		if g := inj.ResidualGain(call); g != 1 {
			for i := range psum {
				psum[i] *= g
			}
		}
	}
	if inj.ShotRate > 0 {
		if err := e.guardGroupShot(inj, call, term, gi, psum); err != nil {
			return err
		}
	}
	if inj.StuckBits != 0 && e.ADCBits > 0 && e.ADCBits <= 32 {
		applyStuckBits(psum, scale, e.ADCBits, inj.StuckBits)
	}
	return nil
}

// guardGroupShot runs the transient-misfire model for one group readout:
// deterministic fault draws keyed by (call, term, group, attempt), the
// per-shot sanity guard, and bounded retry. Corruption lands on a pooled
// scratch copy; the plane is only replaced when the guard passes, and an
// undetectable corruption is value-preserving by construction, so a
// successful return always yields the exact plane.
func (e *Engine) guardGroupShot(inj *fault.Injector, call uint64, term, gi int, psum []float64) error {
	maxAbs, cleanEnergy := fault.PlaneStats(psum)
	bound := 2*maxAbs + 1
	scratch := getFloats(len(psum))
	defer putFloats(scratch)
	for attempt := 0; ; attempt++ {
		kind, hit := inj.DrawShotFault(call, term, gi, attempt)
		if !hit {
			return nil
		}
		inj.NoteShotFault()
		copy(scratch, psum)
		fault.CorruptPlane(scratch, kind, inj.CorruptSeed(call, term, gi, attempt), bound)
		if fault.GuardPlane(scratch, bound, cleanEnergy) == nil {
			copy(psum, scratch)
			return nil
		}
		if attempt >= inj.MaxShotRetries {
			return fmt.Errorf("core: %w: readout (call %d, term %d, group %d) misfired %d times (retry budget %d)",
				ErrDeviceFault, call, term, gi, attempt+1, inj.MaxShotRetries)
		}
		// Re-fire the shot: a real illumination, counted as such.
		inj.NoteShotRetry()
		jtc.AddRetriedShots(1)
	}
}

// applyStuckBits pre-distorts a plane so the subsequent ADC quantization
// lands every value on its stuck-at-1 code: clamp to the full scale, round
// to the code the clean readout would produce, OR in the stuck mask, and
// write the code's value back (code*step quantizes to itself exactly).
func applyStuckBits(psum []float64, scale float64, adcBits int, mask uint64) {
	if scale <= 0 {
		scale = 1
	}
	maxCode := (uint64(1) << adcBits) - 1
	mask &= maxCode
	if mask == 0 {
		return
	}
	step := scale / float64(maxCode)
	for i, v := range psum {
		if v < 0 {
			v = 0
		} else if v > scale {
			v = scale
		}
		code := uint64(math.Round(v/step)) | mask
		if code > maxCode {
			code = maxCode
		}
		psum[i] = float64(code) * step
	}
}
