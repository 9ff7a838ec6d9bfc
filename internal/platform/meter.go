package platform

import "time"

// Meter emulates the WattsUp device of Sec. 5.1: it integrates energy as
// the machine executes and exposes mean power per 1-second sampling
// window plus whole-run statistics. It is safe for concurrent use — an
// observer may read while the machine executes. Its readings are guarded
// by the machine's mutex, so a beat books time and energy under one lock.
type Meter struct {
	m *Machine

	// Current (partial) sampling window.
	windowEnergy float64 // joules in the open window
	windowTime   float64 // seconds covered in the open window

	samples []float64 // mean watts per completed 1s window

	totalEnergy float64 // joules over the whole run
	totalTime   float64 // seconds over the whole run
}

// SampleInterval is the WattsUp sampling period.
const SampleInterval = time.Second

func newMeter(m *Machine) *Meter { return &Meter{m: m} }

// accumulate charges a duration of execution at the given power draw to
// the meter, closing 1-second windows as they fill. The caller holds
// mt.m.mu, under which it also computed the power; an in-flight frequency
// change lands in the next accumulation, as with the real meter's
// mixed-state windows.
func (mt *Meter) accumulate(d time.Duration, power float64) {
	remaining := d.Seconds()
	for remaining > 0 {
		space := SampleInterval.Seconds() - mt.windowTime
		step := remaining
		if step > space {
			step = space
		}
		mt.windowEnergy += power * step
		mt.windowTime += step
		mt.totalEnergy += power * step
		mt.totalTime += step
		remaining -= step
		if mt.windowTime >= SampleInterval.Seconds()-1e-12 {
			mt.samples = append(mt.samples, mt.windowEnergy/mt.windowTime)
			mt.windowEnergy, mt.windowTime = 0, 0
		}
	}
}

// Samples returns the completed 1-second mean-power readings.
func (mt *Meter) Samples() []float64 {
	mt.m.mu.Lock()
	defer mt.m.mu.Unlock()
	out := make([]float64, len(mt.samples))
	copy(out, mt.samples)
	return out
}

// MeanPower returns the energy-weighted mean power in watts over the
// whole run (0 before any time has elapsed).
func (mt *Meter) MeanPower() float64 {
	mt.m.mu.Lock()
	defer mt.m.mu.Unlock()
	if mt.totalTime <= 0 {
		return 0
	}
	return mt.totalEnergy / mt.totalTime
}

// Energy returns total joules consumed.
func (mt *Meter) Energy() float64 {
	mt.m.mu.Lock()
	defer mt.m.mu.Unlock()
	return mt.totalEnergy
}

// Reset clears all accumulated readings.
func (mt *Meter) Reset() {
	mt.m.mu.Lock()
	defer mt.m.mu.Unlock()
	mt.windowEnergy, mt.windowTime = 0, 0
	mt.totalEnergy, mt.totalTime = 0, 0
	mt.samples = nil
}
