package platform

import "time"

// Meter emulates the WattsUp device of Sec. 5.1 as whole-run totals: it
// integrates energy as the machine executes and exposes mean power and
// energy since its last Reset. It is safe for concurrent use — an
// observer may read while the machine executes. Its readings are guarded
// by the machine's mutex, so a beat books time and energy under one lock.
type Meter struct {
	m *Machine

	totalEnergy float64 // joules over the whole run
	totalTime   float64 // seconds over the whole run
}

func newMeter(m *Machine) *Meter { return &Meter{m: m} }

// accumulate charges a duration of execution at the given power draw to
// the meter. The caller holds mt.m.mu, under which it also computed the
// power; an in-flight frequency change lands in the next accumulation.
func (mt *Meter) accumulate(d time.Duration, power float64) {
	mt.totalEnergy += power * d.Seconds()
	mt.totalTime += d.Seconds()
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
	mt.totalEnergy, mt.totalTime = 0, 0
}
