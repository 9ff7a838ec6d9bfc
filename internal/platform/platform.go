// Package platform simulates the paper's experimental machine (Sec. 5.1):
// a Dell PowerEdge R410 whose processors expose seven power states with
// clock frequencies from 2.4 GHz down to 1.6 GHz, measured by a WattsUp
// meter sampling full-system power at 1-second intervals, with idle power
// around 90 W and full load up to ~220 W.
//
// Applications execute real computation; the machine converts their
// measured work units into *virtual time* as a function of the current
// frequency, so imposing a power cap (forcing a lower DVFS state) slows
// the application exactly the way the paper's cpufrequtils-driven cap
// does, deterministically. The power model
//
//	P(f, util) = P_idle + util · (c1·f + c3·f³)
//
// is fit to the paper's reported measurements: ~90 W idle, ~210 W at full
// load at 2.4 GHz, ~165 W at full load at 1.6 GHz (Figs. 6a–6d). The
// cubic term reflects the V²f scaling of dynamic power under DVFS.
package platform

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
)

// Frequencies are the seven DVFS states in GHz, highest first — the
// x-axis of Fig. 6.
var Frequencies = []float64{2.4, 2.26, 2.13, 2.0, 1.86, 1.73, 1.6}

// PowerModel maps frequency and utilization to full-system watts.
type PowerModel struct {
	Idle float64 // watts at zero utilization
	C1   float64 // linear dynamic term, W/GHz
	C3   float64 // cubic dynamic term, W/GHz³
}

// DefaultPowerModel is fit to the paper's measurements (see package doc).
func DefaultPowerModel() PowerModel {
	// Solve P(2.4,1)=210, P(1.6,1)=165 with Idle=90:
	//   2.4·c1 + 13.824·c3 = 120
	//   1.6·c1 +  4.096·c3 =  75
	return PowerModel{Idle: 90, C1: 44.375, C3: 0.9765625}
}

// Power returns full-system watts at frequency f (GHz) and utilization
// util in [0,1].
func (m PowerModel) Power(f, util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return m.Idle + util*(m.C1*f+m.C3*f*f*f)
}

// SpeedPerGHz converts work units (application operation counts) to
// execution rate: a machine at f GHz retires f×SpeedPerGHz work units per
// second. The constant is a calibration scale — only ratios matter for
// every reproduced result.
const SpeedPerGHz = 1e8

// Machine is one simulated server. It is safe for concurrent use: a
// runtime goroutine may Execute/Idle while a supervisor goroutine changes
// power states or interference and reads the meter (the fleet arbiter
// does exactly this).
type Machine struct {
	clk   *clock.Virtual
	model PowerModel
	cores int
	meter *Meter

	// mu guards the fields below and the meter's readings: Execute, Run
	// and Idle book time and energy in one critical section.
	mu           sync.Mutex
	state        int     // index into Frequencies
	interference float64 // fraction of capacity consumed by co-located load

	// pending is a scheduled DVFS change (SetStateAt) that lands when
	// the virtual clock reaches pendingAt.
	pending      bool
	pendingState int
	pendingAt    time.Time

	busy time.Duration // accumulated busy time
	all  time.Duration // accumulated total time
}

// Config configures a Machine.
type Config struct {
	// Clock is the virtual time source (required).
	Clock *clock.Virtual
	// Model is the power model (default DefaultPowerModel).
	Model PowerModel
	// Cores is the core count (default 8 — the paper's dual quad-core
	// machines).
	Cores int
}

// NewMachine builds a machine in its highest power state.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("platform: Config.Clock is required")
	}
	if cfg.Model == (PowerModel{}) {
		cfg.Model = DefaultPowerModel()
	}
	if cfg.Cores == 0 {
		cfg.Cores = 8
	}
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("platform: cores must be positive")
	}
	m := &Machine{clk: cfg.Clock, model: cfg.Model, cores: cfg.Cores}
	m.meter = newMeter(m)
	return m, nil
}

// Clock returns the machine's clock.
func (m *Machine) Clock() *clock.Virtual { return m.clk }

// Cores returns the core count.
func (m *Machine) Cores() int { return m.cores }

// applyPendingLocked installs a scheduled state change once the clock
// has reached its landing time. Callers hold m.mu.
func (m *Machine) applyPendingLocked() {
	if m.pending && !m.clk.Now().Before(m.pendingAt) {
		m.state = m.pendingState
		m.pending = false
	}
}

// Frequency returns the current clock frequency in GHz.
func (m *Machine) Frequency() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applyPendingLocked()
	return Frequencies[m.state]
}

// State returns the current DVFS state index (0 = fastest).
func (m *Machine) State() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applyPendingLocked()
	return m.state
}

// SetState selects a DVFS state by index (0 = 2.4 GHz). It returns an
// error for out-of-range states. Any scheduled SetStateAt still in
// flight is cancelled: an explicit cap overrides a queued one.
func (m *Machine) SetState(i int) error {
	if i < 0 || i >= len(Frequencies) {
		return fmt.Errorf("platform: power state %d out of range [0,%d]", i, len(Frequencies)-1)
	}
	m.mu.Lock()
	m.state = i
	m.pending = false
	m.mu.Unlock()
	return nil
}

// SetStateAt schedules a DVFS state change to land at virtual time at —
// the paper's cpufrequtils cap arriving asynchronously between beats
// rather than at a control-round boundary. If the clock has already
// reached at, the change applies immediately. Otherwise it applies
// lazily once the machine's clock crosses at: work in flight completes
// at the old frequency (beats are the atomic unit, as on real hardware
// where a DVFS transition lands at the next scheduling boundary), and an
// Idle period spanning the landing time is split so each side is charged
// at the right state. A later SetStateAt or SetState replaces the
// pending change.
func (m *Machine) SetStateAt(i int, at time.Time) error {
	if i < 0 || i >= len(Frequencies) {
		return fmt.Errorf("platform: power state %d out of range [0,%d]", i, len(Frequencies)-1)
	}
	m.mu.Lock()
	if !at.After(m.clk.Now()) {
		m.state = i
		m.pending = false
	} else {
		m.pending, m.pendingState, m.pendingAt = true, i, at
	}
	m.mu.Unlock()
	return nil
}

// ImposePowerCap drops the machine to its lowest-power state (the paper's
// cap scenario forces 2.4 GHz -> 1.6 GHz).
func (m *Machine) ImposePowerCap() { _ = m.SetState(len(Frequencies) - 1) }

// LiftPowerCap restores the highest power state.
func (m *Machine) LiftPowerCap() { _ = m.SetState(0) }

// SetInterference models a co-located load consuming the given fraction
// of the machine's capacity (a load spike from another tenant, a
// background job). PowerDial is explicitly "designed to respond to any
// event that changes the balance between the computational demand and
// the resources available" (Sec. 7) — interference slows the controlled
// application exactly like a frequency drop, and the controller
// compensates the same way. Fractions outside [0, 0.95] are clamped.
func (m *Machine) SetInterference(fraction float64) {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 0.95 {
		fraction = 0.95
	}
	m.mu.Lock()
	m.interference = fraction
	m.mu.Unlock()
}

// Interference returns the current co-located-load fraction.
func (m *Machine) Interference() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.interference
}

// speedLocked is Speed with m.mu held.
func (m *Machine) speedLocked() float64 {
	return Frequencies[m.state] * SpeedPerGHz * (1 - m.interference)
}

// Speed returns the current execution rate in work units per second for a
// single-core workload, net of co-located interference.
func (m *Machine) Speed() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applyPendingLocked()
	return m.speedLocked()
}

// Execute runs cost work units at the current frequency, advancing the
// virtual clock and accounting the time as busy. It returns the elapsed
// virtual duration. A concurrent SetState or SetInterference takes
// effect at the next Execute, as a DVFS transition lands at the next
// scheduling boundary on real hardware.
//
//fleetvet:noalloc
func (m *Machine) Execute(cost float64) time.Duration {
	if cost <= 0 {
		return 0
	}
	m.mu.Lock()
	m.applyPendingLocked()
	seconds := cost / m.speedLocked()
	d := time.Duration(seconds * float64(time.Second))
	power := m.model.Power(Frequencies[m.state], 1)
	m.busy += d
	m.all += d
	m.meter.accumulate(d, power)
	m.mu.Unlock()
	m.clk.Advance(d)
	return d
}

// Run books d of busy time at the current operating point without an
// iteration boundary — the fleet's fluid-limit mode renders a whole
// span of analytic service through it instead of one Execute per beat.
// Callers must cut spans at scheduled state landings (the fleet's
// fluid drains are bounded by re-arbitration instants), so a single
// pending-state apply at the span start suffices, exactly like
// Execute.
func (m *Machine) Run(d time.Duration) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	m.applyPendingLocked()
	power := m.model.Power(Frequencies[m.state], 1)
	m.busy += d
	m.all += d
	m.meter.accumulate(d, power)
	m.mu.Unlock()
	m.clk.Advance(d)
}

// Idle advances the clock with the controlled application idle. Any
// co-located interference keeps consuming its share of the machine, so
// the meter charges that utilization. An idle period spanning a
// scheduled SetStateAt landing time is split at the boundary so each
// side is charged at the correct state.
func (m *Machine) Idle(d time.Duration) {
	for d > 0 {
		m.mu.Lock()
		m.applyPendingLocked()
		seg := d
		if m.pending {
			if until := m.pendingAt.Sub(m.clk.Now()); until < seg {
				seg = until
			}
		}
		power := m.model.Power(Frequencies[m.state], m.interference)
		m.all += seg
		m.meter.accumulate(seg, power)
		m.mu.Unlock()
		m.clk.Advance(seg)
		d -= seg
	}
}

// Utilization returns the busy fraction of all accounted time.
func (m *Machine) Utilization() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.all <= 0 {
		return 0
	}
	return float64(m.busy) / float64(m.all)
}

// Times returns the accumulated busy and total durations. The fleet
// supervisor samples deltas of these each control quantum to account
// host-level power across co-resident instances.
func (m *Machine) Times() (busy, all time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.busy, m.all
}

// Meter returns the machine's power meter.
func (m *Machine) Meter() *Meter { return m.meter }
