package cluster

import (
	"fmt"

	"repro/internal/calibrate"
	"repro/internal/platform"
)

// Oracle re-expresses the Sec. 5.5 sharing arithmetic as the closed-form
// ground truth for the executed fleet simulation (internal/fleet): given
// the same machine count, core count, calibrated profile, and operating
// frequency as a fleet, it predicts the steady state the fleet must
// converge to — per-instance knob speedup max(1, I/C·M), the actuator
// plan loss at that speedup, aggregate utilization, and cluster power.
// The fleet's end-to-end tests assert agreement within tolerance; any
// drift between the executable system and this model is a bug in one of
// them.
type Oracle struct {
	sys *System
}

// NewOracle builds the analytic oracle for a fleet-shaped system. A nil
// profile models a knob-less fleet (instances cannot trade QoS for
// throughput).
func NewOracle(machines, coresPerMachine int, profile *calibrate.Profile, power platform.PowerModel, freqGHz float64) (*Oracle, error) {
	sys, err := New(Config{
		Machines:        machines,
		CoresPerMachine: coresPerMachine,
		Profile:         profile,
		Power:           power,
		Frequency:       freqGHz,
	})
	if err != nil {
		return nil, err
	}
	return &Oracle{sys: sys}, nil
}

// Prediction is the oracle's steady state for a given resident instance
// count under saturating load with balanced placement.
type Prediction struct {
	// Instances is the concurrent instance count predicted for.
	Instances int
	// Speedup is the knob speedup every instance must hold to stay on
	// target (max(1, per-machine instances / cores)).
	Speedup float64
	// Loss is the expected per-instance QoS loss of the actuator plan at
	// that speedup.
	Loss float64
	// Util is per-machine utilization in [0, 1].
	Util float64
	// PowerWatts is total cluster power (idle machines included).
	PowerWatts float64
	// PerMachinePower is PowerWatts split evenly across machines.
	PerMachinePower float64
	// Feasible reports whether every instance can hold the target rate
	// (false once demand exceeds the profile's maximum speedup).
	Feasible bool
}

// Predict computes the steady state for the given instance count.
func (o *Oracle) Predict(instances int) (Prediction, error) {
	pt, err := o.sys.Evaluate(instances)
	if err != nil {
		return Prediction{}, err
	}
	p := Prediction{
		Instances:       instances,
		Speedup:         pt.Speedup,
		Loss:            pt.MeanLoss,
		PowerWatts:      pt.PowerWatts,
		PerMachinePower: pt.PowerWatts / float64(o.sys.cfg.Machines),
		Feasible:        pt.PerfOK,
	}
	// Recover utilization from the power model (Evaluate folds it into
	// PowerWatts; the fleet compares measured utilization directly).
	load := float64(instances) / float64(o.sys.cfg.Machines)
	need := load / float64(o.sys.cfg.CoresPerMachine)
	if need > 1 {
		need = 1
	}
	p.Util = need
	return p, nil
}

// MaxInstances returns the largest instance count the modeled system can
// hold on target using its knobs.
func (o *Oracle) MaxInstances() int { return o.sys.MaxInstances() }

// String describes the oracle's configuration.
func (o *Oracle) String() string {
	return fmt.Sprintf("oracle: %d machines x %d cores at %.2f GHz",
		o.sys.cfg.Machines, o.sys.cfg.CoresPerMachine, o.sys.cfg.Frequency)
}
