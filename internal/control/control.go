// Package control implements the PowerDial control system (Sec. 2.3): the
// integral controller of Eqs. 2–4 built on Application Heartbeats
// feedback, and the actuator of Sec. 2.3.3 that converts the controller's
// continuous speedup signal into a schedule of discrete dynamic-knob
// settings over a time quantum, with the paper's two named solutions —
// race-to-idle and minimum-QoS-loss.
//
// The controller models application performance as h(t+1) = b·s(t)
// (Eq. 2) and computes
//
//	e(t) = g − h(t)                 (Eq. 3)
//	s(t) = s(t−1) + e(t)/b          (Eq. 4)
//
// whose closed loop has Z-transform 1/z (Eq. 8): unit steady-state gain
// (convergence to g), a single pole at 0 (stability, no oscillation,
// deadbeat convergence). The tests verify these properties numerically,
// including robustness to mismatch between the estimated and true b.
package control

import (
	"fmt"

	"repro/internal/calibrate"
)

// Controller is the integral controller of Eqs. 3–4.
type Controller struct {
	b    float64 // estimated baseline speed (beats/sec at speedup 1)
	g    float64 // target heart rate
	s    float64 // current commanded speedup s(t)
	smax float64 // anti-windup clamp: largest achievable speedup
}

// NewController returns a controller for target heart rate g with
// baseline-speed estimate b and maximum achievable speedup smax.
func NewController(b, g, smax float64) (*Controller, error) {
	if b <= 0 || g <= 0 {
		return nil, fmt.Errorf("control: b and g must be positive (b=%v g=%v)", b, g)
	}
	if smax < 1 {
		return nil, fmt.Errorf("control: smax %v < 1", smax)
	}
	return &Controller{b: b, g: g, s: 1, smax: smax}, nil
}

// Update consumes the observed heart rate h(t) and returns the commanded
// speedup s(t). The stored state is clamped to the achievable range
// [1, smax] (anti-windup: the integral never accumulates demand the
// actuator cannot express).
func (c *Controller) Update(h float64) float64 {
	e := c.g - h
	c.s += e / c.b
	if c.s < 1 {
		c.s = 1
	}
	if c.s > c.smax {
		c.s = c.smax
	}
	return c.s
}

// Speedup returns the current commanded speedup without updating.
func (c *Controller) Speedup() float64 { return c.s }

// Target returns g.
func (c *Controller) Target() float64 { return c.g }

// Reset returns the controller to its initial state.
func (c *Controller) Reset() { c.s = 1 }

// Policy selects the actuator solution of Sec. 2.3.3.
type Policy int

const (
	// MinQoS runs at the lowest obtainable speedup meeting the target,
	// "deliver[ing] the lowest feasible QoS loss" — the choice for
	// platforms with high idle power (current server-class machines).
	MinQoS Policy = iota
	// RaceToIdle forces the highest available speedup and idles for the
	// remainder of the quantum — the choice for platforms with low idle
	// power.
	RaceToIdle
)

// String names the policy.
func (p Policy) String() string {
	if p == RaceToIdle {
		return "race-to-idle"
	}
	return "min-qos"
}

// Plan is the actuator's schedule for the next time quantum: fractions of
// the quantum to spend at a high-speedup setting, a low-speedup setting,
// and idle. Fractions sum to at most 1; the remainder of high+low is the
// work fractions and idle completes the quantum (Eqs. 9–11).
type Plan struct {
	High     calibrate.SettingResult // the faster knob setting in use
	Low      calibrate.SettingResult // the slower knob setting in use
	THigh    float64                 // fraction of the quantum at High
	TLow     float64                 // fraction at Low
	TIdle    float64                 // fraction idle (race-to-idle only)
	Required float64                 // the speedup the controller asked for
	// Saturated reports that the demand exceeded the knob space's
	// maximum speedup; the plan delivers smax.
	Saturated bool
}

// ExpectedSpeedup is the time-weighted average speedup of the work
// fractions — the knob "gain" plotted in Fig. 7.
func (p Plan) ExpectedSpeedup() float64 {
	return p.High.Speedup*p.THigh + p.Low.Speedup*p.TLow
}

// ExpectedLoss is the time-weighted QoS loss of the plan's work
// fractions.
func (p Plan) ExpectedLoss() float64 {
	work := p.THigh + p.TLow
	if work <= 0 {
		return 0
	}
	return (p.High.Loss*p.THigh + p.Low.Loss*p.TLow) / work
}

// Actuator converts speedups into plans using a calibrated profile.
type Actuator struct {
	profile *calibrate.Profile
	policy  Policy
	base    calibrate.SettingResult
}

// NewActuator builds an actuator over the profile's Pareto frontier.
func NewActuator(p *calibrate.Profile, policy Policy) (*Actuator, error) {
	base, ok := p.Lookup(p.Baseline)
	if !ok {
		return nil, fmt.Errorf("control: profile for %s lacks its baseline setting", p.App)
	}
	if len(p.Frontier()) == 0 {
		return nil, fmt.Errorf("control: profile for %s has an empty Pareto frontier", p.App)
	}
	return &Actuator{profile: p, policy: policy, base: base}, nil
}

// Policy returns the actuator's configured policy.
func (a *Actuator) Policy() Policy { return a.policy }

// MaxSpeedup returns the largest achievable speedup.
func (a *Actuator) MaxSpeedup() float64 { return a.profile.MaxSpeedup() }

// PlanFor solves the constraint system of Eqs. 9–11 for the commanded
// speedup: find time fractions such that the time-weighted speedup
// equals the demand, choosing the solution named by the policy. The
// system is normalized: every time is a fraction of the quantum (the
// fractions sum to at most 1) and every speedup is relative to the
// baseline setting, whose speedup is 1.
func (a *Actuator) PlanFor(s float64) Plan {
	plan := Plan{Required: s, High: a.base, Low: a.base}
	if s < 1 {
		s = 1
	}
	max := a.profile.FastestSetting()
	if s >= max.Speedup {
		// Saturated: even the fastest setting cannot exceed smax.
		plan.High = max
		plan.THigh = 1
		plan.Saturated = s > max.Speedup
		return plan
	}
	switch a.policy {
	case RaceToIdle:
		// tmin = tdefault = 0; run at smax for s/smax of the quantum and
		// idle the rest.
		plan.High = max
		plan.THigh = s / max.Speedup
		plan.TIdle = 1 - plan.THigh
		return plan
	default: // MinQoS
		// tmax = 0; find s_min, the smallest knob speedup >= s, and mix
		// it with the default so the average is exactly s:
		//   smin·tmin + 1·tdefault = s,  tmin + tdefault = 1.
		smin, ok := a.profile.SettingFor(s)
		if !ok {
			smin = max
		}
		plan.High = smin
		if smin.Speedup <= 1 {
			plan.THigh = 1
			plan.TLow = 0
			return plan
		}
		plan.THigh = (s - 1) / (smin.Speedup - 1)
		plan.TLow = 1 - plan.THigh
		return plan
	}
}
