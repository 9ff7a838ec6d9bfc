package control

import "repro/internal/knobs"

// DefaultQuantumBeats is the actuator time quantum: "we heuristically
// establish the time quantum as the time required to process twenty
// heartbeats" (Sec. 2.3.3).
const DefaultQuantumBeats = 20

// Schedule realizes a Plan as a per-beat assignment of knob settings over
// a quantum. Time fractions are converted to beat fractions: a fraction
// t of the quantum spent at speedup s completes t·s·b·T beats, so the
// beat share of the High setting is tH·sH / (tH·sH + tL·sL). Beats are
// interleaved (Bresenham) rather than run back-to-back so the delivered
// rate is smooth within the quantum.
type Schedule struct {
	plan      Plan
	beats     int
	highShare float64
}

// BuildSchedule lays a plan out over a quantum of the given beat count.
func BuildSchedule(plan Plan, beats int) Schedule {
	if beats < 1 {
		beats = 1
	}
	hw := plan.THigh * plan.High.Speedup
	lw := plan.TLow * plan.Low.Speedup
	share := 1.0
	if hw+lw > 0 {
		share = hw / (hw + lw)
	}
	return Schedule{plan: plan, beats: beats, highShare: share}
}

// Beats returns the quantum length in beats.
func (s *Schedule) Beats() int { return s.beats }

// Plan returns the underlying plan.
func (s *Schedule) Plan() Plan { return s.plan }

// Setting returns the knob setting for beat i of the quantum (i counted
// from 0; values beyond the quantum wrap, which keeps the pattern stable
// if a plan is reused).
func (s *Schedule) Setting(i int) knobs.Setting {
	i %= s.beats
	// Bresenham interleave: beat i runs High when the accumulated share
	// crosses an integer boundary.
	hi := int(float64(i+1)*s.highShare) - int(float64(i)*s.highShare)
	if hi > 0 {
		return s.plan.High.Setting
	}
	return s.plan.Low.Setting
}

// IdleRatio returns idle-time per unit of work-time for race-to-idle
// plans (0 for plans without an idle share). The runtime idles each beat
// for actualBeatDuration × IdleRatio, which realizes the plan's idle
// fraction regardless of model error in b.
func (s *Schedule) IdleRatio() float64 {
	work := s.plan.THigh + s.plan.TLow
	if work <= 0 || s.plan.TIdle <= 0 {
		return 0
	}
	return s.plan.TIdle / work
}
