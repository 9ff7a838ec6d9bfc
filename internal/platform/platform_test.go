package platform

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/clock"
)

func newTestMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := NewMachine(Config{Clock: clock.NewVirtual(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPowerModelMatchesPaperAnchors(t *testing.T) {
	pm := DefaultPowerModel()
	cases := []struct {
		f, util, want, tol float64
	}{
		{2.4, 0, 90, 0.1},  // idle ~90 W
		{2.4, 1, 210, 0.5}, // full load, highest state
		{1.6, 1, 165, 0.5}, // full load, lowest state (power cap)
	}
	for _, c := range cases {
		if got := pm.Power(c.f, c.util); math.Abs(got-c.want) > c.tol {
			t.Errorf("P(%v, %v) = %v, want ~%v", c.f, c.util, got, c.want)
		}
	}
}

func TestPowerModelMonotone(t *testing.T) {
	pm := DefaultPowerModel()
	for i := 1; i < len(Frequencies); i++ {
		hi := pm.Power(Frequencies[i-1], 1)
		lo := pm.Power(Frequencies[i], 1)
		if lo >= hi {
			t.Errorf("power not decreasing with frequency: P(%v)=%v >= P(%v)=%v",
				Frequencies[i], lo, Frequencies[i-1], hi)
		}
	}
	if pm.Power(2.4, 0.5) >= pm.Power(2.4, 1) {
		t.Error("power should increase with utilization")
	}
	// Utilization clamps.
	if pm.Power(2.4, 2) != pm.Power(2.4, 1) || pm.Power(2.4, -1) != pm.Power(2.4, 0) {
		t.Error("utilization clamping broken")
	}
}

func TestSevenPowerStates(t *testing.T) {
	if len(Frequencies) != 7 {
		t.Fatalf("states = %d, want 7 (paper Sec. 5.1)", len(Frequencies))
	}
	if Frequencies[0] != 2.4 || Frequencies[6] != 1.6 {
		t.Fatalf("frequency range = [%v, %v], want [2.4, 1.6]", Frequencies[0], Frequencies[6])
	}
}

func TestMachineValidation(t *testing.T) {
	if _, err := NewMachine(Config{}); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := NewMachine(Config{Clock: clock.NewVirtual(time.Unix(0, 0)), Cores: -1}); err == nil {
		t.Error("negative cores accepted")
	}
}

func TestExecuteAdvancesVirtualTime(t *testing.T) {
	m := newTestMachine(t)
	start := m.Clock().Now()
	d := m.Execute(2.4 * SpeedPerGHz) // exactly one second at 2.4 GHz
	if math.Abs(d.Seconds()-1) > 1e-9 {
		t.Fatalf("duration = %v, want 1s", d)
	}
	if got := m.Clock().Now().Sub(start); got != d {
		t.Fatalf("clock advanced %v, want %v", got, d)
	}
}

func TestFrequencyScalesExecution(t *testing.T) {
	m := newTestMachine(t)
	cost := 1.0e8
	dFast := m.Execute(cost)
	m.ImposePowerCap()
	if m.Frequency() != 1.6 {
		t.Fatalf("capped frequency = %v, want 1.6", m.Frequency())
	}
	dSlow := m.Execute(cost)
	ratio := dSlow.Seconds() / dFast.Seconds()
	// Durations quantize to nanoseconds, so allow a relative 1e-6.
	if math.Abs(ratio-2.4/1.6) > 1e-6 {
		t.Fatalf("slowdown ratio = %v, want %v", ratio, 2.4/1.6)
	}
	m.LiftPowerCap()
	if m.Frequency() != 2.4 {
		t.Fatalf("uncapped frequency = %v, want 2.4", m.Frequency())
	}
}

func TestSetStateValidation(t *testing.T) {
	m := newTestMachine(t)
	if err := m.SetState(7); err == nil {
		t.Error("out-of-range state accepted")
	}
	if err := m.SetState(-1); err == nil {
		t.Error("negative state accepted")
	}
	if err := m.SetState(3); err != nil || m.Frequency() != 2.0 {
		t.Errorf("SetState(3): err=%v freq=%v", err, m.Frequency())
	}
}

func TestUtilizationAccounting(t *testing.T) {
	m := newTestMachine(t)
	m.Execute(2.4 * SpeedPerGHz) // 1s busy
	m.Idle(3 * time.Second)      // 3s idle
	if got := m.Utilization(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.25", got)
	}
}

func TestMeterSamplesEverySecond(t *testing.T) {
	m := newTestMachine(t)
	// 2.5 seconds of full-load execution -> 2 complete samples.
	m.Execute(2.5 * 2.4 * SpeedPerGHz)
	samples := m.Meter().Samples()
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(samples))
	}
	want := DefaultPowerModel().Power(2.4, 1)
	for _, s := range samples {
		if math.Abs(s-want) > 0.01 {
			t.Fatalf("sample = %v, want %v", s, want)
		}
	}
}

func TestMeterMixedWindow(t *testing.T) {
	m := newTestMachine(t)
	// Half a second busy, half idle: the window mean is the average.
	m.Execute(0.5 * 2.4 * SpeedPerGHz)
	m.Idle(500 * time.Millisecond)
	samples := m.Meter().Samples()
	if len(samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(samples))
	}
	pm := DefaultPowerModel()
	want := (pm.Power(2.4, 1) + pm.Power(2.4, 0)) / 2
	if math.Abs(samples[0]-want) > 0.01 {
		t.Fatalf("mixed sample = %v, want %v", samples[0], want)
	}
}

func TestMeterMeanPowerAndEnergy(t *testing.T) {
	m := newTestMachine(t)
	m.Idle(2 * time.Second)
	pm := DefaultPowerModel()
	if got := m.Meter().MeanPower(); math.Abs(got-pm.Idle) > 1e-9 {
		t.Fatalf("mean power = %v, want %v", got, pm.Idle)
	}
	if got := m.Meter().Energy(); math.Abs(got-2*pm.Idle) > 1e-9 {
		t.Fatalf("energy = %v, want %v", got, 2*pm.Idle)
	}
	m.Meter().Reset()
	if m.Meter().MeanPower() != 0 || len(m.Meter().Samples()) != 0 {
		t.Fatal("Reset did not clear meter")
	}
}

func TestExecuteZeroCost(t *testing.T) {
	m := newTestMachine(t)
	if d := m.Execute(0); d != 0 {
		t.Fatal("zero cost should take zero time")
	}
	m.Idle(-time.Second) // no-op, no panic
}

func TestInterferenceSlowsExecution(t *testing.T) {
	m := newTestMachine(t)
	d0 := m.Execute(1e8)
	m.SetInterference(0.5)
	if m.Interference() != 0.5 {
		t.Fatalf("Interference = %v", m.Interference())
	}
	d1 := m.Execute(1e8)
	if math.Abs(d1.Seconds()/d0.Seconds()-2) > 1e-6 {
		t.Fatalf("50%% interference should double execution time: ratio %v", d1.Seconds()/d0.Seconds())
	}
	// Clamping.
	m.SetInterference(-1)
	if m.Interference() != 0 {
		t.Error("negative interference not clamped")
	}
	m.SetInterference(2)
	if m.Interference() != 0.95 {
		t.Error("interference not clamped at 0.95")
	}
}

func TestInterferenceKeepsMachinePowered(t *testing.T) {
	m := newTestMachine(t)
	m.SetInterference(0.5)
	m.Idle(2 * time.Second)
	pm := DefaultPowerModel()
	want := pm.Power(2.4, 0.5)
	if got := m.Meter().MeanPower(); math.Abs(got-want) > 0.01 {
		t.Fatalf("idle power under interference = %v, want %v (co-located load still burns)", got, want)
	}
}

func TestMeanPowerUnderCapDrops(t *testing.T) {
	m := newTestMachine(t)
	m.Execute(2.4 * SpeedPerGHz) // 1s at 2.4
	e1 := m.Meter().MeanPower()
	m.ImposePowerCap()
	m.Execute(10 * 1.6 * SpeedPerGHz) // 10s at 1.6
	e2 := m.Meter().MeanPower()
	if e2 >= e1 {
		t.Fatalf("mean power after cap %v, want below %v", e2, e1)
	}
}

// TestSetStateAtLandsMidStream checks the async cap event: a state
// change scheduled for a future virtual time must not affect work
// executed before that time, must split an idle period spanning the
// landing time so each side is charged at the right state, and must
// govern all work after it.
func TestSetStateAtLandsMidStream(t *testing.T) {
	m := newTestMachine(t)
	lowest := len(Frequencies) - 1
	if err := m.SetStateAt(lowest, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	// Work before the landing time still runs at 2.4 GHz.
	if d := m.Execute(2.4 * SpeedPerGHz / 2); d != 500*time.Millisecond {
		t.Fatalf("pre-cap beat took %v, want 500ms at 2.4 GHz", d)
	}
	if m.State() != 0 {
		t.Fatalf("cap landed early: state %d before its scheduled time", m.State())
	}
	// An idle spanning the landing time is split: [0.5s, 1s) at 2.4 GHz,
	// [1s, 2s) at 1.6 GHz. With co-located interference the idle power
	// differs across the boundary, so the meter exposes the split.
	m.SetInterference(0.5)
	m.Idle(1500 * time.Millisecond)
	pm := DefaultPowerModel()
	wantJ := pm.Power(2.4, 1)*0.5 + pm.Power(2.4, 0.5)*0.5 + pm.Power(1.6, 0.5)*1.0
	if got := m.Meter().Energy(); math.Abs(got-wantJ) > 0.01 {
		t.Fatalf("energy with mid-idle cap = %v J, want %v J", got, wantJ)
	}
	if m.State() != lowest {
		t.Fatalf("state = %d after landing time, want %d", m.State(), lowest)
	}
	// Work after the landing time runs at the capped frequency.
	m.SetInterference(0)
	if d := m.Execute(1.6 * SpeedPerGHz); d != time.Second {
		t.Fatalf("post-cap beat took %v, want 1s at 1.6 GHz", d)
	}
}

// TestSetStateAtOverrides pins the replacement rules: a later SetStateAt
// replaces a pending one, an explicit SetState cancels it, and a landing
// time in the past applies immediately.
func TestSetStateAtOverrides(t *testing.T) {
	m := newTestMachine(t)
	if err := m.SetStateAt(6, time.Unix(5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStateAt(3, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	m.Idle(2 * time.Second)
	if m.State() != 3 {
		t.Fatalf("state = %d, want 3: second schedule should replace the first", m.State())
	}
	m.Idle(4 * time.Second) // past the first (replaced) landing time
	if m.State() != 3 {
		t.Fatalf("state = %d, want 3: replaced schedule must not land", m.State())
	}
	if err := m.SetStateAt(6, time.Unix(100, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetState(1); err != nil {
		t.Fatal(err)
	}
	m.Idle(200 * time.Second)
	if m.State() != 1 {
		t.Fatalf("state = %d, want 1: SetState should cancel the pending schedule", m.State())
	}
	// A landing time already in the past applies immediately.
	if err := m.SetStateAt(2, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if m.State() != 2 {
		t.Fatalf("state = %d, want 2: past landing time should apply now", m.State())
	}
	if err := m.SetStateAt(99, time.Unix(0, 0)); err == nil {
		t.Fatal("want error for out-of-range scheduled state")
	}
}

// meterWorkload drives one machine through a fixed sequence of beats,
// idle gaps and scheduled DVFS changes — the shape of a runtime
// goroutine serving under a moving cap.
func meterWorkload(m *Machine) {
	for i := 0; i < 2000; i++ {
		if i%37 == 0 {
			at := m.Clock().Now().Add(time.Duration(i%5) * 70 * time.Millisecond)
			if err := m.SetStateAt(i%len(Frequencies), at); err != nil {
				panic(err)
			}
		}
		m.Execute(float64(1+i%7) * 1.3e7)
		if i%3 == 0 {
			m.Idle(time.Duration(1+i%11) * 9 * time.Millisecond)
		}
	}
}

// TestMeterConcurrentWithExecute reads the meter, the machine and its
// clock from a second goroutine while a first one executes. The meter is
// guarded by the machine's mutex, so the race detector checks that every
// reader takes it, and the energy must match, bit for bit, the same
// sequence run with nobody reading.
func TestMeterConcurrentWithExecute(t *testing.T) {
	alone := newTestMachine(t)
	meterWorkload(alone)

	m := newTestMachine(t)
	started, stop := make(chan struct{}), make(chan struct{})
	read := make(chan error, 1)
	go func() {
		var lastE float64
		var lastN int
		lastT := m.Clock().Now()
		close(started)
		for {
			select {
			case <-stop:
				read <- nil
				return
			default:
			}
			mt := m.Meter()
			_ = mt.MeanPower()
			e, n, now := mt.Energy(), len(mt.Samples()), m.Clock().Now()
			busy, all := m.Times()
			_ = m.Frequency()
			if e < lastE || n < lastN || now.Before(lastT) || busy > all {
				read <- fmt.Errorf("reader saw the machine go backwards: energy %v→%v, samples %d→%d, clock %v→%v, busy %v > all %v",
					lastE, e, lastN, n, lastT, now, busy, all)
				return
			}
			lastE, lastN, lastT = e, n, now
		}
	}()
	<-started
	meterWorkload(m)
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if got, want := m.Meter().Energy(), alone.Meter().Energy(); got != want {
		t.Fatalf("energy with a concurrent reader = %v J, want %v J bit for bit", got, want)
	}
	if got, want := m.Clock().Now(), alone.Clock().Now(); got != want {
		t.Fatalf("clock with a concurrent reader = %v, want %v", got, want)
	}
	if got, want := len(m.Meter().Samples()), len(alone.Meter().Samples()); got != want || got == 0 {
		t.Fatalf("samples with a concurrent reader = %d, want %d (> 0)", got, want)
	}
}
