package platform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
)

// Property: the meter conserves energy — total joules equal the sum of
// power times duration over every segment, for any interleaving of
// executions, idles and frequency changes.
func TestMeterEnergyConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMachine(Config{Clock: clock.NewVirtual(time.Unix(0, 0))})
		if err != nil {
			return false
		}
		type segment struct {
			busy  bool
			secs  float64
			state int
		}
		var segs []segment
		for i := 0; i < 20; i++ {
			segs = append(segs, segment{
				busy:  rng.Intn(2) == 0,
				secs:  0.05 + rng.Float64()*1.5,
				state: rng.Intn(len(Frequencies)),
			})
		}
		var wantEnergy float64
		pm := DefaultPowerModel()
		for _, sg := range segs {
			if err := m.SetState(sg.state); err != nil {
				return false
			}
			if sg.busy {
				m.Execute(sg.secs * m.Speed())
				wantEnergy += pm.Power(Frequencies[sg.state], 1) * sg.secs
			} else {
				m.Idle(time.Duration(sg.secs * float64(time.Second)))
				wantEnergy += pm.Power(Frequencies[sg.state], 0) * sg.secs
			}
		}
		got := m.Meter().Energy()
		// Nanosecond duration quantization accumulates tiny error.
		return math.Abs(got-wantEnergy)/wantEnergy < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean power always lies between idle and peak power.
func TestMeanPowerBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMachine(Config{Clock: clock.NewVirtual(time.Unix(0, 0))})
		if err != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			if rng.Intn(2) == 0 {
				m.Execute(rng.Float64() * m.Speed())
			} else {
				m.Idle(time.Duration(rng.Float64() * float64(time.Second)))
			}
		}
		pm := DefaultPowerModel()
		mp := m.Meter().MeanPower()
		return mp >= pm.Idle-1e-9 && mp <= pm.Power(2.4, 1)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: execution time is inversely proportional to frequency for
// equal work, across all state pairs.
func TestFrequencyProportionalityProperty(t *testing.T) {
	cost := 3.7e8
	var durations []float64
	for state := range Frequencies {
		m, err := NewMachine(Config{Clock: clock.NewVirtual(time.Unix(0, 0))})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetState(state); err != nil {
			t.Fatal(err)
		}
		durations = append(durations, m.Execute(cost).Seconds())
	}
	for i := range Frequencies {
		for j := range Frequencies {
			want := Frequencies[j] / Frequencies[i]
			got := durations[i] / durations[j]
			if math.Abs(got-want)/want > 1e-6 {
				t.Fatalf("duration ratio %d/%d = %v, want %v", i, j, got, want)
			}
		}
	}
}
