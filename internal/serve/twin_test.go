package serve

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/calibrate"
	"repro/internal/clock"
	"repro/internal/fleet"
)

// twinScenario is the twin tests' fleet: like webScenario but with
// split dispatch, the independent-station regime the planner and twin
// feed-forward results are stated in.
func twinScenario(prof *calibrate.Profile, instances int) fleet.Scenario {
	sc := webScenario(prof, instances)
	sc.SplitDispatch = true
	return sc
}

// constScaler proposes a fixed count — a stateless stand-in for the
// measurement-driven policy in clamp tests.
type constScaler int

func (c constScaler) Scale(fleet.ScaleObservation) int { return int(c) }

// TestTwinScalerClampsToAdvice pins the feed-forward band: proposals
// are clamped to ±1 of the advice, and the scaler is transparent with
// no advice installed.
func TestTwinScalerClampsToAdvice(t *testing.T) {
	var obs fleet.ScaleObservation
	for _, tc := range []struct {
		name   string
		inner  int
		advice int
		want   int
	}{
		{"no advice is transparent", 7, 0, 7},
		{"proposal above band clamps down", 7, 3, 4},
		{"proposal below band clamps up", 1, 5, 4},
		{"proposal inside band passes", 4, 4, 4},
		{"band edge passes", 5, 4, 5},
		{"clamp floors at one instance", 0, 1, 1},
		{"cleared advice is transparent again", 7, -1, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := &TwinScaler{Inner: constScaler(tc.inner)}
			ts.SetAdvice(tc.advice)
			if got := ts.Scale(obs); got != tc.want {
				t.Errorf("inner %d, advice %d: scale = %d, want %d", tc.inner, tc.advice, got, tc.want)
			}
		})
	}
}

// TestTwinFeedForwardFewerScaleActions is the acceptance check for the
// digital twin: on the same deterministic serving schedule — a trough
// lead-in, then a sustained peak — the twin-fed policy (hysteresis
// clamped to ±1 of the twin's what-if recommendation) must issue
// strictly fewer scale actions than the pure measurement-driven
// policy, at no more SLO violations. Fully virtual clock: the twin
// advises synchronously and the whole comparison is deterministic.
func TestTwinFeedForwardFewerScaleActions(t *testing.T) {
	const (
		iters  = 10  // 0.25 s service at full frequency
		sloP95 = 0.6 // seconds
		maxIn  = 8
		trough = 2
		peak   = 10
		rounds = 40
	)
	prof := syntheticProfile(t)
	anchor := time.Unix(0, 0)

	run := func(useTwin bool) (moves, violations int) {
		sup, err := fleet.NewScenario(twinScenario(prof, 1))
		if err != nil {
			t.Fatal(err)
		}
		inner, err := fleet.NewHysteresisScaler(fleet.HysteresisConfig{
			SLO:          fleet.SLO{P95: sloP95},
			Max:          maxIn,
			DownFraction: 0.7,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Clock: clock.NewVirtual(anchor), Supervisor: sup}
		cfg.Gateway = NewGateway(cfg.Clock, 4096)
		var scaler fleet.Autoscaler = inner
		if useTwin {
			ts := &TwinScaler{Inner: inner}
			twin, err := NewTwin(TwinConfig{
				Scenario:     func() fleet.Scenario { return twinScenario(prof, 0) },
				ReqIters:     iters,
				SLO:          fleet.SLO{P95: sloP95},
				MaxInstances: maxIn,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Twin, cfg.TwinScaler = twin, ts
			scaler = ts
		}
		if err := sup.Autoscale(scaler, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clk := cfg.Clock.(*clock.Virtual)
		for r := 0; r < rounds; r++ {
			rate := peak
			if r < 6 {
				rate = trough
			}
			submitSpread(t, clk, cfg.Gateway, anchor, r, rate, iters)
			if err := srv.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		for _, rs := range sup.Report().Rounds {
			if rs.LatencyP95 > sloP95 {
				violations++
			}
		}
		return sup.ScaleMoves(), violations
	}

	pureMoves, pureViol := run(false)
	twinMoves, twinViol := run(true)
	if twinMoves >= pureMoves {
		t.Errorf("twin-fed policy issued %d scale actions, pure policy %d; want strictly fewer", twinMoves, pureMoves)
	}
	if twinViol > pureViol {
		t.Errorf("twin-fed policy has %d SLO-breach rounds vs pure %d; damping must not cost the objective", twinViol, pureViol)
	}
}

// TestTwinAdviseFindsFeasibleCount pins the what-if search itself: for
// a snapshot whose recent trace peaks well above one instance's
// capacity, the twin recommends a count that actually holds the SLO in
// its own replay, and recommends less for a quiet trace.
func TestTwinAdviseFindsFeasibleCount(t *testing.T) {
	prof := syntheticProfile(t)
	twin, err := NewTwin(TwinConfig{
		Scenario:     func() fleet.Scenario { return twinScenario(prof, 0) },
		ReqIters:     10,
		SLO:          fleet.SLO{P95: 0.6},
		MaxInstances: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := fleet.FleetSnapshot{
		Quantum: time.Second,
		Groups: []fleet.GroupSnapshot{{
			Name:           "web",
			Accepting:      1,
			RecentArrivals: []float64{2, 8, 10, 10},
		}},
	}
	busy, err := twin.Advise(snap)
	if err != nil {
		t.Fatal(err)
	}
	if busy < 2 || busy > 8 {
		t.Errorf("peak-10 advice = %d instances, want in (1, 8]: one 0.25 s-service instance cannot hold 10/s", busy)
	}
	snap.Groups[0].RecentArrivals = []float64{1, 1, 1, 1}
	quiet, err := twin.Advise(snap)
	if err != nil {
		t.Fatal(err)
	}
	if quiet >= busy {
		t.Errorf("quiet-trace advice %d not below peak-trace advice %d", quiet, busy)
	}
	// Deterministic: the same snapshot advises the same count.
	again, err := twin.Advise(snap)
	if err != nil {
		t.Fatal(err)
	}
	if again != quiet {
		t.Errorf("repeated Advise diverged: %d then %d", quiet, again)
	}
}

// adviseFullHorizon is the what-if search as the twin ran it before it
// learned to stop early, kept as the oracle the early verdict is held
// against: every candidate replayed for the whole horizon, the advice
// the smallest count that holds (MaxInstances when none does). Unlike
// the search it stands in for it does not stop at the answer, so the
// caller can compare the verdicts past it too.
func adviseFullHorizon(tw *Twin, snap fleet.FleetSnapshot) (advice int, holds []bool, err error) {
	rates := tw.projection(snap)
	advice = tw.cfg.MaxInstances
	holds = make([]bool, tw.cfg.MaxInstances)
	for n := tw.cfg.MaxInstances; n >= 1; n-- {
		sc := tw.cfg.Scenario()
		sc.Groups[0].Instances = n
		sup, err := fleet.NewFromSnapshot(sc, snap)
		if err != nil {
			return 0, nil, err
		}
		res, err := fleet.Replay(sup, fleet.ReplayConfig{
			Rates:    rates,
			Seed:     tw.cfg.Seed,
			ReqIters: tw.cfg.ReqIters,
			SLO:      tw.cfg.SLO,
			Scaler:   fixedScaler(n),
		})
		if err != nil {
			return 0, nil, err
		}
		last := res.Points[len(res.Points)-1]
		holds[n-1] = res.Violations == 0 && float64(last.QueueDepth) <= float64(n)*tw.cfg.SLO.QueuePerInstance
		if holds[n-1] {
			advice = n
		}
	}
	return advice, holds, nil
}

// TestTwinEarlyStopMatchesFullHorizon is the differential oracle for
// the early verdict: over every snapshot of a seeded synchronous
// serving run — quiet stretches, a load spike past the whole fleet's
// capacity, a busy stretch, a mid-run budget drop — Advise must return
// the full-horizon search's count, and every candidate 1..Max (not
// only those up to the answer) must get the full-horizon verdict.
func TestTwinEarlyStopMatchesFullHorizon(t *testing.T) {
	const (
		iters  = 10 // 0.25 s service at full frequency: 4 a round per instance
		sloP95 = 1.0
		maxIn  = 4
		rounds = 320
	)
	prof := syntheticProfile(t)
	anchor := time.Unix(0, 0)
	sup, err := fleet.NewScenario(twinScenario(prof, 2))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := fleet.NewHysteresisScaler(fleet.HysteresisConfig{SLO: fleet.SLO{P95: sloP95}, Max: maxIn, DownFraction: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := NewTwin(TwinConfig{
		Scenario:     func() fleet.Scenario { return twinScenario(prof, 0) },
		ReqIters:     iters,
		SLO:          fleet.SLO{P95: sloP95},
		MaxInstances: maxIn,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := &TwinScaler{Inner: inner}
	if err := sup.Autoscale(ts, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sup.SetBudgetAt(anchor.Add(200*time.Second), 50)
	sup.SetBudgetAt(anchor.Add(240*time.Second), 0)
	clk := clock.NewVirtual(anchor)
	gw := NewGateway(clk, 4096)
	srv, err := New(Config{Supervisor: sup, Clock: clk, Gateway: gw, Twin: tw, TwinScaler: ts})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	var someHold, noneHold, capped int
	for r := 0; r < rounds; r++ {
		rate := 1 + rng.Intn(5)
		switch {
		case r >= 100 && r < 108:
			rate = 20 // the spike
		case r >= 150 && r < 190:
			rate = 7 + rng.Intn(4)
		}
		// The snapshot RunRound's synchronous twin is about to advise on.
		snap := sup.StateSnapshot(5)
		if snap.Budget > 0 {
			capped++
		}
		submitSpread(t, clk, gw, anchor, r, rate, iters)
		if err := srv.RunRound(); err != nil {
			t.Fatal(err)
		}

		want, wantHolds, err := adviseFullHorizon(tw, snap)
		if err != nil {
			t.Fatal(err)
		}
		rates := tw.projection(snap)
		for n := 1; n <= maxIn; n++ {
			got, err := tw.holds(snap, rates, n)
			if err != nil {
				t.Fatal(err)
			}
			if got != wantHolds[n-1] {
				t.Fatalf("round %d, candidate %d: early-stopped verdict %v, full-horizon verdict %v", r, n, got, wantHolds[n-1])
			}
		}
		if got, err := tw.Advise(snap); err != nil || got != want {
			t.Fatalf("round %d: Advise = %d, %v; full-horizon search = %d", r, got, err, want)
		}
		if live := ts.Advice(); live != want {
			t.Fatalf("round %d: the serving loop acted on advice %d, full-horizon search = %d", r, live, want)
		}
		if slices.Contains(wantHolds, true) {
			someHold++
		} else {
			noneHold++
		}
	}
	if someHold == 0 || noneHold == 0 || capped == 0 {
		t.Errorf("fixture covers %d snapshots with a holding candidate, %d with none, %d under the budget cap; want all three",
			someHold, noneHold, capped)
	}
	t.Logf("%d snapshots: %d with a holding candidate, %d with none, %d under the cap", rounds, someHold, noneHold, capped)
}

// TestTwinCountersBoundWork pins the work counters and the saving they
// exist to show: replica rounds never exceed candidates × Horizon, and
// on an overloaded snapshot — every candidate fails, most of them
// early — they fall strictly short of it.
func TestTwinCountersBoundWork(t *testing.T) {
	const maxIn, horizon = 4, 8
	prof := syntheticProfile(t)
	tw, err := NewTwin(TwinConfig{
		Scenario:     func() fleet.Scenario { return twinScenario(prof, 0) },
		ReqIters:     10,
		SLO:          fleet.SLO{P95: 0.6},
		MaxInstances: maxIn,
		Horizon:      horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := fleet.FleetSnapshot{
		Quantum: time.Second,
		Groups:  []fleet.GroupSnapshot{{Name: "web", Accepting: 1, RecentArrivals: []float64{1, 1, 1}}},
	}
	n, err := tw.Advise(snap)
	if err != nil {
		t.Fatal(err)
	}
	if a, c, r := tw.Advises(), tw.Candidates(), tw.Rounds(); a != 1 || c != int64(n) || r > c*horizon || r < horizon {
		t.Errorf("quiet snapshot advised %d: advises %d, candidates %d, rounds %d; want 1, %d, and a full horizon for the holder within candidates × %d",
			n, a, c, r, n, horizon)
	}
	c0, r0 := tw.Candidates(), tw.Rounds()
	// 60 arrivals a round against 4 × 4/s of capacity, on top of a
	// standing backlog: nothing the twin may ask for holds.
	snap.Groups[0].RecentArrivals = []float64{60}
	snap.Groups[0].QueueDepth = 40
	if n, err = tw.Advise(snap); err != nil {
		t.Fatal(err)
	}
	c, r := tw.Candidates()-c0, tw.Rounds()-r0
	if n != maxIn || c != maxIn {
		t.Errorf("overloaded snapshot: advice %d after %d candidates, want %d after all %d", n, c, maxIn, maxIn)
	}
	if r >= c*horizon {
		t.Errorf("overloaded snapshot cost %d replica rounds for %d failing candidates; want fewer than %d", r, c, c*horizon)
	}
	if tw.Advises() != 2 {
		t.Errorf("advises = %d, want 2", tw.Advises())
	}
}
