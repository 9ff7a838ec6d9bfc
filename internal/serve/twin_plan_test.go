package serve

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/calibrate"
	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/workload"
)

// serveTwinScenario is the serve_twin benchmark's fleet: one host of
// eight cores, default synthetic instances under control, two shards.
func serveTwinScenario(prof *calibrate.Profile, instances int) fleet.Scenario {
	return fleet.Scenario{
		Machines:        1,
		CoresPerMachine: 8,
		Workers:         2,
		Groups: []fleet.WorkloadGroup{{
			Name:      "web",
			NewApp:    func() (workload.App, error) { return fleet.NewSynthetic(fleet.SyntheticOptions{}), nil },
			Profile:   prof,
			Instances: instances,
		}},
	}
}

// newServeTwin is the serve_twin benchmark's twin over serveTwinScenario.
func newServeTwin(tb testing.TB, prof *calibrate.Profile) *Twin {
	tb.Helper()
	tw, err := NewTwin(TwinConfig{
		Scenario:     func() fleet.Scenario { return serveTwinScenario(prof, 0) },
		ReqIters:     10,
		SLO:          fleet.SLO{P95: 1},
		MaxInstances: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return tw
}

// freshSearch is the twin's search as it ran before it planned: every
// candidate built by its own scenario factory call and NewFromSnapshot
// and replayed with fleet.Replay. It returns the advice, each replayed
// candidate's result, and the rounds they cost.
func freshSearch(tb testing.TB, tw *Twin, snap fleet.FleetSnapshot) (advice int, results []*fleet.ReplayResult, rounds int) {
	tb.Helper()
	rates := tw.projection(snap)
	for n := 1; n <= tw.cfg.MaxInstances; n++ {
		sc := tw.cfg.Scenario()
		sc.Groups[0].Instances = n
		sup, err := fleet.NewFromSnapshot(sc, snap)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := fleet.Replay(sup, fleet.ReplayConfig{
			Rates:           rates,
			Seed:            tw.cfg.Seed,
			ReqIters:        tw.cfg.ReqIters,
			SLO:             tw.cfg.SLO,
			Scaler:          fixedScaler(n),
			StopAtViolation: true,
		})
		if err != nil {
			tb.Fatal(err)
		}
		results = append(results, res)
		rounds += len(res.Points)
		last := res.Points[len(res.Points)-1]
		if res.Violations == 0 && float64(last.QueueDepth) <= float64(n)*tw.cfg.SLO.QueuePerInstance {
			return n, results, rounds
		}
	}
	return tw.cfg.MaxInstances, results, rounds
}

// TestTwinPlanMatchesFreshReplicas holds resolve-once and realize-once
// to the search they replace, on the snapshots of a warmed serve_twin
// fleet serving the benchmark's load (26 a round, 30 in spikes) with a
// lull: per snapshot, Advise must return the fresh search's count after
// the same number of candidates and replica rounds, and every candidate
// the plan replays must produce the fresh replica's ReplayResult
// exactly.
func TestTwinPlanMatchesFreshReplicas(t *testing.T) {
	const warm, snapshots = 20, 60
	prof := syntheticProfile(t)
	anchor := time.Unix(0, 0)
	sup, err := fleet.NewScenario(serveTwinScenario(prof, 8))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := fleet.NewHysteresisScaler(fleet.HysteresisConfig{SLO: fleet.SLO{P95: 1}, Max: 8})
	if err != nil {
		t.Fatal(err)
	}
	live := newServeTwin(t, prof)
	ts := &TwinScaler{Inner: inner}
	if err := sup.Autoscale(ts, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual(anchor)
	gw := NewGateway(clk, 4096)
	adm, err := NewAdmission([]AdmissionConfig{{MaxQueuePerInstance: 64}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Supervisor: sup, Clock: clk, Gateway: gw, Admission: adm, Twin: live, TwinScaler: ts})
	if err != nil {
		t.Fatal(err)
	}
	tw := newServeTwin(t, prof)
	advices := map[int]bool{}
	for r := 0; r < warm+snapshots; r++ {
		rate := 26
		switch {
		case r%25 >= 22:
			rate = 30
		case r >= 45 && r < 60:
			rate = 8 // a lull, so some searches stop short of the maximum
		}
		submitSpread(t, clk, gw, anchor, r, rate, 10)
		if err := srv.RunRound(); err != nil {
			t.Fatal(err)
		}
		if r < warm {
			continue
		}
		snap := sup.StateSnapshot(5)
		want, results, rounds := freshSearch(t, tw, snap)
		c0, r0 := tw.Candidates(), tw.Rounds()
		got, err := tw.Advise(snap)
		if err != nil {
			t.Fatal(err)
		}
		if c, rr := tw.Candidates()-c0, tw.Rounds()-r0; got != want || c != int64(len(results)) || rr != int64(rounds) {
			t.Fatalf("round %d: plan search advised %d after %d candidates and %d rounds; fresh search %d after %d and %d",
				r, got, c, rr, want, len(results), rounds)
		}
		plan, err := fleet.PlanReplicas(tw.cfg.Scenario(), snap)
		if err != nil {
			t.Fatal(err)
		}
		rates := tw.projection(snap)
		for i, res := range results {
			n := i + 1
			pr, err := plan.Replay(n, fleet.ReplayConfig{
				Rates:           rates,
				Seed:            tw.cfg.Seed,
				ReqIters:        tw.cfg.ReqIters,
				SLO:             tw.cfg.SLO,
				Scaler:          fixedScaler(n),
				StopAtViolation: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pr, res) {
				t.Fatalf("round %d, candidate %d: plan replica's result differs from a fresh replica's\nplan:  %+v\nfresh: %+v", r, n, pr, res)
			}
		}
		advices[want] = true
	}
	if len(advices) < 2 {
		t.Errorf("every snapshot advised %v: the fixture does not move the search", advices)
	}
	t.Logf("%d snapshots, advice counts seen: %v", snapshots, advices)
}

// TestAsyncTwinConcurrentWithServing runs the deployment shape on one
// scenario value: the live fleet and the async twin's factory share it
// (and so its Groups slice), the twin plans and replays on its own
// goroutine while the serving loop steps the live fleet, and the
// scenario must come out unwritten. Run it under -race.
func TestAsyncTwinConcurrentWithServing(t *testing.T) {
	prof := syntheticProfile(t)
	sc := serveTwinScenario(prof, 4)
	sup, err := fleet.NewScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := fleet.NewHysteresisScaler(fleet.HysteresisConfig{SLO: fleet.SLO{P95: 1}, Max: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := &TwinScaler{Inner: inner}
	twin, err := NewTwin(TwinConfig{
		Scenario:     func() fleet.Scenario { return sc },
		ReqIters:     10,
		SLO:          fleet.SLO{P95: 1},
		MaxInstances: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Autoscale(ts, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	anchor := time.Unix(0, 0)
	clk := clock.NewVirtual(anchor)
	gw := NewGateway(clk, 4096)
	srv, err := New(Config{Supervisor: sup, Clock: clk, Gateway: gw, Twin: twin, TwinScaler: ts, AsyncTwin: true})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 30; r++ {
		submitSpread(t, clk, gw, anchor, r, 20, 10)
		if err := srv.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	st := srv.Stats()
	if st.TwinAdvises == 0 || st.TwinErrors != 0 || srv.Completions() == 0 {
		t.Errorf("stats %+v: want advices, no twin errors, and completions", st)
	}
	if sc.Groups[0].Instances != 4 {
		t.Errorf("the twin wrote Instances = %d into the shared scenario, want 4", sc.Groups[0].Instances)
	}
}

// adviseAllocsSnapshot is a serve_twin snapshot at the benchmark's
// peak: every instance accepting, a standing backlog, and a recent
// trace that makes the search walk every candidate.
func adviseAllocsSnapshot() fleet.FleetSnapshot {
	return fleet.FleetSnapshot{
		Round:   60,
		Quantum: time.Second,
		Groups: []fleet.GroupSnapshot{{
			Name:           "web",
			Accepting:      8,
			QueueDepth:     12,
			RecentArrivals: []float64{26, 26, 30, 30, 26},
		}},
	}
}

// TestTwinAdviseAllocs holds what one advice costs to construct: the
// search over adviseAllocsSnapshot, which replays all eight candidates
// (ten replica rounds). Measured with go1.24.0 on linux/amd64: 3,866
// allocations per advice (3,986 under -race) when every candidate
// called the scenario factory, resolved its groups and seeded its own
// trace; 2,874, with or without -race, since the search plans once. The
// count is deterministic because the replays are and
// testing.AllocsPerRun pins GOMAXPROCS to 1. The ceiling is 10 % over it.
func TestTwinAdviseAllocs(t *testing.T) {
	const ceiling = 3161
	tw := newServeTwin(t, syntheticProfile(t))
	snap := adviseAllocsSnapshot()
	var adviseErr error
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tw.Advise(snap); err != nil {
			adviseErr = err
		}
	})
	if adviseErr != nil {
		t.Fatal(adviseErr)
	}
	t.Logf("%.0f allocs/advice", allocs)
	if allocs > ceiling {
		t.Errorf("one advice allocates %.0f times, ceiling %d", allocs, ceiling)
	}
	if c, r := tw.Candidates()/tw.Advises(), tw.Rounds()/tw.Advises(); c != 8 || r != 10 {
		t.Errorf("the fixture replays %d candidates over %d rounds per advice, want the 8 over 10 it was measured on", c, r)
	}
}
