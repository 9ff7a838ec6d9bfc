package fleet

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/calibrate"
	"repro/internal/cluster"
	"repro/internal/platform"
	"repro/internal/workload"
)

// fastSyntheticProfile calibrates the half-cost synthetic variant used
// as the "fast" group of heterogeneous scenarios (service time half the
// default synthetic's, target heart rate double).
func fastSyntheticProfile(t *testing.T) *calibrate.Profile {
	t.Helper()
	prof, err := calibrate.Run(NewSynthetic(SyntheticOptions{BaseCost: 3e6}), calibrate.Options{Set: workload.Training})
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func newFastApp() (workload.App, error) {
	return NewSynthetic(SyntheticOptions{BaseCost: 3e6}), nil
}

func newSlowApp() (workload.App, error) {
	return NewSynthetic(SyntheticOptions{}), nil
}

// runScenarioDiff drives one seeded heterogeneous scenario at the given
// worker count and snapshots its observable state. The scenario covers
// the coupling edges ISSUE 5 calls out on top of PR 4's: two groups
// with distinct service times, targets, and arrival streams; a
// mid-window cluster cap; a cross-group migration (a fast instance
// moves onto a host already holding a slow one, changing the pressure
// vector mid-round); a drain retiring between barriers; a mid-window
// start into the second group; and a hard stop.
func runScenarioDiff(t *testing.T, workers int, split bool) diffResult {
	t.Helper()
	sup, err := NewScenario(Scenario{
		Machines:        8,
		CoresPerMachine: 1,
		Budget:          8 * 190, // binding: full load wants 210 W/host
		Workers:         workers,
		SplitDispatch:   split,
		RecordTrace:     true,
		Groups: []WorkloadGroup{
			{
				Name: "fast", NewApp: newFastApp, Profile: fastSyntheticProfile(t),
				Instances: 6, Pressure: 0.3,
				Load: NewConstantLoad(21, 24).WithRequestIters(10),
			},
			{
				Name: "slow", NewApp: newSlowApp, Profile: syntheticProfile(t),
				Instances: 4, Pressure: 0.1,
				Load: NewSpikeLoad(9, 4, 16, 6, 2).WithRequestIters(10),
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	insts := sup.Instances()

	// The coupling edges, all at mid-window instants.
	sup.SetBudgetAt(time.Unix(2, 0).Add(330*time.Millisecond), 8*175)
	if _, err := sup.StartAt(time.Unix(3, 0).Add(400*time.Millisecond), 1, -1); err != nil {
		t.Fatal(err)
	}
	// Cross-group migration: move a fast instance onto the host of a
	// slow instance (distinct shards, and a changed per-group pressure
	// vector on both hosts).
	var fast, slow *Instance
	for _, inst := range insts {
		switch {
		case fast == nil && inst.grp.index == 0:
			fast = inst
		case slow == nil && inst.grp.index == 1:
			slow = inst
		}
	}
	if fast == nil || slow == nil || fast.HostIndex() == slow.HostIndex() {
		t.Fatalf("scenario placement did not separate groups: fast %v slow %v", fast, slow)
	}
	if err := sup.MigrateAt(time.Unix(4, 0).Add(650*time.Millisecond), fast, slow.HostIndex()); err != nil {
		t.Fatal(err)
	}
	// Drain a loaded slow instance (retirement lands between barriers)
	// and hard-stop a fast one.
	sup.DrainAt(time.Unix(5, 0).Add(250*time.Millisecond), slow)
	sup.StopAt(time.Unix(7, 0).Add(600*time.Millisecond), insts[1])

	stepRounds(t, engineUnder(sup, workers), nil, 10)
	return snapshotDiff(sup)
}

// TestScenarioBitIdenticalAcrossWorkers is the heterogeneous
// differential acceptance test: a two-group (fast/slow synthetic mix)
// scenario with per-group arrival streams, contention-aware
// interference, a mid-window cap, and a cross-group migration must be
// bit-identical between the single-heap refEngine and the production
// engine at Workers=1, 2, and 4 — under join-shortest-queue
// dispatch (every arrival a barrier) and under SplitDispatch (the
// pre-routed fast path, whose per-group RNG draw order is the
// subtlest new invariant).
func TestScenarioBitIdenticalAcrossWorkers(t *testing.T) {
	for _, split := range []bool{false, true} {
		name := "jsq"
		if split {
			name = "split"
		}
		ref := assertEnginesAgree(t, "scenario-"+name, func(workers int) diffResult {
			return runScenarioDiff(t, workers, split)
		})
		if ref.report.Completions == 0 {
			t.Fatalf("%s scenario completed no requests; the differential proves nothing", name)
		}
		if len(ref.report.PerGroup) != 2 || ref.report.PerGroup[0].Completions == 0 || ref.report.PerGroup[1].Completions == 0 {
			t.Fatalf("%s scenario lacks per-group completions: %+v", name, ref.report.PerGroup)
		}
	}
}

// TestScenarioMixedSaturatingOpenLoop holds the engine to the refEngine
// when one group saturates (self-feeding instances, no arrival barriers)
// while the other offers open-loop Poisson work items (every JSQ
// arrival a barrier) — the widest mix of window shapes.
func TestScenarioMixedSaturatingOpenLoop(t *testing.T) {
	ref := assertEnginesAgree(t, "mixed-saturating", func(workers int) diffResult {
		sup, err := NewScenario(Scenario{
			Machines:        6,
			CoresPerMachine: 1,
			Budget:          6 * 190,
			Workers:         workers,
			RecordTrace:     true,
			Groups: []WorkloadGroup{
				{Name: "batch", NewApp: newSlowApp, Profile: syntheticProfile(t),
					Instances: 4, Load: NewSaturatingLoad(2)},
				{Name: "serve", NewApp: newFastApp, Profile: fastSyntheticProfile(t),
					Instances: 2, Load: NewConstantLoad(5, 8).WithRequestIters(10)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sup.SetBudgetAt(time.Unix(1, 0).Add(500*time.Millisecond), 6*170)
		stepRounds(t, engineUnder(sup, workers), nil, 8)
		return snapshotDiff(sup)
	})
	if ref.report.PerGroup[0].Completions == 0 || ref.report.PerGroup[1].Completions == 0 {
		t.Fatalf("both groups must complete work: %+v", ref.report.PerGroup)
	}
}

// TestScenarioMatchesMixOracle is the acceptance criterion: a two-group
// scenario — two synthetic profiles with distinct service times and
// targets — under SplitDispatch and uniform-share interference must
// match the composed per-group M/G/1 oracle (cluster.Oracle.PredictMix)
// within the existing tolerances: per-group mean sojourn within 10%,
// cluster power within 2%.
func TestScenarioMatchesMixOracle(t *testing.T) {
	const (
		rounds     = 2000
		warmup     = 50
		iters      = 20
		fastLambda = 2.4 // requests per 1s quantum, group total
		slowLambda = 1.2
		// Beat durations at the full 2.4 GHz frequency.
		fastService = iters * 3e6 / (2.4 * platform.SpeedPerGHz) // 0.25 s
		slowService = iters * 6e6 / (2.4 * platform.SpeedPerGHz) // 0.5 s
	)
	sup, err := NewScenario(Scenario{
		Machines:        2,
		CoresPerMachine: 2,
		// Open-loop baseline service: knob control would retune effort
		// and break the deterministic-service premise.
		ControlDisabled: true,
		SplitDispatch:   true,
		Interference:    UniformShare{},
		Groups: []WorkloadGroup{
			{Name: "fast", NewApp: newFastApp, Profile: fastSyntheticProfile(t),
				Instances: 2, Load: NewConstantLoad(21, fastLambda).WithRequestIters(iters)},
			{Name: "slow", NewApp: newSlowApp, Profile: syntheticProfile(t),
				Instances: 2, Load: NewConstantLoad(33, slowLambda).WithRequestIters(iters)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct per-group targets follow from the distinct baselines.
	if f, s := sup.TargetOf(0).Goal(), sup.TargetOf(1).Goal(); f <= s {
		t.Fatalf("fast group target %.1f not above slow %.1f", f, s)
	}
	if err := sup.Run(nil, rounds); err != nil {
		t.Fatal(err)
	}

	oracle, err := cluster.NewOracle(2, 2, sup.groups[1].profile, sup.cfg.Power, platform.Frequencies[0])
	if err != nil {
		t.Fatal(err)
	}
	pred, err := oracle.PredictMix([]cluster.GroupStation{
		{Name: "fast", Instances: 2, Lambda: fastLambda, Service: fastService},
		{Name: "slow", Instances: 2, Lambda: slowLambda, Service: slowService},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Stable {
		t.Fatalf("oracle says mix unstable; test scenario is broken: %+v", pred)
	}

	rep := sup.Report()
	if len(rep.PerGroup) != 2 {
		t.Fatalf("want 2 group reports, got %+v", rep.PerGroup)
	}
	total := 0
	for i, gp := range pred.Groups {
		gr := rep.PerGroup[i]
		if gr.Group != gp.Name {
			t.Fatalf("group %d name %q, oracle says %q", i, gr.Group, gp.Name)
		}
		want := int(0.9 * map[string]float64{"fast": fastLambda, "slow": slowLambda}[gp.Name] * rounds)
		if gr.Completions < want {
			t.Fatalf("group %s completed %d requests, want >= %d; load is being dropped", gr.Group, gr.Completions, want)
		}
		total += gr.Completions
		if math.Abs(gr.MeanLatency-gp.MeanSojourn)/gp.MeanSojourn > 0.10 {
			t.Errorf("group %s mean latency = %.4f s, composed M/G/1 predicts %.4f s (Wq %.4f)",
				gr.Group, gr.MeanLatency, gp.MeanSojourn, gp.MeanWait)
		}
	}
	if total != rep.Completions {
		t.Errorf("per-group completions %d do not sum to fleet total %d", total, rep.Completions)
	}
	power := sup.MeanPowerOver(warmup, rounds)
	if math.Abs(power-pred.PowerWatts)/pred.PowerWatts > 0.02 {
		t.Errorf("mean power = %.2f W, composed oracle predicts %.2f W at util %.3f",
			power, pred.PowerWatts, pred.Util)
	}
}

// TestPressureShareDegradesHeterogeneousColocation pins the
// contention-aware default: two co-located instances of *different*
// groups with nonzero pressure serve strictly fewer beats than under
// the uniform-share reference (their effective frequency is degraded),
// while two co-located instances of the *same* group are untouched —
// x264 next to swish++ no longer behaves like two x264s, but two x264s
// still behave exactly like the oracle-validated uniform model.
func TestPressureShareDegradesHeterogeneousColocation(t *testing.T) {
	run := func(itf Interference, hetero bool) Report {
		groups := []WorkloadGroup{
			{Name: "a", NewApp: newSlowApp, Profile: syntheticProfile(t),
				Instances: 1, Pressure: 0.5, Load: NewSaturatingLoad(2)},
			{Name: "b", NewApp: newSlowApp, Profile: syntheticProfile(t),
				Instances: 1, Pressure: 0.5, Load: NewSaturatingLoad(2)},
		}
		if !hetero {
			groups = []WorkloadGroup{{Name: "a", NewApp: newSlowApp, Profile: syntheticProfile(t),
				Instances: 2, Pressure: 0.5, Load: NewSaturatingLoad(2)}}
		}
		sup, err := NewScenario(Scenario{
			Machines:        1,
			CoresPerMachine: 2,
			ControlDisabled: true,
			Interference:    itf,
			Groups:          groups,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sup.Run(nil, 10); err != nil {
			t.Fatal(err)
		}
		return sup.Report()
	}

	uniform := run(UniformShare{}, true)
	contended := run(nil, true) // nil = the PressureShare default
	if contended.Completions >= uniform.Completions {
		t.Errorf("cross-group pressure did not degrade throughput: %d completions vs %d uniform",
			contended.Completions, uniform.Completions)
	}
	if contended.MeanLatency <= uniform.MeanLatency {
		t.Errorf("cross-group pressure did not stretch service: mean latency %.4f vs %.4f uniform",
			contended.MeanLatency, uniform.MeanLatency)
	}

	// Homogeneous co-location: the pressure default must reproduce the
	// uniform reference bit for bit (same-group residents exert no
	// cross-pressure), which is what keeps single-group fleets and every
	// oracle validation exact.
	uniHomo := run(UniformShare{}, false)
	pressHomo := run(nil, false)
	if !reflect.DeepEqual(uniHomo, pressHomo) {
		t.Error("PressureShare diverged from UniformShare for a homogeneous fleet")
	}
}

// TestGroupSLOAttachesAutoscaler pins the WorkloadGroup.SLO wiring: a
// group declaring a p95 objective gets the default hysteresis
// autoscaler at construction and scales up under overload, while a
// group without one stays at its provisioned count; AutoscaleGroup
// with a nil policy detaches the default.
func TestGroupSLOAttachesAutoscaler(t *testing.T) {
	build := func() *Supervisor {
		sup, err := NewScenario(Scenario{
			Machines:        2,
			CoresPerMachine: 2,
			Groups: []WorkloadGroup{
				{Name: "serve", NewApp: newFastApp, Profile: fastSyntheticProfile(t),
					Instances: 1, SLO: SLO{P95: 0.4},
					Load: NewConstantLoad(3, 30).WithRequestIters(10)},
				{Name: "batch", NewApp: newSlowApp, Profile: syntheticProfile(t),
					Instances: 1,
					Load:      NewConstantLoad(4, 30).WithRequestIters(10)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sup
	}
	sup := build()
	if err := sup.Run(nil, 6); err != nil {
		t.Fatal(err)
	}
	last := sup.rounds[len(sup.rounds)-1]
	if last.Groups[0].Accepting <= 1 {
		t.Errorf("SLO group did not scale up under overload: accepting %d", last.Groups[0].Accepting)
	}
	if last.Groups[1].Accepting != 1 {
		t.Errorf("no-SLO group scaled without a policy: accepting %d", last.Groups[1].Accepting)
	}
	if sup.ScaleMoves() == 0 {
		t.Error("auto-attached autoscaler issued no placement actions")
	}

	// Detaching the default restores static provisioning.
	detached := build()
	if err := detached.AutoscaleGroup(0, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := detached.Run(nil, 6); err != nil {
		t.Fatal(err)
	}
	if got := detached.rounds[len(detached.rounds)-1].Groups[0].Accepting; got != 1 {
		t.Errorf("detached group scaled anyway: accepting %d", got)
	}
}

// TestScenarioValidation covers constructor errors, out-of-range
// placement arguments, and group-name lookup.
func TestScenarioValidation(t *testing.T) {
	prof := syntheticProfile(t)
	good := WorkloadGroup{Name: "g", NewApp: newSlowApp, Profile: prof}
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"zero value", Scenario{}},
		{"empty group list", Scenario{Machines: 1}},
		{"zero machines", Scenario{Machines: 0, Groups: []WorkloadGroup{good}}},
		{"missing app and profile", Scenario{Machines: 1, Groups: []WorkloadGroup{{Name: "g"}}}},
		{"missing profile", Scenario{Machines: 1, Groups: []WorkloadGroup{{Name: "g", NewApp: newSlowApp}}}},
		{"duplicate group names", Scenario{Machines: 1, Groups: []WorkloadGroup{good, good}}},
		{"unnamed group", Scenario{Machines: 1, Groups: []WorkloadGroup{{NewApp: newSlowApp, Profile: prof}}}},
	} {
		if _, err := NewScenario(tc.sc); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	sup, err := NewScenario(Scenario{Machines: 1, Groups: []WorkloadGroup{good}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.StartAt(sup.Now(), 3, -1); err == nil {
		t.Error("want error for out-of-range group")
	}
	if _, err := sup.StartAt(sup.Now(), -1, -1); err == nil {
		t.Error("want error for negative group")
	}
	if err := sup.AutoscaleGroup(5, nil, 0); err == nil {
		t.Error("want error autoscaling an unknown group")
	}
	if _, err := sup.StartAt(sup.Now(), 0, 5); err == nil {
		t.Error("want error for out-of-range host")
	}
	inst, err := sup.StartAt(sup.Now(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.MigrateAt(sup.Now(), inst, 9); err == nil {
		t.Error("want error migrating to out-of-range host")
	}
	if names := sup.GroupNames(); len(names) != 1 || names[0] != "g" {
		t.Errorf("group names = %v, want [g]", names)
	}
	if inst.Group() != "g" || inst.grp.index != 0 {
		t.Errorf("instance group = %q/%d, want g/0", inst.Group(), inst.grp.index)
	}
}
