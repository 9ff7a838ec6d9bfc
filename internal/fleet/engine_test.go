package fleet

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/platform"
)

// TestEventFleetMatchesMD1 validates the event timeline against the
// cluster oracle's event-time queueing surface: seeded Poisson arrivals
// of fixed-size work items through a single open-loop instance form an
// M/D/1 station, so measured mean sojourn latency must match the
// Pollaczek–Khinchine closed form, measured power must match the
// partial-utilization prediction, and the latency percentiles must show
// real (nonzero) queueing delay.
func TestEventFleetMatchesMD1(t *testing.T) {
	const (
		rounds  = 2000
		warmup  = 50
		lambda  = 1.2 // requests per 1s quantum = per second
		iters   = 20  // beats per work item
		beatSec = 0.025
		service = iters * beatSec // 0.5 s at 2.4 GHz baseline
	)
	sup := newOneGroup(t, Scenario{
		Machines:        1,
		CoresPerMachine: 1,
		// Open-loop baseline service: knob control would retune effort
		// and break the deterministic-service premise of M/D/1.
		ControlDisabled: true,
	}, newSlowApp, syntheticProfile(t))
	startN(t, sup, 1)
	gen := NewConstantLoad(21, lambda).WithRequestIters(iters)
	if err := sup.Run(gen, rounds); err != nil {
		t.Fatal(err)
	}

	oracle, err := cluster.NewOracle(1, 1, sup.groups[0].profile, sup.cfg.Power, platform.Frequencies[0])
	if err != nil {
		t.Fatal(err)
	}
	pred, err := oracle.PredictQueueing(1, lambda, service)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Stable {
		t.Fatalf("oracle says rho %.2f unstable; test scenario is broken", pred.Rho)
	}

	rep := sup.Report()
	if rep.Completions < int(0.9*lambda*rounds) {
		t.Fatalf("only %d completions; generator or engine is dropping load", rep.Completions)
	}
	// Mean sojourn (wait + service) within 10% of Pollaczek–Khinchine.
	if math.Abs(rep.MeanLatency-pred.MeanSojourn)/pred.MeanSojourn > 0.10 {
		t.Errorf("mean latency = %.4f s, M/D/1 predicts %.4f s (Wq %.4f + S %.4f)",
			rep.MeanLatency, pred.MeanSojourn, pred.MeanWait, service)
	}
	// Percentiles expose genuine queueing: the median request waits at
	// least its own service time, and the tail strictly dominates it.
	if rep.P50Latency < service {
		t.Errorf("p50 latency %.4f s below the service time %.4f s", rep.P50Latency, service)
	}
	if !(rep.P99Latency > rep.P95Latency && rep.P95Latency > rep.P50Latency) {
		t.Errorf("percentiles not ordered: p50 %.4f p95 %.4f p99 %.4f",
			rep.P50Latency, rep.P95Latency, rep.P99Latency)
	}
	if rep.P95Latency <= service {
		t.Errorf("p95 latency %.4f s shows no queueing above the service time %.4f s", rep.P95Latency, service)
	}
	// Partial-utilization power matches the oracle's event-time form.
	power := sup.MeanPowerOver(warmup, rounds)
	if math.Abs(power-pred.PowerWatts)/pred.PowerWatts > 0.02 {
		t.Errorf("mean power = %.2f W, oracle predicts %.2f W at util %.2f",
			power, pred.PowerWatts, pred.Util)
	}
	// Per-instance report agrees with the aggregate for a 1-instance fleet.
	if len(rep.PerInstance) != 1 || rep.PerInstance[0].Completions != rep.Completions {
		t.Errorf("per-instance report %+v inconsistent with %d completions", rep.PerInstance, rep.Completions)
	}
}

// TestCapEventLandsMidQuantum is the acceptance check for asynchronous
// power capping: a budget change scheduled mid-quantum must re-divide
// the cluster budget at that exact virtual instant — strictly before
// the next periodic arbiter tick — and the round's energy must blend
// the pre- and post-cap regimes.
func TestCapEventLandsMidQuantum(t *testing.T) {
	const budget = 360.0
	sup := newOneGroup(t, Scenario{Machines: 2, CoresPerMachine: 2, RecordTrace: true}, newSlowApp, syntheticProfile(t))
	startN(t, sup, 8)
	gen := NewSaturatingLoad(2)
	if err := sup.Run(gen, 2); err != nil {
		t.Fatal(err)
	}
	capAt := sup.Now().Add(500 * time.Millisecond) // strictly inside the next quantum
	sup.SetBudgetAt(capAt, budget)
	rs, err := sup.Step(gen)
	if err != nil {
		t.Fatal(err)
	}
	// One more round so the next periodic arbiter tick (the quantum
	// boundary) is on the trace to compare against.
	rs2, err := sup.Step(gen)
	if err != nil {
		t.Fatal(err)
	}

	// The cap landed at its instant, and host frequencies changed at
	// that same instant — not at the next tick, not at the boundary.
	trace := sup.Trace()
	var capSeen bool
	var stateAt, nextTickAt time.Time
	for _, ev := range trace {
		switch {
		case ev.Kind == TraceCap && ev.At.Equal(capAt):
			capSeen = true
		case capSeen && ev.Kind == TraceState && stateAt.IsZero():
			stateAt = ev.At
		case capSeen && ev.Kind == TraceArbiter && ev.At.After(capAt) && nextTickAt.IsZero():
			nextTickAt = ev.At
		}
	}
	if !capSeen {
		t.Fatalf("no cap trace event at %v", capAt)
	}
	if !stateAt.Equal(capAt) {
		t.Fatalf("first host state change after the cap at %v, want exactly %v (before the next arbiter tick)", stateAt, capAt)
	}
	if nextTickAt.IsZero() || !stateAt.Before(nextTickAt) {
		t.Fatalf("state change at %v did not precede the next arbiter tick at %v", stateAt, nextTickAt)
	}
	for _, h := range sup.Hosts() {
		if h.State() == 0 {
			t.Errorf("host %d still at full frequency after the cap landed", h.Index())
		}
	}
	// The round's power blends half a quantum uncapped (~420 W) with
	// half a quantum capped (< budget): strictly between the two
	// regimes, which a boundary-quantized cap cannot produce.
	uncapped := 2 * sup.cfg.Power.Power(platform.Frequencies[0], 1)
	if rs.PowerWatts >= uncapped-1 || rs.PowerWatts <= budget {
		t.Errorf("mid-cap round power %.1f W, want strictly between the capped budget %.0f W and uncapped %.1f W",
			rs.PowerWatts, budget, uncapped)
	}
	// From the next full round on, the cap holds.
	if rs2.PowerWatts > budget+1e-9 {
		t.Errorf("post-cap round power %.1f W exceeds budget %.0f W", rs2.PowerWatts, budget)
	}
}

// TestEventFleetDeterministic runs a full event-timeline scenario —
// Poisson work items, a mid-quantum cap event, a drain, and a migration
// — twice and requires bit-identical rounds, reports, and traces.
func TestEventFleetDeterministic(t *testing.T) {
	run := func() ([]RoundStats, Report, []TraceEvent) {
		sup := newOneGroup(t, Scenario{
			Machines:        2,
			CoresPerMachine: 2,
			Budget:          500,
			RecordTrace:     true,
		}, newSlowApp, syntheticProfile(t))
		insts := startN(t, sup, 6)
		gen := NewSpikeLoad(7, 4, 20, 10, 3).WithRequestIters(10)
		sup.SetBudgetAt(time.Unix(3, 0).Add(250*time.Millisecond), 400)
		for r := 0; r < 20; r++ {
			switch r {
			case 8:
				sup.DrainAt(sup.Now(), insts[0])
			case 12:
				if err := sup.MigrateAt(sup.Now(), insts[1], 1-insts[1].HostIndex()); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sup.Step(gen); err != nil {
				t.Fatal(err)
			}
		}
		return sup.rounds, sup.Report(), sup.Trace()
	}
	r1, rep1, tr1 := run()
	r2, rep2, tr2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("two identically seeded event-fleet runs diverged (rounds)")
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatal("two identically seeded event-fleet reports diverged")
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatal("two identically seeded event-fleet traces diverged")
	}
	if len(tr1) == 0 {
		t.Fatal("trace empty despite RecordTrace")
	}
}

// TestArbiterLeftoverRotates is the fairness check: with hosts in the
// same deficit bucket and budget for exactly one extra DVFS step, the
// host receiving the final step must rotate across consecutive arbiter
// ticks instead of parking on the lowest index.
func TestArbiterLeftoverRotates(t *testing.T) {
	model := platform.DefaultPowerModel()
	lowest := len(platform.Frequencies) - 1
	floor := 2 * model.Power(platform.Frequencies[lowest], 1)
	step := model.Power(platform.Frequencies[lowest-1], 1) - model.Power(platform.Frequencies[lowest], 1)
	// Weightless demands skip the proportional pass; the budget fits
	// the floor plus exactly one step.
	demands := []hostDemand{{util: 1, deficit: 0.4}, {util: 1, deficit: 0.4}}
	arb := NewArbiter(model, floor+step*1.5)

	holder := func(states []int) int {
		for i, st := range states {
			if st != lowest {
				return i
			}
		}
		return -1
	}
	var seq []int
	for tick := 0; tick < 4; tick++ {
		states := arb.assign(demands)
		h := holder(states)
		if h < 0 {
			t.Fatalf("tick %d: no host received the extra step (states %v)", tick, states)
		}
		seq = append(seq, h)
	}
	want := []int{0, 1, 0, 1}
	if !reflect.DeepEqual(seq, want) {
		t.Errorf("extra-step holder per tick = %v, want rotation %v", seq, want)
	}

	// Bucket priority still dominates rotation: a host with a clearly
	// larger deficit keeps the step on every tick.
	demands[1].deficit = 0.9
	for tick := 0; tick < 3; tick++ {
		if h := holder(arb.assign(demands)); h != 1 {
			t.Fatalf("tick %d: higher-deficit host lost the extra step to rotation (holder %d)", tick, h)
		}
	}
}
