package fleet

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/platform"
)

// countFluidTransitions returns how many fluid entries (State 1) and
// exits (State 0) a trace holds.
func countFluidTransitions(tr []TraceEvent) (enters, exits int) {
	for _, ev := range tr {
		if ev.Kind == TraceFluid {
			if ev.State == 1 {
				enters++
			} else {
				exits++
			}
		}
	}
	return enters, exits
}

// TestFluidMatchesMD1 is the fluid-limit acceptance test against the
// cluster oracle: the same single-instance M/D/1 station the discrete
// engine is validated on (TestEventFleetMatchesMD1), with the fluid
// threshold low enough that queueing bursts actually cross it, must
// still reproduce the Pollaczek–Khinchine mean sojourn within 10% and
// the partial-utilization power within 2% — analytic drains book
// completions at the same instants discrete beats would, so crossing
// in and out of fluid mode must not distort the steady state.
func TestFluidMatchesMD1(t *testing.T) {
	const (
		rounds  = 2000
		warmup  = 50
		lambda  = 1.2
		iters   = 20
		beatSec = 0.025
		service = iters * beatSec // 0.5 s at 2.4 GHz baseline
	)
	sup := newOneGroup(t, Scenario{
		Machines:        1,
		CoresPerMachine: 1,
		ControlDisabled: true,
		Fluid:           3,
		RecordTrace:     true,
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

	enters, exits := countFluidTransitions(sup.Trace())
	if enters == 0 {
		t.Fatalf("fluid mode never engaged: threshold 3 should be crossed by M/D/1 bursts at rho %.2f", pred.Rho)
	}
	if exits < enters-1 {
		t.Errorf("fluid transitions unbalanced: %d enters, %d exits", enters, exits)
	}

	rep := sup.Report()
	if rep.Completions < int(0.9*lambda*rounds) {
		t.Fatalf("only %d completions; fluid mode is dropping load", rep.Completions)
	}
	if math.Abs(rep.MeanLatency-pred.MeanSojourn)/pred.MeanSojourn > 0.10 {
		t.Errorf("fluid mean latency = %.4f s, M/D/1 predicts %.4f s", rep.MeanLatency, pred.MeanSojourn)
	}
	if !(rep.P99Latency > rep.P95Latency && rep.P95Latency > rep.P50Latency) {
		t.Errorf("percentiles not ordered: p50 %.4f p95 %.4f p99 %.4f",
			rep.P50Latency, rep.P95Latency, rep.P99Latency)
	}
	power := sup.MeanPowerOver(warmup, rounds)
	if math.Abs(power-pred.PowerWatts)/pred.PowerWatts > 0.02 {
		t.Errorf("fluid mean power = %.2f W, oracle predicts %.2f W", power, pred.PowerWatts)
	}
}

// fluidRun drives one seeded single-group scenario with the given fluid
// threshold and returns its report plus trace.
func fluidRun(t *testing.T, fluid int, lambda float64, rounds int) (Report, []TraceEvent) {
	t.Helper()
	sup := newOneGroup(t, Scenario{
		Machines:        2,
		CoresPerMachine: 1,
		ControlDisabled: true,
		Fluid:           fluid,
		RecordTrace:     true,
	}, newSlowApp, syntheticProfile(t))
	startN(t, sup, 2)
	gen := NewConstantLoad(9, lambda).WithRequestIters(10)
	if err := sup.Run(gen, rounds); err != nil {
		t.Fatal(err)
	}
	return sup.Report(), sup.Trace()
}

// TestFluidCloseToDiscrete holds the hybrid engine to its approximation
// contract: under heavy load (deep queues, fluid engaged most of the
// time) the fluid run's steady-state observables must track the pure
// discrete run of the same seeded scenario closely — identical
// completion counts and near-identical latency and energy, because the
// analytic drain rate is measured from the same deterministic beats it
// replaces.
func TestFluidCloseToDiscrete(t *testing.T) {
	const rounds = 400
	const lambda = 6.5 // per instance: ~0.81 rho at 0.25 s service
	discrete, _ := fluidRun(t, 0, lambda, rounds)
	fluid, tr := fluidRun(t, 4, lambda, rounds)

	if enters, _ := countFluidTransitions(tr); enters == 0 {
		t.Fatalf("fluid mode never engaged at rho ~0.8 with threshold 4")
	}
	if d, f := discrete.Completions, fluid.Completions; math.Abs(float64(d-f)) > 0.02*float64(d) {
		t.Errorf("completions diverged: discrete %d vs fluid %d", d, f)
	}
	if d, f := discrete.MeanLatency, fluid.MeanLatency; math.Abs(d-f)/d > 0.05 {
		t.Errorf("mean latency diverged: discrete %.4f s vs fluid %.4f s", d, f)
	}
	if d, f := discrete.TotalEnergyJ, fluid.TotalEnergyJ; math.Abs(d-f)/d > 0.02 {
		t.Errorf("energy diverged: discrete %.1f J vs fluid %.1f J", d, f)
	}
}

// runFluidDiff drives the engine differential scenario (refWorkers =
// the refEngine) with fluid mode on: heavy join-shortest-queue load
// (every arrival a barrier) over a binding budget, plus every coupling
// edge that forces a fluid exit — a mid-window cap (DVFS reassignment),
// a cross-shard migration, a drain, and a hard stop.
func runFluidDiff(t *testing.T, workers int) diffResult {
	t.Helper()
	const machines = 8
	sup := newOneGroup(t, Scenario{
		Machines:        machines,
		CoresPerMachine: 1,
		Budget:          machines * 190,
		Workers:         workers,
		Fluid:           4,
		RecordTrace:     true,
	}, newSlowApp, syntheticProfile(t))
	insts := startN(t, sup, machines)
	gen := NewConstantLoad(13, 44).WithRequestIters(10)

	sup.SetBudgetAt(time.Unix(2, 0).Add(330*time.Millisecond), machines*175)
	if err := sup.MigrateAt(time.Unix(4, 0).Add(650*time.Millisecond), insts[1], (insts[1].HostIndex()+1)%machines); err != nil {
		t.Fatal(err)
	}
	sup.DrainAt(time.Unix(5, 0).Add(250*time.Millisecond), insts[0])
	sup.StopAt(time.Unix(7, 0).Add(600*time.Millisecond), insts[2])

	stepRounds(t, engineUnder(sup, workers), gen, 10)
	return snapshotDiff(sup)
}

// TestFluidBitIdenticalAcrossWorkers is the fluid determinism
// acceptance test: fluid drains happen at the same canonical instants
// on the refEngine and in production (global events on the single heap,
// window barriers on shards), so a fluid run — including forced exits
// through migration, drain, stop, and DVFS changes — must be
// bit-identical between the refEngine and the production engine at
// Workers=1, 2, and 4.
func TestFluidBitIdenticalAcrossWorkers(t *testing.T) {
	ref := assertEnginesAgree(t, "fluid", func(workers int) diffResult {
		return runFluidDiff(t, workers)
	})
	if enters, _ := countFluidTransitions(ref.trace); enters == 0 {
		t.Fatalf("differential scenario never engaged fluid mode; thresholds need retuning")
	}
}

// TestFluidBenchLegEngagesFluid pins what the fluid A/B benchmark
// measures: the warmed fluid leg must actually have instances on the
// fluid timeline, or the pair is two discrete runs under a fluid name.
func TestFluidBenchLegEngagesFluid(t *testing.T) {
	if sup, _ := fluidScaleFleet(t, syntheticProfile(t), 128, 4); fluidInstances(sup) == 0 {
		t.Error("the fluid leg's scenario ended its warm-up with no instance in fluid mode")
	}
}

// FuzzFluidConservation holds the hybrid engine to the request and
// energy conservation invariants under arbitrary thresholds and loads:
// every arrival is exactly one of completed, aborted, or still queued;
// per-host energy is non-negative and sums to the fleet total; and the
// run is bit-identical to the refEngine — all regardless of where the
// fluid threshold lands relative to the realized queue depths.
func FuzzFluidConservation(f *testing.F) {
	f.Add(uint8(3), uint8(26), uint8(1))
	f.Add(uint8(1), uint8(40), uint8(0))
	f.Add(uint8(200), uint8(10), uint8(2))
	f.Fuzz(func(t *testing.T, fluid, load, seed uint8) {
		lambda := 1 + float64(load%64)
		run := func(workers int) (*Supervisor, diffResult) {
			sup := newOneGroup(t, Scenario{
				Machines:        3,
				CoresPerMachine: 1,
				Budget:          3 * 190,
				Workers:         workers,
				Fluid:           int(fluid),
				RecordTrace:     true,
			}, newSlowApp, syntheticProfile(t))
			startN(t, sup, 3)
			stepRounds(t, engineUnder(sup, workers), NewConstantLoad(int64(seed)+7, lambda).WithRequestIters(10), 5)
			return sup, snapshotDiff(sup)
		}
		sup, ref := run(refWorkers)
		checkFaultInvariants(t, sup, ref)
		for _, workers := range []int{1, 2} {
			prodSup, prod := run(workers)
			checkFaultInvariants(t, prodSup, prod)
			assertDiffEqual(t, "fluid-fuzz-engines", ref, prod, refWorkers, workers)
		}
	})
}
