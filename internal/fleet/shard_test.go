package fleet

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// diffResult is everything observable about a finished run that the
// engine must reproduce bit-identically from the single-heap refEngine
// and at every Workers value: per-round statistics, the aggregate
// report, per-host energy and DVFS state, and per-instance terminal
// state. Trace events are compared canonically sorted — the two
// interleave simultaneous events of different hosts in different (but
// individually deterministic) orders, so the trace is equal as a
// multiset but not position by position.
type diffResult struct {
	rounds []RoundStats
	report Report
	energy []float64
	states []int
	insts  []instState
	trace  []TraceEvent
}

type instState struct {
	Host      int
	Retired   bool
	Completed int
}

// refWorkers, passed as a differential run's worker count, selects the
// single-heap refEngine instead of the production engine.
const refWorkers = 0

func engineName(workers int) string {
	if workers == refWorkers {
		return "refEngine"
	}
	return fmt.Sprintf("Workers=%d", workers)
}

// stepper is what a differential run advances: the production
// Supervisor, or the refEngine attached to one.
type stepper interface {
	Step(*LoadGen) (RoundStats, error)
}

// diffInlineBudget, when non-zero, replaces inlineEventBudget on every
// supervisor a differential run builds (they all pass through
// engineUnder). assertEnginesAgree sets it so each scenario covers the
// three ways a window can run: finished inline, interrupted mid-shard
// and resumed on the pool, fanned out at once.
var diffInlineBudget int

func engineUnder(sup *Supervisor, workers int) stepper {
	if workers == refWorkers {
		return newRefEngine(sup)
	}
	sup.inlineBudget = diffInlineBudget
	return sup
}

func stepRounds(t *testing.T, eng stepper, gen *LoadGen, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		if _, err := eng.Step(gen); err != nil {
			t.Fatal(err)
		}
	}
}

// snapshotDiff captures a finished run's observables. Traces are
// canonicalized with the exported SortTrace — the same ordering
// WriteTraceCSV applies, so what the tests compare is exactly what
// users diff.
func snapshotDiff(sup *Supervisor) diffResult {
	res := diffResult{rounds: sup.rounds, report: sup.Report(), trace: sup.Trace()}
	for _, h := range sup.Hosts() {
		res.energy = append(res.energy, h.Energy())
		res.states = append(res.states, h.State())
	}
	for _, inst := range sup.Instances() {
		res.insts = append(res.insts, instState{Host: inst.HostIndex(), Retired: inst.Retired(), Completed: len(inst.allLats)})
	}
	SortTrace(res.trace)
	return res
}

// assertEnginesAgree runs one seeded scenario on the refEngine and on
// the production engine at Workers 1, 2, and 4, requires all four to be
// bit-identical, and returns the reference result. These fleets rarely
// hold inlineEventBudget events in a window, so Workers 2 and 4 run
// again with the budget forced to 1 (every multi-shard window fans out,
// its first shard interrupted after one event), to 7 (interrupted
// mid-shard) and to unbounded (never fans out).
func assertEnginesAgree(t *testing.T, name string, run func(workers int) diffResult) diffResult {
	t.Helper()
	ref := run(refWorkers)
	for _, workers := range []int{1, 2, 4} {
		assertDiffEqual(t, name, ref, run(workers), refWorkers, workers)
	}
	defer func() { diffInlineBudget = 0 }()
	for _, budget := range []int{1, 7, math.MaxInt} {
		diffInlineBudget = budget
		for _, workers := range []int{2, 4} {
			assertDiffEqual(t, fmt.Sprintf("%s/budget=%d", name, budget), ref, run(workers), refWorkers, workers)
		}
	}
	return ref
}

// runDiffScenario drives one seeded scenario at the given worker count
// (refWorkers = the refEngine) and snapshots its observable state. The
// scenario covers every coupling edge of the engine: a cluster-wide cap
// landing mid-window, a migration whose source and destination live in
// different shards, a drain whose retirement lands between barriers
// (forcing the serial-window fallback), a mid-window start, and a
// mid-window hard stop — all over open-loop Poisson work items (each
// join-shortest-queue arrival is a barrier) under a binding budget.
func runDiffScenario(t *testing.T, machines, instances, workers int, split bool, gen func() *LoadGen, rounds int) diffResult {
	t.Helper()
	sup := newDiffScenario(t, machines, instances, workers, split)
	stepRounds(t, engineUnder(sup, workers), gen(), rounds)
	return snapshotDiff(sup)
}

// newDiffScenario builds runDiffScenario's fleet with its coupling edges
// scheduled, unstepped.
func newDiffScenario(t *testing.T, machines, instances, workers int, split bool) *Supervisor {
	t.Helper()
	sup := newOneGroup(t, Scenario{
		Machines:        machines,
		CoresPerMachine: 1,
		Budget:          float64(machines) * 190, // binding: full load wants 210 W/host
		Workers:         workers,
		SplitDispatch:   split,
		RecordTrace:     true,
	}, newSlowApp, syntheticProfile(t))
	insts := startN(t, sup, instances)

	// The coupling edges, all at mid-window instants.
	sup.SetBudgetAt(time.Unix(2, 0).Add(330*time.Millisecond), float64(machines)*175)
	if _, err := sup.StartAt(time.Unix(3, 0).Add(400*time.Millisecond), -1); err != nil {
		t.Fatal(err)
	}
	// Cross-shard migration: source and destination hosts are distinct
	// shards by construction.
	if err := sup.MigrateAt(time.Unix(4, 0).Add(650*time.Millisecond), insts[1], (insts[1].HostIndex()+1)%machines); err != nil {
		t.Fatal(err)
	}
	// Drain a loaded instance: its retirement lands between barriers,
	// at the data-dependent instant its queue empties.
	sup.DrainAt(time.Unix(5, 0).Add(250*time.Millisecond), insts[0])
	sup.StopAt(time.Unix(7, 0).Add(600*time.Millisecond), insts[2])
	return sup
}

func assertDiffEqual(t *testing.T, name string, ref, got diffResult, refW, gotW int) {
	t.Helper()
	refName, gotName := engineName(refW), engineName(gotW)
	if !reflect.DeepEqual(ref.rounds, got.rounds) {
		for i := range ref.rounds {
			if i < len(got.rounds) && !reflect.DeepEqual(ref.rounds[i], got.rounds[i]) {
				t.Fatalf("%s: round %d diverged between %s and %s:\n  %+v\nvs\n  %+v",
					name, i, refName, gotName, ref.rounds[i], got.rounds[i])
			}
		}
		t.Fatalf("%s: rounds diverged between %s and %s", name, refName, gotName)
	}
	if !reflect.DeepEqual(ref.report, got.report) {
		t.Fatalf("%s: reports diverged between %s and %s:\n  %+v\nvs\n  %+v",
			name, refName, gotName, ref.report, got.report)
	}
	if !reflect.DeepEqual(ref.energy, got.energy) || !reflect.DeepEqual(ref.states, got.states) {
		t.Fatalf("%s: host energy/state diverged between %s and %s", name, refName, gotName)
	}
	if !reflect.DeepEqual(ref.insts, got.insts) {
		t.Fatalf("%s: instance terminal state diverged between %s and %s:\n  %+v\nvs\n  %+v",
			name, refName, gotName, ref.insts, got.insts)
	}
	if !reflect.DeepEqual(ref.trace, got.trace) {
		t.Fatalf("%s: canonically sorted traces diverged between %s and %s (%d vs %d events)",
			name, refName, gotName, len(ref.trace), len(got.trace))
	}
}

// TestShardedEngineBitIdenticalJSQ is the differential acceptance test:
// a seeded 32-host run with join-shortest-queue dispatch — every
// arrival a barrier — including a mid-window cap, a cross-shard
// migration, a drain retiring between barriers, a mid-window start and
// stop, must be bit-identical between the single-heap refEngine and
// the production engine at Workers=1, 2, and 4.
func TestShardedEngineBitIdenticalJSQ(t *testing.T) {
	gen := func() *LoadGen { return NewConstantLoad(21, 40).WithRequestIters(10) }
	ref := assertEnginesAgree(t, "jsq-32-host", func(workers int) diffResult {
		return runDiffScenario(t, 32, 24, workers, false, gen, 10)
	})
	if ref.report.Completions == 0 {
		t.Fatal("scenario completed no requests; the differential proves nothing")
	}
}

// TestShardedEngineBitIdenticalSplit exercises the SplitDispatch
// per-shard fast path: arrivals are pre-routed at window starts and
// execute as shard-local events, so windows span whole arbiter
// intervals — it must still agree with the refEngine bit for bit,
// including the seeded RNG draw sequence.
func TestShardedEngineBitIdenticalSplit(t *testing.T) {
	gen := func() *LoadGen { return NewConstantLoad(9, 24).WithRequestIters(10) }
	ref := assertEnginesAgree(t, "split-8-host", func(workers int) diffResult {
		return runDiffScenario(t, 8, 10, workers, true, gen, 10)
	})
	if ref.report.Completions == 0 {
		t.Fatal("scenario completed no requests; the differential proves nothing")
	}
}

// TestShardedEngineBitIdenticalSaturated covers the saturating
// closed-loop regime — self-feeding instances, no arrival barriers, the
// widest parallel windows — plus a spike-load variant with an arbiter
// interval finer than the quantum (more ticks, more barriers).
func TestShardedEngineBitIdenticalSaturated(t *testing.T) {
	gen := func() *LoadGen { return NewSaturatingLoad(2) }
	assertEnginesAgree(t, "saturated-16-host", func(workers int) diffResult {
		return runDiffScenario(t, 16, 24, workers, false, gen, 8)
	})

	assertEnginesAgree(t, "spike-subquantum-ticks", func(workers int) diffResult {
		sup := newOneGroup(t, Scenario{
			Machines:        4,
			CoresPerMachine: 2,
			Budget:          700,
			ArbiterInterval: 250 * time.Millisecond,
			Workers:         workers,
			RecordTrace:     true,
		}, newSlowApp, syntheticProfile(t))
		insts := startN(t, sup, 10)
		sup.DrainAt(time.Unix(3, 0).Add(700*time.Millisecond), insts[3])
		stepRounds(t, engineUnder(sup, workers), NewSpikeLoad(7, 6, 24, 8, 2).WithRequestIters(10), 12)
		return snapshotDiff(sup)
	})
}

// runFaultDiffScenario drives the fault-laden two-group scenario at the
// given worker count (refWorkers = the refEngine): a host crash, a
// correlated two-host rack outage, a thermal throttle overlapping a
// scheduled cap change, a straggler, a mid-window power-supply sag, and
// a cross-group migration — with redispatch on, so crash landings
// re-offer displaced work across shards at the landing barrier.
func runFaultDiffScenario(t *testing.T, workers int) diffResult {
	t.Helper()
	sup, err := NewScenario(Scenario{
		Machines:        8,
		CoresPerMachine: 1,
		Budget:          8 * 190, // binding: full load wants 210 W/host
		Workers:         workers,
		RecordTrace:     true,
		Groups: []WorkloadGroup{
			{
				Name: "fast", NewApp: newFastApp, Profile: fastSyntheticProfile(t),
				Instances: 5, Pressure: 0.3,
				Load: NewConstantLoad(21, 24).WithRequestIters(10),
			},
			{
				Name: "slow", NewApp: newSlowApp, Profile: syntheticProfile(t),
				Instances: 3, Pressure: 0.1,
				Load: NewSpikeLoad(9, 4, 16, 6, 2).WithRequestIters(10),
			},
		},
		Faults: &FaultOptions{Redispatch: true, Model: FaultSchedule{
			{At: time.Unix(1, 0).Add(700 * time.Millisecond), Kind: FaultStraggler, Host: 2, Instance: -1, Duration: 3 * time.Second, Factor: 2.5},
			{At: time.Unix(2, 0).Add(300 * time.Millisecond), Kind: FaultCrash, Host: 1, Duration: 1500 * time.Millisecond, Instance: -1},
			{At: time.Unix(3, 0).Add(100 * time.Millisecond), Kind: FaultCrash, Host: 3, Rack: "rack-b", Duration: 1200 * time.Millisecond, Instance: -1},
			{At: time.Unix(3, 0).Add(100 * time.Millisecond), Kind: FaultCrash, Host: 5, Rack: "rack-b", Duration: 1200 * time.Millisecond, Instance: -1},
			{At: time.Unix(3, 0).Add(400 * time.Millisecond), Kind: FaultThrottle, Host: 0, Duration: 2500 * time.Millisecond, State: 5, Instance: -1},
			{At: time.Unix(5, 0).Add(550 * time.Millisecond), Kind: FaultSag, Duration: 1800 * time.Millisecond, Factor: 0.6, Instance: -1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A mid-window cap change inside the throttle window, and a
	// cross-group migration across the rack outage's recovery.
	sup.SetBudgetAt(time.Unix(4, 0).Add(330*time.Millisecond), 8*175)
	var fast, slow *Instance
	for _, inst := range sup.Instances() {
		switch {
		case fast == nil && inst.GroupIndex() == 0:
			fast = inst
		case slow == nil && inst.GroupIndex() == 1:
			slow = inst
		}
	}
	if fast == nil || slow == nil || fast.HostIndex() == slow.HostIndex() {
		t.Fatalf("scenario placement did not separate groups: fast %v slow %v", fast, slow)
	}
	if err := sup.MigrateAt(time.Unix(4, 0).Add(650*time.Millisecond), fast, slow.HostIndex()); err != nil {
		t.Fatal(err)
	}

	stepRounds(t, engineUnder(sup, workers), nil, 10)
	return snapshotDiff(sup)
}

// TestFaultScenarioBitIdenticalAcrossWorkers is the fault subsystem's
// differential acceptance test: the fault-laden scenario — every fault
// kind, a correlated rack outage, displaced work redispatched across
// shards, a cap change inside a throttle window — must be bit-identical
// between the single-heap refEngine and the production engine at
// Workers=1, 2, and 4, including Report.Resilience (compared inside the
// report) and the canonically sorted trace.
func TestFaultScenarioBitIdenticalAcrossWorkers(t *testing.T) {
	ref := assertEnginesAgree(t, "faults-8-host", func(workers int) diffResult {
		return runFaultDiffScenario(t, workers)
	})
	ril := ref.report.Resilience
	if ril == nil {
		t.Fatal("fault scenario reported no Resilience")
	}
	if ril.Crashes != 3 || ril.Throttles != 1 || ril.Stragglers != 1 || ril.Sags != 1 {
		t.Fatalf("landed %d/%d/%d/%d crash/throttle/straggler/sag, want 3/1/1/1", ril.Crashes, ril.Throttles, ril.Stragglers, ril.Sags)
	}
	if ril.Redispatched == 0 {
		t.Fatal("no crash displaced work; the differential proves nothing")
	}
	if ref.report.Completions == 0 {
		t.Fatal("scenario completed no requests; the differential proves nothing")
	}
}

// TestShardedEngineAutoscaledReplay holds the engine to the refEngine
// on the full Fig. 8 trace with the autoscaler attached the way Replay
// attaches it — mid-quantum starts and drains round after round, the
// harshest placement churn the repo produces.
func TestShardedEngineAutoscaledReplay(t *testing.T) {
	rates := Fig8Rates(40, 10, 2026)
	ref := assertEnginesAgree(t, "autoscaled-replay", func(workers int) diffResult {
		sup := newOneGroup(t, Scenario{
			Machines:        2,
			CoresPerMachine: 2,
			ControlDisabled: true,
			Workers:         workers,
		}, newSlowApp, syntheticProfile(t))
		startN(t, sup, 1)
		scaler, err := NewHysteresisScaler(HysteresisConfig{SLO: SLO{P95: 1.3}, Max: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := sup.Autoscale(scaler, sup.cfg.Quantum/2); err != nil {
			t.Fatal(err)
		}
		stepRounds(t, engineUnder(sup, workers), NewTraceLoad(11, rates).WithRequestIters(10), len(rates))
		return snapshotDiff(sup)
	})
	if len(ref.insts) < 2 {
		t.Fatal("the autoscaler never started an instance; the differential proves nothing")
	}
}

// TestShardRunResumesInHeapOrder is the resumption property on its own:
// a shard stopped every one to three events — so that again and again
// the peek-ahead continuation it puts back ties an older heap entry on
// (at, kind) — handles exactly the event sequence of one uninterrupted
// run. Two saturated instances share the host beat for beat (the ties),
// a third, overloaded open-loop one drains as a fluid resident, and the
// shard's trace buffer, filled in handling order, is the witness.
func TestShardRunResumesInHeapOrder(t *testing.T) {
	prof := syntheticProfile(t)
	build := func() (*Supervisor, *shard) {
		sup, err := NewScenario(Scenario{
			Machines:        1,
			CoresPerMachine: 3,
			Workers:         1,
			SplitDispatch:   true,
			Fluid:           4,
			RecordTrace:     true,
			Groups: []WorkloadGroup{
				{Name: "batch", NewApp: newSlowApp, Profile: prof, Instances: 2, Load: NewSaturatingLoad(2).WithRequestIters(1)},
				{Name: "web", NewApp: newSlowApp, Profile: prof, Instances: 1, Load: NewConstantLoad(3, 6).WithRequestIters(10)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		stepRounds(t, sup, nil, 4)
		sh := sup.hosts[0].shard
		if len(sh.fluidInsts) == 0 {
			t.Fatal("no fluid resident on the shard after warm-up; retune the web group's load")
		}
		return sup, sh
	}
	supA, a := build()
	supB, b := build()
	end := supA.Now().Add(supA.cfg.Quantum / 2)

	if _, done := a.run(end, math.MaxInt); !done || a.err != nil {
		t.Fatalf("uninterrupted run: done=%v err=%v", done, a.err)
	}
	stops, ties := 0, 0
	for budget := 1; ; budget = budget%3 + 1 {
		served, done := b.run(end, budget)
		if b.err != nil {
			t.Fatal(b.err)
		}
		if done {
			break
		}
		if served != budget || b.next != nil || b.running {
			t.Fatalf("stopped run: served %d of budget %d, next=%v running=%v", served, budget, b.next, b.running)
		}
		stops++
		// The continuation put back carries the shard's newest seq.
		var last *event
		for _, ev := range b.eq {
			if last == nil || ev.seq > last.seq {
				last = ev
			}
		}
		for _, ev := range b.eq {
			if ev != last && ev.at.Equal(last.at) && ev.kind == last.kind {
				ties++
				break
			}
		}
	}
	if stops < 20 || ties == 0 {
		t.Fatalf("%d stops, %d with the returned continuation tying an older event: the scenario proves nothing", stops, ties)
	}

	if len(a.trace) == 0 || !reflect.DeepEqual(a.trace, b.trace) {
		t.Fatalf("handling order diverged: %d trace events uninterrupted, %d interrupted", len(a.trace), len(b.trace))
	}
	if a.seq != b.seq || len(a.eq) != len(b.eq) {
		t.Fatalf("shard state diverged: seq %d vs %d, %d vs %d pending events", a.seq, b.seq, len(a.eq), len(b.eq))
	}
	for len(a.eq) > 0 {
		x, y := a.popHeap(), b.popHeap()
		if !x.at.Equal(y.at) || x.kind != y.kind || x.seq != y.seq || x.inst.id != y.inst.id {
			t.Fatalf("pending events diverged: (%v, %d, seq %d, inst %d) vs (%v, %d, seq %d, inst %d)",
				x.at, x.kind, x.seq, x.inst.id, y.at, y.kind, y.seq, y.inst.id)
		}
	}
	for i, ia := range supA.insts {
		ib := supB.insts[i]
		if ia.completed != ib.completed || len(ia.queue) != len(ib.queue) || ia.fluid != ib.fluid || !ia.clk.Now().Equal(ib.clk.Now()) {
			t.Fatalf("instance %d diverged: completed %d vs %d, queue %d vs %d, fluid %v vs %v",
				i, ia.completed, ib.completed, len(ia.queue), len(ib.queue), ia.fluid, ib.fluid)
		}
	}
}
