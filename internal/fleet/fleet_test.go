package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/calibrate"
	"repro/internal/cluster"
	"repro/internal/platform"
	"repro/internal/workload"
)

func syntheticProfile(t *testing.T) *calibrate.Profile {
	t.Helper()
	prof, err := calibrate.Run(NewSynthetic(SyntheticOptions{}), calibrate.Options{Set: workload.Training})
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// newOneGroup builds the fleet most tests drive: sc with one workload
// group, "default", of newApp instances calibrated as prof, under the
// uniform-share interference model the oracles assume. The machines
// start empty; startN places instances.
func newOneGroup(tb testing.TB, sc Scenario, newApp func() (workload.App, error), prof *calibrate.Profile) *Supervisor {
	tb.Helper()
	sc.Groups = []WorkloadGroup{{Name: "default", NewApp: newApp, Profile: prof}}
	sc.Interference = UniformShare{}
	sup, err := NewScenario(sc)
	if err != nil {
		tb.Fatal(err)
	}
	return sup
}

func newTestFleet(t *testing.T, machines, cores int, budget float64) *Supervisor {
	t.Helper()
	return newOneGroup(t, Scenario{Machines: machines, CoresPerMachine: cores, Budget: budget}, newSlowApp, syntheticProfile(t))
}

func startN(tb testing.TB, sup *Supervisor, n int) []*Instance {
	tb.Helper()
	out := make([]*Instance, n)
	for i := range out {
		inst, err := sup.startInstance(0, -1)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = inst
	}
	return out
}

// TestSyntheticCalibrationMatchesAnalytic pins the synthetic app's
// trade-off space to its closed forms: speedup 8/e, loss 0.01·(8−e).
func TestSyntheticCalibrationMatchesAnalytic(t *testing.T) {
	prof := syntheticProfile(t)
	for e := int64(1); e <= SyntheticEffortMax; e++ {
		r, ok := prof.Lookup([]int64{e})
		if !ok {
			t.Fatalf("effort %d missing from profile", e)
		}
		wantSpeedup := float64(SyntheticEffortMax) / float64(e)
		wantLoss := SyntheticLossStep * float64(SyntheticEffortMax-e)
		if math.Abs(r.Speedup-wantSpeedup) > 1e-9 {
			t.Errorf("effort %d speedup = %v, want %v", e, r.Speedup, wantSpeedup)
		}
		if math.Abs(r.Loss-wantLoss) > 1e-9 {
			t.Errorf("effort %d loss = %v, want %v", e, r.Loss, wantLoss)
		}
		if !r.Pareto {
			t.Errorf("effort %d should be Pareto-optimal", e)
		}
	}
}

// TestFleetMatchesOracleOverloaded is the headline end-to-end check: 8
// concurrent instances on 2 machines × 2 cores under saturating load
// must (1) each converge to the heart-rate target and (2) aggregate to
// the power, utilization, and QoS loss the analytic cluster oracle
// predicts for 8 instances.
func TestFleetMatchesOracleOverloaded(t *testing.T) {
	const machines, cores, instances, rounds, warmup = 2, 2, 8, 30, 15
	sup := newTestFleet(t, machines, cores, 0)
	insts := startN(t, sup, instances)
	if err := sup.Run(NewSaturatingLoad(2), rounds); err != nil {
		t.Fatal(err)
	}

	// (1) Every instance holds its heart-rate target.
	for _, inst := range insts {
		perf := inst.Snapshot().NormPerf
		if math.Abs(perf-1) > 0.05 {
			t.Errorf("instance %d normalized perf = %.3f, want 1±0.05", inst.ID(), perf)
		}
	}

	// (2) Fleet aggregates agree with the closed-form oracle.
	oracle, err := cluster.NewOracle(machines, cores, sup.groups[0].profile, sup.cfg.Power, platform.Frequencies[0])
	if err != nil {
		t.Fatal(err)
	}
	pred, err := oracle.Predict(instances)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Feasible {
		t.Fatalf("oracle says %d instances infeasible; test scenario is broken", instances)
	}
	power := sup.MeanPowerOver(warmup, rounds)
	if math.Abs(power-pred.PowerWatts)/pred.PowerWatts > 0.02 {
		t.Errorf("fleet mean power = %.1f W, oracle predicts %.1f W", power, pred.PowerWatts)
	}
	var lossW, perf float64
	var lossN int
	for _, rs := range sup.rounds[warmup:] {
		lossW += rs.RequestLoss * float64(rs.Completions)
		lossN += rs.Completions
		perf += rs.MeanNormPerf
		for _, h := range rs.Hosts {
			if math.Abs(h.Util-pred.Util) > 0.02 {
				t.Errorf("round %d host %d util = %.3f, oracle predicts %.3f", rs.Round, h.Index, h.Util, pred.Util)
			}
		}
	}
	if lossN == 0 {
		t.Fatal("no requests completed after warmup")
	}
	// Realized per-request QoS loss is the oracle's quantity: with the
	// synthetic app's linear loss curve, every iso-rate knob mixture the
	// controller can settle on realizes exactly the oracle's loss.
	if got := lossW / float64(lossN); math.Abs(got-pred.Loss) > 0.005 {
		t.Errorf("fleet realized request loss = %.4f, oracle predicts %.4f", got, pred.Loss)
	}
	n := float64(rounds - warmup)
	if got := perf / n; math.Abs(got-1) > 0.05 {
		t.Errorf("fleet mean normalized perf = %.3f, want ~1", got)
	}
	// The knob speedup in use must match the oracle's per-instance demand.
	for _, inst := range insts {
		if gain := inst.Snapshot().Gain; math.Abs(gain-pred.Speedup) > 0.1 {
			t.Errorf("instance %d gain = %.3f, oracle predicts %.3f", inst.ID(), gain, pred.Speedup)
		}
	}
}

// TestFleetMatchesOracleUnderloaded checks the uncontended regime: with
// one instance per core-pair the fleet must sit at baseline QoS and the
// oracle's partial-utilization power.
func TestFleetMatchesOracleUnderloaded(t *testing.T) {
	const machines, cores, instances, rounds, warmup = 2, 2, 2, 12, 6
	sup := newTestFleet(t, machines, cores, 0)
	insts := startN(t, sup, instances)
	if err := sup.Run(NewSaturatingLoad(2), rounds); err != nil {
		t.Fatal(err)
	}
	oracle, err := cluster.NewOracle(machines, cores, sup.groups[0].profile, sup.cfg.Power, platform.Frequencies[0])
	if err != nil {
		t.Fatal(err)
	}
	pred, err := oracle.Predict(instances)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Speedup != 1 || pred.Loss != 0 {
		t.Fatalf("oracle prediction %+v; underloaded system should need no knob actuation", pred)
	}
	power := sup.MeanPowerOver(warmup, rounds)
	if math.Abs(power-pred.PowerWatts)/pred.PowerWatts > 0.02 {
		t.Errorf("fleet mean power = %.1f W, oracle predicts %.1f W", power, pred.PowerWatts)
	}
	for _, inst := range insts {
		snap := inst.Snapshot()
		if math.Abs(snap.NormPerf-1) > 0.05 {
			t.Errorf("instance %d normalized perf = %.3f, want ~1", inst.ID(), snap.NormPerf)
		}
		if snap.PlanLoss > 1e-9 {
			t.Errorf("instance %d plan loss = %v, want 0 (baseline QoS)", inst.ID(), snap.PlanLoss)
		}
	}
}

// TestFleetDeterministic runs the same seeded scenario twice and
// requires bit-identical round statistics despite concurrent execution.
func TestFleetDeterministic(t *testing.T) {
	run := func() ([]RoundStats, Report) {
		sup := newTestFleet(t, 2, 2, 500)
		startN(t, sup, 6)
		if err := sup.Run(NewSpikeLoad(7, 4, 20, 10, 3), 20); err != nil {
			t.Fatal(err)
		}
		return sup.rounds, sup.Report()
	}
	r1, rep1 := run()
	r2, rep2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("two identically seeded fleet runs diverged")
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatal("two identically seeded fleet reports diverged")
	}
}

// TestFleetBudgetCapsPower checks the arbiter end to end: a tight
// cluster budget must hold total power under the cap by lowering
// frequencies, and lifting the cap must restore full frequency.
func TestFleetBudgetCapsPower(t *testing.T) {
	// The cmd/fleet demo shape: 8 instances, 2 machines × 2 cores, and a
	// 400 W global cap (< 2 × P(2.4 GHz, util 1) = 420 W uncapped).
	const budget = 400
	sup := newTestFleet(t, 2, 2, budget)
	startN(t, sup, 8)
	if err := sup.Run(NewSaturatingLoad(2), 12); err != nil {
		t.Fatal(err)
	}
	for _, rs := range sup.rounds {
		if rs.PowerWatts > budget+1e-9 {
			t.Errorf("round %d power %.1f W exceeds budget %d W", rs.Round, rs.PowerWatts, budget)
		}
		for _, h := range rs.Hosts {
			if h.State == 0 {
				t.Errorf("round %d host %d at full frequency despite cap", rs.Round, h.Index)
			}
		}
	}
	// Instances still hold target: the knobs absorb the frequency loss.
	for _, inst := range sup.Active() {
		if perf := inst.Snapshot().NormPerf; math.Abs(perf-1) > 0.07 {
			t.Errorf("instance %d normalized perf under cap = %.3f, want ~1", inst.ID(), perf)
		}
	}
	sup.SetBudgetAt(sup.Now(), 0) // lift the cap
	if err := sup.Run(NewSaturatingLoad(2), 3); err != nil {
		t.Fatal(err)
	}
	last := sup.rounds[len(sup.rounds)-1]
	for _, h := range last.Hosts {
		if h.State != 0 {
			t.Errorf("host %d still capped at state %d after budget lift", h.Index, h.State)
		}
	}
}

// TestArbiterBudgetDivision checks the two-pass budget split: an idle
// machine's unused headroom flows to the loaded machine, leftover after
// the proportional pass goes to the host with the larger performance
// deficit, and the cap is never exceeded.
func TestArbiterBudgetDivision(t *testing.T) {
	model := platform.DefaultPowerModel()
	full := model.Power(platform.Frequencies[0], 1) // loaded host, top state
	idle := model.Power(platform.Frequencies[0], 0) // idle host draws idle power at any state
	projectedTotal := func(demands []hostDemand, states []int) float64 {
		var sum float64
		for i, st := range states {
			sum += model.Power(platform.Frequencies[st], demands[i].util)
		}
		return sum
	}

	// Idle headroom flows: budget of exactly one full host + one idle
	// host lets the loaded host run flat out.
	demands := []hostDemand{{util: 1, weight: 1, deficit: 1}, {util: 0}}
	states := NewArbiter(model, full+idle).assign(demands)
	if states[0] != 0 {
		t.Errorf("loaded host state = %d, want 0: idle host's headroom should flow to it", states[0])
	}
	if got := projectedTotal(demands, states); got > full+idle+1e-9 {
		t.Errorf("projected power %.1f exceeds budget %.1f", got, full+idle)
	}

	// Leftover goes to the deficit host: a budget that fits both hosts
	// mid-range plus one extra step gives the extra step to host 1.
	demands = []hostDemand{{util: 1, weight: 1, deficit: 0.1}, {util: 1, weight: 1, deficit: 0.5}}
	arb := NewArbiter(model, 366)
	states = arb.assign(demands)
	if states[1] >= states[0] {
		t.Errorf("states = %v: the higher-deficit host should hold the higher frequency", states)
	}
	if got := projectedTotal(demands, states); got > arb.Budget()+1e-9 {
		t.Errorf("projected power %.1f exceeds budget %.1f", got, arb.Budget())
	}

	// Unlimited budget: everyone runs flat out.
	for i, st := range NewArbiter(model, 0).assign(make([]hostDemand, 3)) {
		if st != 0 {
			t.Errorf("unlimited budget host %d state = %d, want 0", i, st)
		}
	}

	// Impossibly tight budget: everyone pinned at the lowest state.
	lowest := len(platform.Frequencies) - 1
	for i, st := range NewArbiter(model, 1).assign(demands) {
		if st != lowest {
			t.Errorf("starved host %d state = %d, want %d", i, st, lowest)
		}
	}
}

// TestFleetPlacement exercises live placement: drain retires an
// instance once idle, stop redistributes its backlog, migrate moves an
// instance across machines and the controller recovers the target.
func TestFleetPlacement(t *testing.T) {
	sup := newTestFleet(t, 2, 2, 0)
	insts := startN(t, sup, 4)
	if err := sup.Run(NewConstantLoad(11, 4), 6); err != nil {
		t.Fatal(err)
	}

	// Drain: finishes its queue, then leaves its machine.
	sup.DrainAt(sup.Now(), insts[0])
	if err := sup.Run(NewConstantLoad(12, 6), 8); err != nil {
		t.Fatal(err)
	}
	if !insts[0].retired {
		t.Errorf("drained instance still active after 8 quanta (queue %d)", insts[0].QueueDepth())
	}
	if insts[0].HostIndex() != -1 {
		t.Errorf("retired instance still placed on host %d", insts[0].HostIndex())
	}
	if err := sup.MigrateAt(sup.Now(), insts[0], 1); err == nil {
		t.Error("want error migrating a retired instance")
	}

	// Stop: hard removal; queued requests must not be lost. Total work
	// is conserved: everything queued or in flight anywhere before the
	// stop is either completed during the quantum or still queued
	// after it — only the stopped instance's in-flight request (at
	// most one) is aborted. A zero-rate generator adds no arrivals, so
	// the inequality is exact up to that abort.
	beforeTotal := 0
	for _, inst := range sup.Active() {
		beforeTotal += inst.QueueDepth()
	}
	sup.StopAt(sup.Now(), insts[1])
	rs, err := sup.Step(NewConstantLoad(13, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !insts[1].retired {
		t.Error("stopped instance not retired at the stop landing")
	}
	var depth int
	for _, inst := range sup.Active() {
		depth += inst.QueueDepth()
	}
	if rs.Completions+depth < beforeTotal-1 {
		t.Errorf("stopped instance's backlog vanished: %d requests in the fleet before stop, %d completed + %d queued after",
			beforeTotal, rs.Completions, depth)
	}

	// Migrate: instance changes machines, dips through the blackout,
	// then converges back to target.
	from := insts[2].HostIndex()
	to := 1 - from
	if err := sup.MigrateAt(sup.Now(), insts[2], to); err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(NewSaturatingLoad(2), 12); err != nil {
		t.Fatal(err)
	}
	if insts[2].HostIndex() != to {
		t.Fatalf("migrated instance on host %d, want %d", insts[2].HostIndex(), to)
	}
	if perf := insts[2].Snapshot().NormPerf; math.Abs(perf-1) > 0.07 {
		t.Errorf("migrated instance normalized perf = %.3f, want ~1 after recovery", perf)
	}
	counts := make([]int, 2)
	for _, h := range sup.Hosts() {
		counts[h.Index()] = len(h.Residents())
	}
	if counts[0]+counts[1] != len(sup.Active()) {
		t.Errorf("host residents %v inconsistent with %d active instances", counts, len(sup.Active()))
	}
}

// TestLoadGenShapes pins the arrival processes through eventTimes, the
// sampler the round seed runs: determinism for a fixed seed, ramp
// monotonicity in expectation, and spike bursts.
func TestLoadGenShapes(t *testing.T) {
	const q = time.Second
	roundStart := func(i int) time.Time { return epochTime().Add(time.Duration(i) * q) }
	a, b := NewConstantLoad(7, 5), NewConstantLoad(7, 5)
	for i := 0; i < 50; i++ {
		if x, y := a.eventTimes(i, roundStart(i), q), b.eventTimes(i, roundStart(i), q); !reflect.DeepEqual(x, y) {
			t.Fatalf("round %d: same seed produced instants %v vs %v", i, x, y)
		}
	}
	ramp := NewRampLoad(7, 0, 20, 100)
	var early, late int
	for i := 0; i < 100; i++ {
		n := len(ramp.eventTimes(i, roundStart(i), q))
		if i < 50 {
			early += n
		} else {
			late += n
		}
	}
	if late <= early {
		t.Errorf("ramp arrivals did not grow: first half %d, second half %d", early, late)
	}
	spike := NewSpikeLoad(7, 0, 50, 10, 2)
	burst := 0
	for i := 0; i < 40; i++ {
		ts := spike.eventTimes(i, roundStart(i), q)
		if i%10 >= 2 && len(ts) != 0 {
			t.Errorf("round %d outside burst produced %d arrivals, want 0", i, len(ts))
		}
		for _, at := range ts {
			if at.Before(roundStart(i)) || !at.Before(roundStart(i+1)) {
				t.Errorf("round %d arrival at %v lies outside its quantum", i, at)
			}
		}
		burst += len(ts)
	}
	if burst == 0 {
		t.Error("spike bursts produced no arrivals")
	}
	if _, ok := NewSaturatingLoad(3).Saturating(); !ok {
		t.Error("saturating generator not reporting itself")
	}
}

// TestPoissonLargeLambda checks the chunked sampler: exp(-lambda)
// underflow must not silently cap large arrival rates.
func TestPoissonLargeLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const lambda, n = 2000.0, 50
	total := 0
	for i := 0; i < n; i++ {
		total += poisson(rng, lambda)
	}
	if mean := float64(total) / n; math.Abs(mean-lambda) > lambda*0.05 {
		t.Errorf("mean of %d draws at lambda=%v is %v; sampler is saturating", n, lambda, mean)
	}
}

// TestFleetConfigValidation checks the single-group fleet shape most
// callers build: zero machines and a group without app or profile are
// rejected, and so are out-of-range hosts.
func TestFleetConfigValidation(t *testing.T) {
	if _, err := NewScenario(Scenario{}); err == nil {
		t.Error("want error for zero machines")
	}
	if _, err := NewScenario(Scenario{Machines: 1, Groups: []WorkloadGroup{{Name: "default"}}}); err == nil {
		t.Error("want error for missing NewApp/Profile")
	}
	sup := newTestFleet(t, 1, 1, 0)
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
}

// TestFleetRejectsZeroCostRequests checks the livelock guard: a stream
// that completes without consuming virtual time must surface an error
// instead of spinning a self-feeding instance forever.
func TestFleetRejectsZeroCostRequests(t *testing.T) {
	// ProductionIters < 0 yields streams that finish on their first Step
	// without executing any work.
	zeroCost := func() (workload.App, error) { return NewSynthetic(SyntheticOptions{ProductionIters: -1}), nil }
	sup := newOneGroup(t, Scenario{Machines: 1, CoresPerMachine: 1}, zeroCost, syntheticProfile(t))
	startN(t, sup, 1)
	if err := sup.Run(NewSaturatingLoad(1), 1); err == nil || !strings.Contains(err.Error(), "advancing virtual time") {
		t.Fatalf("want zero-cost livelock error, got %v", err)
	}
}
