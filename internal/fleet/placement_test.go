package fleet

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/platform"
)

// TestDrainEventLandsMidQuantum is the acceptance check for event-time
// placement: a drain scheduled mid-quantum must land at that exact
// virtual instant, retire the (idle) instance there, and re-arbitrate
// the freed budget share strictly before the next periodic arbiter tick
// — the surviving host's frequency rises at the landing instant, not at
// the boundary.
func TestDrainEventLandsMidQuantum(t *testing.T) {
	model := platform.DefaultPowerModel()
	full := model.Power(platform.Frequencies[0], 1) // 210 W: loaded host flat out
	idle := model.Power(platform.Frequencies[0], 0) // 90 W: empty host
	lowest := len(platform.Frequencies) - 1         //
	floor := model.Power(platform.Frequencies[lowest], 1)
	// Two loaded 1-core hosts cannot both leave the lowest state under
	// this budget (2·floor exceeds it), but one loaded host plus one
	// empty host runs the loaded one flat out with ~10 W to spare.
	budget := full + idle + 10
	if 2*floor <= budget {
		t.Fatalf("test premise broken: floor %.0f W per host no longer pins both under %.0f W", floor, budget)
	}
	sup := newOneGroup(t, Scenario{
		Machines:        2,
		CoresPerMachine: 1,
		Budget:          budget,
		RecordTrace:     true,
	}, newSlowApp, syntheticProfile(t))
	insts := startN(t, sup, 2)
	if insts[0].HostIndex() == insts[1].HostIndex() {
		t.Fatal("instances not spread across hosts")
	}
	if _, err := sup.Step(nil); err != nil {
		t.Fatal(err)
	}
	for _, h := range sup.Hosts() {
		if h.State() == 0 {
			t.Fatalf("host %d at full frequency before the drain; budget not binding", h.Index())
		}
	}

	drainAt := sup.Now().Add(500 * time.Millisecond) // strictly inside the next quantum
	sup.DrainAt(drainAt, insts[0])
	if _, err := sup.Step(nil); err != nil {
		t.Fatal(err)
	}
	// One more round so the next periodic arbiter tick is on the trace
	// to compare against.
	if _, err := sup.Step(nil); err != nil {
		t.Fatal(err)
	}

	if !insts[0].retired {
		t.Fatal("idle drained instance not retired")
	}
	other := sup.hosts[insts[1].HostIndex()]
	if other.State() != 0 {
		t.Errorf("surviving host state %d, want 0: the freed budget share should flow to it", other.State())
	}
	var drainSeen, retireSeen bool
	var stateAt, arbAt, nextTickAt time.Time
	for _, ev := range sup.Trace() {
		switch {
		case ev.Kind == TraceDrain && ev.At.Equal(drainAt):
			drainSeen = true
		case ev.Kind == TraceRetire && ev.At.Equal(drainAt):
			retireSeen = true
		case drainSeen && ev.Kind == TraceState && ev.Host == other.Index() && stateAt.IsZero():
			stateAt = ev.At
		case drainSeen && ev.Kind == TraceArbiter && arbAt.IsZero():
			arbAt = ev.At
		case drainSeen && ev.Kind == TraceArbiter && ev.At.After(drainAt) && nextTickAt.IsZero():
			nextTickAt = ev.At
		}
	}
	if !drainSeen {
		t.Fatalf("no drain trace event at %v", drainAt)
	}
	if !retireSeen {
		t.Fatalf("idle instance's retirement did not land at the drain instant %v", drainAt)
	}
	if !arbAt.Equal(drainAt) {
		t.Fatalf("re-arbitration at %v, want exactly the drain landing %v", arbAt, drainAt)
	}
	if !stateAt.Equal(drainAt) {
		t.Fatalf("surviving host's state change at %v, want exactly %v (before the next tick)", stateAt, drainAt)
	}
	if nextTickAt.IsZero() || !stateAt.Before(nextTickAt) {
		t.Fatalf("state change at %v did not precede the next periodic arbiter tick at %v", stateAt, nextTickAt)
	}
}

// TestStartAtLandsMidQuantum checks that a start scheduled mid-quantum
// joins the fleet at that exact instant and immediately absorbs the
// backlog that accumulated while no instance accepted work.
func TestStartAtLandsMidQuantum(t *testing.T) {
	sup := newOneGroup(t, Scenario{
		Machines:        1,
		CoresPerMachine: 1,
		ControlDisabled: true,
		RecordTrace:     true,
	}, newSlowApp, syntheticProfile(t))
	startAt := time.Unix(0, 0).Add(500 * time.Millisecond)
	inst, err := sup.StartAt(startAt, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if inst.HostIndex() != -1 {
		t.Fatalf("instance placed on host %d before its start landed", inst.HostIndex())
	}
	if got := len(sup.Active()); got != 0 {
		t.Fatalf("%d active instances before the start landed, want 0", got)
	}
	gen := NewConstantLoad(5, 4).WithRequestIters(10)
	for r := 0; r < 4; r++ {
		if _, err := sup.Step(gen); err != nil {
			t.Fatal(err)
		}
	}
	if inst.HostIndex() != 0 {
		t.Fatalf("instance on host %d after landing, want 0", inst.HostIndex())
	}
	if inst.completed+len(inst.allLats) == 0 {
		t.Error("instance completed nothing despite offered load")
	}
	var startSeen bool
	for _, ev := range sup.Trace() {
		if ev.Kind == TraceStart && ev.Instance == inst.ID() {
			if !ev.At.Equal(startAt) {
				t.Fatalf("start landed at %v, want the scheduled instant %v", ev.At, startAt)
			}
			startSeen = true
		}
	}
	if !startSeen {
		t.Fatal("no start trace event for the scheduled instance")
	}
	if rep := sup.Report(); rep.Completions == 0 {
		t.Error("fleet completed no requests")
	}
}

// TestEventPlacementDeterministic runs a scenario exercising every
// scheduled placement kind — StartAt, MigrateAt, DrainAt, StopAt — at
// mid-quantum instants under spiky load with a mid-quantum cap, twice,
// and requires bit-identical rounds, reports, and traces.
func TestEventPlacementDeterministic(t *testing.T) {
	run := func() ([]RoundStats, Report, []TraceEvent) {
		sup := newOneGroup(t, Scenario{
			Machines:        2,
			CoresPerMachine: 2,
			Budget:          500,
			RecordTrace:     true,
		}, newSlowApp, syntheticProfile(t))
		insts := startN(t, sup, 4)
		gen := NewSpikeLoad(7, 4, 16, 8, 2).WithRequestIters(10)
		sup.SetBudgetAt(time.Unix(2, 0).Add(250*time.Millisecond), 420)
		if _, err := sup.StartAt(time.Unix(3, 0).Add(400*time.Millisecond), 0, -1); err != nil {
			t.Fatal(err)
		}
		if err := sup.MigrateAt(time.Unix(5, 0).Add(700*time.Millisecond), insts[1], 1-insts[1].HostIndex()); err != nil {
			t.Fatal(err)
		}
		sup.DrainAt(time.Unix(8, 0).Add(300*time.Millisecond), insts[0])
		sup.StopAt(time.Unix(10, 0).Add(600*time.Millisecond), insts[2])
		for r := 0; r < 16; r++ {
			if _, err := sup.Step(gen); err != nil {
				t.Fatal(err)
			}
		}
		return sup.rounds, sup.Report(), sup.Trace()
	}
	r1, rep1, tr1 := run()
	r2, rep2, tr2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("two identically seeded placement-event runs diverged (rounds)")
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatal("two identically seeded placement-event reports diverged")
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatal("two identically seeded placement-event traces diverged")
	}
	// The migration landed at its exact mid-quantum instant.
	wantMigrate := time.Unix(5, 0).Add(700 * time.Millisecond)
	var migrateSeen bool
	for _, ev := range tr1 {
		if ev.Kind == TraceMigrate && ev.At.Equal(wantMigrate) {
			migrateSeen = true
		}
	}
	if !migrateSeen {
		t.Fatalf("no migrate trace event at the scheduled instant %v", wantMigrate)
	}
}

// TestMigrateAtRecoversTarget checks the blackout-and-recovery dynamics
// of an event-time migration: the instance changes machines at the
// scheduled instant, and the controller works off the blackout backlog
// back to the heart-rate target.
func TestMigrateAtRecoversTarget(t *testing.T) {
	sup := newTestFleet(t, 2, 2, 0)
	insts := startN(t, sup, 4)
	if err := sup.Run(NewSaturatingLoad(2), 4); err != nil {
		t.Fatal(err)
	}
	from := insts[2].HostIndex()
	to := 1 - from
	if err := sup.MigrateAt(sup.Now().Add(650*time.Millisecond), insts[2], to); err != nil {
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
}

// TestDrainCancelsPendingStart checks that draining or stopping an
// instance before its scheduled start lands cancels the start instead
// of resurrecting the instance into the accepting set.
func TestDrainCancelsPendingStart(t *testing.T) {
	sup := newTestFleet(t, 1, 1, 0)
	startN(t, sup, 1)
	inst, err := sup.StartAt(time.Unix(2, 0).Add(300*time.Millisecond), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	sup.DrainAt(sup.Now(), inst) // before the start lands
	if err := sup.Run(NewConstantLoad(3, 2), 5); err != nil {
		t.Fatal(err)
	}
	if !inst.retired {
		t.Error("pre-drained pending instance not retired")
	}
	if inst.HostIndex() != -1 {
		t.Errorf("cancelled start still placed the instance on host %d", inst.HostIndex())
	}
	if inst.completed > 0 {
		t.Errorf("cancelled instance served %d requests", inst.completed)
	}
}
