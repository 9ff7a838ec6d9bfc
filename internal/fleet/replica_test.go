package fleet

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/calibrate"
)

// TestRecordedArrivalsMatchTraceLoad holds the realize-once step to the
// generator it replaces: replicas replaying one record must see, round
// by round, the instants a fresh NewTraceLoad draws — including rounds
// at a zero rate (no draw at all) and rounds past the trace's end (the
// last rate holds) — and mint the same requests, sized by
// WithRequestIters. Two replicas read the record at different paces, so
// a round one of them realizes is what the other later replays.
func TestRecordedArrivalsMatchTraceLoad(t *testing.T) {
	const q = 500 * time.Millisecond
	rates := []float64{0, 3, 12.5, 0, 40}
	for _, seed := range []int64{1, 7, 42, 1 << 40} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			live := NewTraceLoad(seed, rates).WithRequestIters(5)
			tmpl := NewTraceLoad(seed, rates).WithRequestIters(5)
			rec := tmpl.record(q)
			lead, lag := tmpl.replica(rec), tmpl.replica(rec)
			var lagWant [][]Request
			for r := 0; r < len(rates)+3; r++ {
				start := epochTime().Add(time.Duration(r) * q)
				want := mint(live, live.eventTimes(r, start, q))
				if got := mint(lead, lead.eventTimes(r, start, q)); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: replica minted %v, NewTraceLoad %v", r, got, want)
				}
				if (rates[min(r, len(rates)-1)] == 0) != (len(want) == 0) {
					t.Errorf("round %d at rate %v drew %d arrivals", r, rates[min(r, len(rates)-1)], len(want))
				}
				lagWant = append(lagWant, want)
				if r%2 == 1 {
					for k := r - 1; k <= r; k++ {
						kStart := epochTime().Add(time.Duration(k) * q)
						if got := mint(lag, lag.eventTimes(k, kStart, q)); !reflect.DeepEqual(got, lagWant[k]) {
							t.Fatalf("round %d: lagging replica minted %v, want %v", k, got, lagWant[k])
						}
					}
				}
			}
		})
	}
}

// mint turns one round's instants into the requests the round seed
// would mint from them.
func mint(g *LoadGen, at []time.Time) []Request {
	var out []Request
	for _, a := range at {
		out = append(out, *g.next(a))
	}
	return out
}

// mixScenario is a scenario whose every random stream is live: an
// open-loop group beside the one Replay feeds, seeded split dispatch,
// and a seeded fault model with redispatch. Each call builds fresh
// generators, as a twin's factory does.
func mixScenario(prof, fastProf *calibrate.Profile) Scenario {
	return Scenario{
		Machines:        3,
		CoresPerMachine: 2,
		Workers:         2,
		SplitDispatch:   true,
		Groups: []WorkloadGroup{
			{Name: "web", NewApp: newSlowApp, Profile: prof, Pressure: 0.2},
			{Name: "batch", NewApp: newFastApp, Profile: fastProf, Pressure: 0.4,
				Load: NewConstantLoad(11, 6).WithRequestIters(10)},
		},
		Faults: &FaultOptions{
			Model:      NewSeededFaults(FaultConfig{Seed: 5, CrashRate: 0.3, ThrottleRate: 0.3, StragglerRate: 0.3}),
			Redispatch: true,
		},
	}
}

// mixSnapshot is a snapshot of a mixScenario fleet under a cap, with a
// standing backlog in both groups.
func mixSnapshot() FleetSnapshot {
	return FleetSnapshot{
		Round:   12,
		Budget:  3 * 170,
		Quantum: time.Second,
		Groups: []GroupSnapshot{
			{Name: "web", Accepting: 2, QueueDepth: 9, ReqIters: 10},
			{Name: "batch", Accepting: 2, QueueDepth: 4},
		},
	}
}

// freshReplica is the replica as NewFromSnapshot built it before plans
// existed: a fresh scenario's fleet with the snapshot's counts, budget
// and backlog, fed by the scenario's own generators and fault model.
func freshReplica(t *testing.T, sc Scenario, snap FleetSnapshot, n int) *Supervisor {
	t.Helper()
	sc.Budget = snap.Budget
	for i := range sc.Groups {
		sc.Groups[i].Instances = snap.Groups[i].Accepting
	}
	sc.Groups[0].Instances = n
	sup, err := NewScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	for gi, gs := range snap.Groups {
		iters := gs.ReqIters
		if l := sc.Groups[gi].Load; l != nil {
			iters = l.reqIters
		}
		for i := 0; i < gs.QueueDepth; i++ {
			if _, err := sup.InjectArrivalAt(epochTime(), gi, iters); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sup
}

// mixReplay is the what-if the plan tests replay: a rising trace with a
// fixed candidate count.
func mixReplay(n int) ReplayConfig {
	return ReplayConfig{
		Rates:    []float64{4, 6, 9, 9, 12, 12},
		Seed:     3,
		ReqIters: 10,
		SLO:      SLO{P95: 1.5},
		Scaler:   fixedCount(n),
	}
}

type fixedCount int

func (f fixedCount) Scale(ScaleObservation) int { return int(f) }

// TestReplicaPlanMatchesFreshReplicas is the exactness argument of the
// plan as a test: one plan's replicas — built from a single scenario
// whose group arrivals, faults and split dispatch are all seeded
// streams, replayed largest count first so the records fill in a
// different order than a search would — must replay exactly what a
// fresh scenario's fleet, with its own live generators, replays.
func TestReplicaPlanMatchesFreshReplicas(t *testing.T) {
	prof, fastProf := syntheticProfile(t), fastSyntheticProfile(t)
	snap := mixSnapshot()
	plan, err := PlanReplicas(mixScenario(prof, fastProf), snap)
	if err != nil {
		t.Fatal(err)
	}
	faulted := false
	for n := 4; n >= 1; n-- {
		want, err := Replay(freshReplica(t, mixScenario(prof, fastProf), snap, n), mixReplay(n))
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Replay(n, mixReplay(n))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("candidate %d: plan replay diverged from a fresh replica\nplan:  %+v\nfresh: %+v", n, got, want)
		}
		for _, pt := range want.Points {
			faulted = faulted || pt.Fault.Landed > 0
		}
	}
	if !faulted {
		t.Error("no fault landed in any replay: the fixture does not exercise the fault record")
	}
}

// TestNewFromSnapshotLeavesScenarioAlone pins the fix for replicas
// sized from an earlier snapshot: one Scenario value reused across two
// snapshots must give each replica its own snapshot's accepting count,
// and the caller's Instances must stay as the caller left them.
func TestNewFromSnapshotLeavesScenarioAlone(t *testing.T) {
	sc := Scenario{
		Machines:        1,
		CoresPerMachine: 8,
		Groups:          []WorkloadGroup{{Name: "web", NewApp: newSlowApp, Profile: syntheticProfile(t)}},
	}
	for _, accepting := range []int{2, 5, 3} {
		snap := FleetSnapshot{Quantum: time.Second, Groups: []GroupSnapshot{{Name: "web", Accepting: accepting}}}
		sup, err := NewFromSnapshot(sc, snap)
		if err != nil {
			t.Fatal(err)
		}
		if got := sup.StateSnapshot(0).Groups[0].Accepting; got != accepting {
			t.Errorf("replica of a %d-instance snapshot accepts on %d instances", accepting, got)
		}
		if sc.Groups[0].Instances != 0 {
			t.Fatalf("NewFromSnapshot wrote Instances = %d into the caller's scenario", sc.Groups[0].Instances)
		}
	}
}

// TestReplicaPlanConcurrentReplicas steps replicas of one plan on
// separate goroutines — the probe, the sliced baselines and every record
// shared — and requires each to replay what it replays alone. Run it
// under -race: the plan's claim is that sharing it needs no other
// synchronization.
func TestReplicaPlanConcurrentReplicas(t *testing.T) {
	prof, fastProf := syntheticProfile(t), fastSyntheticProfile(t)
	snap := mixSnapshot()
	want := make([]*ReplayResult, 4)
	for n := range want {
		plan, err := PlanReplicas(mixScenario(prof, fastProf), snap)
		if err != nil {
			t.Fatal(err)
		}
		if want[n], err = plan.Replay(n+1, mixReplay(n+1)); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := PlanReplicas(mixScenario(prof, fastProf), snap)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]*ReplayResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]*ReplayResult, len(want))
			for n := range want {
				if got[w][n], errs[w] = plan.Replay(n+1, mixReplay(n+1)); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for n := range want {
			if !reflect.DeepEqual(got[w][n], want[n]) {
				t.Errorf("goroutine %d, candidate %d: concurrent replay diverged from a replay alone", w, n+1)
			}
		}
	}
}
