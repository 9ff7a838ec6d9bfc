package core

import (
	"reflect"
	"testing"

	"repro/internal/control"
	"repro/internal/heartbeats"
	"repro/internal/workload"
)

// lifecycleRuntime builds a runtime over the shared swaptions fixture.
func lifecycleRuntime(t *testing.T, hook func(int)) (*Runtime, workload.Stream) {
	t.Helper()
	sys := prepared(t)
	rt, err := NewRuntime(RuntimeConfig{System: sys, Machine: testMachine(t), BeatHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	return rt, sys.App.Streams(workload.Production)[0]
}

// TestSessionStepsStream drives a session beat by beat and checks it
// matches the stream length and reports completion exactly once.
func TestSessionStepsStream(t *testing.T) {
	rt, st := lifecycleRuntime(t, nil)
	sess := rt.NewSession(st)
	steps := 0
	for {
		done, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		steps++
	}
	if steps != st.Len() {
		t.Errorf("session stepped %d beats, stream has %d iterations", steps, st.Len())
	}
	if !sess.Done() {
		t.Error("session not done after its stream ran out")
	}
	if sum := sess.Summary(); sum.Beats != st.Len() {
		t.Errorf("summary beats = %d, want %d", sum.Beats, st.Len())
	}
	// Stepping a finished session stays done.
	if done, _ := sess.Step(); !done {
		t.Error("finished session stepped again")
	}
}

// TestSnapshotConcurrentWithRun reads runtime state from another
// goroutine throughout a run; the race detector validates the locking.
func TestSnapshotConcurrentWithRun(t *testing.T) {
	rt, st := lifecycleRuntime(t, nil)
	stop := make(chan struct{})
	observed := make(chan int, 1)
	go func() {
		max := 0
		for {
			select {
			case <-stop:
				observed <- max
				return
			default:
			}
			snap := rt.Snapshot()
			if snap.Beats > max {
				max = snap.Beats
			}
			_ = rt.Gain()
			_ = rt.CurrentPlanLoss()
			_ = rt.Trace()
		}
	}()
	if _, err := rt.RunStream(st); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if max := <-observed; max > st.Len() {
		t.Errorf("observer saw %d beats, stream has only %d", max, st.Len())
	}
	if final := rt.Snapshot(); final.Beats != st.Len() {
		t.Errorf("final snapshot beats = %d, want %d", final.Beats, st.Len())
	}
}

// TestSessionAbortPreemptsWithoutDrainingRuntime aborts an in-flight
// session and checks the runtime itself stays serviceable: the aborted
// session neither steps again nor books a beat, and a fresh session on
// the same runtime serves a full stream.
func TestSessionAbortPreemptsWithoutDrainingRuntime(t *testing.T) {
	rt, st := lifecycleRuntime(t, nil)
	sess := rt.NewSession(st)
	stepN(t, sess, 3)
	sess.Abort()
	at := rt.Machine().Clock().Now()
	if done, _ := sess.Step(); !done || !sess.Done() {
		t.Fatalf("aborted session: Step done=%v, Done()=%v; want both true", done, sess.Done())
	}
	if got, moved := rt.Snapshot().Beats, rt.Machine().Clock().Now().Sub(at); got != 3 || moved != 0 {
		t.Fatalf("after the abort: %d beats and the clock moved %v; want 3 beats and no move", got, moved)
	}
	next := rt.NewSession(st)
	steps := 0
	for {
		done, err := next.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		steps++
	}
	if steps != st.Len() || next.Summary().Beats != st.Len() {
		t.Errorf("post-abort session stepped %d beats (summary %d), want %d", steps, next.Summary().Beats, st.Len())
	}
}

// steadyRun is an endless run whose iterations all cost the same.
type steadyRun struct{ cost float64 }

func (r steadyRun) Step() (float64, bool) { return r.cost, true }
func (steadyRun) Output() workload.Output { return nil }

// steadyRuntime builds a runtime over the shared swaptions fixture and
// opens a session on an endless run that costs costScale times the
// application's baseline cost per beat, so the controller must move off
// the baseline plan when costScale != 1.
func steadyRuntime(t *testing.T, cfg RuntimeConfig, costScale float64) (*Runtime, *Session) {
	t.Helper()
	cfg.System = prepared(t)
	cfg.Machine = testMachine(t)
	cost, err := BaselineCostPerBeat(cfg.System.App, workload.Training)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CostPerBeat = cost
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, rt.StartSession(nil, steadyRun{cost: costScale * cost})
}

// stepN steps the session n times, failing on an error or an early end.
func stepN(t *testing.T, sess *Session, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if done, err := sess.Step(); done || err != nil {
			t.Fatalf("step %d: done=%v err=%v", i, done, err)
		}
	}
}

// TestScheduleKeptWhileSpeedupHeld runs a controller pinned at smax by
// an unreachable target, so every quantum after the first commands the
// same speedup and the runtime keeps its schedule instead of rebuilding
// it. At every quantum boundary the schedule in use must equal one
// built fresh from the commanded speedup.
func TestScheduleKeptWhileSpeedupHeld(t *testing.T) {
	var rt *Runtime
	var boundaries, held int
	prev := -1.0
	hook := func(beats int) {
		if beats%rt.quantum != 0 {
			return
		}
		boundaries++
		s := rt.ctl.Speedup()
		if s == prev {
			held++
		}
		prev = s
		if want := control.BuildSchedule(rt.act.PlanFor(s), rt.quantum); !reflect.DeepEqual(rt.sch, want) {
			t.Fatalf("beat %d: schedule in use %+v, fresh schedule for s=%v %+v", beats, rt.sch, s, want)
		}
	}
	rt, sess := steadyRuntime(t, RuntimeConfig{
		Target:   heartbeats.Target{Min: 1e12, Max: 1e12},
		BeatHook: hook,
	}, 1)
	stepN(t, sess, 20*control.DefaultQuantumBeats)
	if boundaries != 20 || held < 15 {
		t.Fatalf("%d quantum boundaries, %d with the speedup held; want 20 and at least 15", boundaries, held)
	}
}

// TestSnapshotGainConcurrentWithRecordedRun polls Snapshot, Gain and
// CurrentPlanLoss from another goroutine while a recorded run crosses
// many quantum boundaries with a moving plan. The beat count a reader
// sees never decreases, and every gain it reads is one the trace
// recorded: no read is torn or taken mid-update.
func TestSnapshotGainConcurrentWithRecordedRun(t *testing.T) {
	rt, sess := steadyRuntime(t, RuntimeConfig{Record: true}, 1.5)
	stop := make(chan struct{})
	type reading struct {
		gains    []float64
		backward bool
	}
	read := make(chan reading, 1)
	go func() {
		var r reading
		last := 0
		for {
			snap := rt.Snapshot()
			if snap.Beats < last {
				r.backward = true
			}
			last = snap.Beats
			r.gains = append(r.gains, snap.Gain, rt.Gain())
			_ = rt.CurrentPlanLoss()
			select {
			case <-stop:
				read <- r
				return
			default:
			}
		}
	}()
	stepN(t, sess, 50*control.DefaultQuantumBeats)
	close(stop)
	r := <-read
	if r.backward {
		t.Error("a reader saw the beat count decrease")
	}
	recorded := map[float64]bool{}
	for _, p := range rt.Trace() {
		recorded[p.Gain] = true
	}
	if len(recorded) < 2 {
		t.Fatalf("trace holds %d distinct gains; the plan never moved", len(recorded))
	}
	for _, g := range r.gains {
		if !recorded[g] {
			t.Fatalf("a reader saw gain %v, which no recorded beat ran", g)
		}
	}
}

// TestSnapshotAndSteadyStepAllocs pins a steady-state beat (Record
// off, quantum boundaries and setting switches included) and a
// Snapshot at zero allocations.
func TestSnapshotAndSteadyStepAllocs(t *testing.T) {
	rt, sess := steadyRuntime(t, RuntimeConfig{}, 1.5)
	stepN(t, sess, 5*control.DefaultQuantumBeats)
	if allocs := testing.AllocsPerRun(10*control.DefaultQuantumBeats, func() {
		if done, err := sess.Step(); done || err != nil {
			t.Fatalf("step: done=%v err=%v", done, err)
		}
	}); allocs != 0 {
		t.Errorf("Session.Step allocates %v times per beat, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = rt.Snapshot() }); allocs != 0 {
		t.Errorf("Snapshot allocates %v times per call, want 0", allocs)
	}
}
