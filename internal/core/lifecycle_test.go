package core

import (
	"testing"
	"time"

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
	if !sess.Done() || sess.Drained() {
		t.Errorf("done=%v drained=%v, want done, not drained", sess.Done(), sess.Drained())
	}
	if sum := sess.Summary(); sum.Beats != st.Len() {
		t.Errorf("summary beats = %d, want %d", sum.Beats, st.Len())
	}
	// Stepping a finished session stays done.
	if done, _ := sess.Step(); !done {
		t.Error("finished session stepped again")
	}
}

// TestPauseBlocksAtBeatBoundary checks that a paused runtime makes no
// progress and resumes cleanly.
func TestPauseBlocksAtBeatBoundary(t *testing.T) {
	rt, st := lifecycleRuntime(t, nil)
	rt.Pause()
	if !rt.Snapshot().Paused {
		t.Fatal("snapshot does not report paused")
	}
	done := make(chan RunSummary, 1)
	go func() {
		sum, err := rt.RunStream(st)
		if err != nil {
			t.Error(err)
		}
		done <- sum
	}()
	select {
	case <-done:
		t.Fatal("stream ran to completion while paused")
	case <-time.After(30 * time.Millisecond):
	}
	if beats := rt.Snapshot().Beats; beats != 0 {
		t.Fatalf("paused runtime completed %d beats", beats)
	}
	rt.Resume()
	sum := <-done
	if sum.Beats != st.Len() || sum.Drained {
		t.Errorf("after resume: beats=%d drained=%v, want %d, not drained", sum.Beats, sum.Drained, st.Len())
	}
}

// TestDrainEndsRunEarly drains mid-run from the beat hook and checks
// the run stops at the next beat boundary with the drained flag set.
func TestDrainEndsRunEarly(t *testing.T) {
	var rt *Runtime
	hook := func(beats int) {
		if beats == 3 {
			rt.Drain()
		}
	}
	rt, st := lifecycleRuntime(t, hook)
	if st.Len() <= 4 {
		t.Fatalf("stream too short (%d) to observe an early drain", st.Len())
	}
	sum, err := rt.RunStream(st)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Drained {
		t.Error("summary does not report drained")
	}
	if sum.Beats != 3 {
		t.Errorf("drained after %d beats, want 3", sum.Beats)
	}
	if !rt.Draining() {
		t.Error("runtime does not report draining")
	}
	// A drained runtime completes new sessions immediately.
	sess := rt.NewSession(st)
	if done, _ := sess.Step(); !done || !sess.Drained() {
		t.Errorf("new session on drained runtime: done=%v drained=%v, want both", done, sess.Drained())
	}
	// Drain also releases a paused runtime.
	rt2, st2 := lifecycleRuntime(t, nil)
	rt2.Pause()
	finished := make(chan struct{})
	go func() {
		_, _ = rt2.RunStream(st2)
		close(finished)
	}()
	rt2.Drain()
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		t.Fatal("drain did not release the paused runtime")
	}
}

// TestDrainReleasesBlockedBeat drains a runtime whose session is blocked
// at a beat boundary by Pause: the blocked Step must return done and
// drained without executing the beat, so the beat count and the
// machine clock stay where the pause left them. (Should Drain land
// before the stepping goroutine blocks, the prologue sees it at once;
// the outcome checked is the same.)
func TestDrainReleasesBlockedBeat(t *testing.T) {
	rt, st := lifecycleRuntime(t, nil)
	sess := rt.NewSession(st)
	for i := 0; i < 3; i++ {
		if done, err := sess.Step(); done || err != nil {
			t.Fatalf("step %d: done=%v err=%v", i, done, err)
		}
	}
	rt.Pause()
	beats, at := rt.Snapshot().Beats, rt.Machine().Clock().Now()
	type result struct {
		done bool
		err  error
	}
	stepped := make(chan result, 1)
	go func() {
		done, err := sess.Step()
		stepped <- result{done, err}
	}()
	select {
	case r := <-stepped:
		t.Fatalf("paused session stepped: done=%v err=%v", r.done, r.err)
	case <-time.After(30 * time.Millisecond):
	}
	rt.Drain()
	var r result
	select {
	case r = <-stepped:
	case <-time.After(2 * time.Second):
		t.Fatal("drain did not release the blocked beat")
	}
	if r.err != nil || !r.done || !sess.Drained() {
		t.Fatalf("released step: done=%v err=%v drained=%v, want done and drained", r.done, r.err, sess.Drained())
	}
	if got := rt.Snapshot().Beats; got != beats {
		t.Errorf("beats = %d after the drained step, want %d", got, beats)
	}
	if got := sess.Summary().Beats; got != 3 {
		t.Errorf("session summary beats = %d, want 3", got)
	}
	if now := rt.Machine().Clock().Now(); now != at {
		t.Errorf("machine clock moved from %v to %v on a drained step", at, now)
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
// session and checks the runtime itself stays serviceable — unlike
// Drain, which winds the whole runtime down.
func TestSessionAbortPreemptsWithoutDrainingRuntime(t *testing.T) {
	rt, st := lifecycleRuntime(t, nil)
	sess := rt.NewSession(st)
	for i := 0; i < 3; i++ {
		if done, err := sess.Step(); done || err != nil {
			t.Fatalf("step %d: done=%v err=%v", i, done, err)
		}
	}
	sess.Abort()
	if !sess.Done() || !sess.Drained() {
		t.Fatalf("aborted session: done=%v drained=%v, want both", sess.Done(), sess.Drained())
	}
	if done, _ := sess.Step(); !done {
		t.Error("aborted session stepped again")
	}
	if rt.Draining() {
		t.Fatal("Abort must not drain the runtime")
	}
	// A fresh session on the same runtime serves a full stream.
	next := rt.NewSession(st)
	done, err := next.StepUntil(rt.Machine().Clock().Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !done || next.Drained() {
		t.Errorf("post-abort session: done=%v drained=%v, want done and not drained", done, next.Drained())
	}
	// Aborting a completed session must not mark it drained.
	next.Abort()
	if next.Drained() {
		t.Error("Abort on a finished session flipped it to drained")
	}
}

// TestSessionStepUntilHonorsVirtualDeadline serves a session on a time
// budget and checks it pauses at (or one atomic beat past) the deadline,
// then resumes to completion.
func TestSessionStepUntilHonorsVirtualDeadline(t *testing.T) {
	rt, st := lifecycleRuntime(t, nil)
	clk := rt.Machine().Clock()
	start := clk.Now()

	// Measure one beat to size a deadline mid-stream.
	probe := rt.NewSession(st)
	if done, err := probe.Step(); done || err != nil {
		t.Fatalf("probe step: done=%v err=%v", done, err)
	}
	beat := clk.Now().Sub(start)
	if beat <= 0 {
		t.Fatal("beat consumed no virtual time")
	}
	probe.Abort()

	sess := rt.NewSession(st)
	deadline := clk.Now().Add(3 * beat)
	done, err := sess.StepUntil(deadline)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatalf("session finished inside a 3-beat budget (stream has %d iterations)", st.Len())
	}
	if now := clk.Now(); now.Before(deadline) {
		t.Errorf("StepUntil stopped at %v, before the deadline %v", now, deadline)
	}
	if over := clk.Now().Sub(deadline); over > 2*beat {
		t.Errorf("StepUntil overshot the deadline by %v, more than one beat-ish (%v)", over, beat)
	}
	// Resuming with a distant deadline completes the stream.
	done, err = sess.StepUntil(clk.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !done || sess.Drained() {
		t.Errorf("resumed session: done=%v drained=%v, want done and not drained", done, sess.Drained())
	}
}
