package fleet

// This file is the per-host half of the event engine (the coordinator
// half lives in coordinator.go). Each Host owns a
// shard: a private event queue holding its residents' service
// continuations, pre-routed arrivals, and drain retirements. Between
// global synchronization barriers a shard advances independently of
// every other shard — hosts couple only through the arbiter, placement
// landings, and dispatch, all of which happen at barriers — so shards
// may execute concurrently on a bounded worker pool (a window too small
// to be worth the pool runs on the coordinator's goroutine) while remaining
// bit-identical at every Workers value and to the single-heap test
// oracle (see engine.go's evKind ordering for the shared tie-break and
// docs/ARCHITECTURE.md for the determinism argument).

import (
	"fmt"
	"time"
)

// shard is one host's slice of the event timeline.
type shard struct {
	sup  *Supervisor
	host *Host

	// eq is the shard-local event min-heap, ordered by the same
	// (at, kind, seq) rule (eventLess); seq is per-shard.
	eq  []*event
	seq uint64

	// next is the peek-ahead fast path: the continuation minted while
	// handling the current event. In the common case (a busy instance
	// beating along) it is the shard's earliest event, so run serves it
	// directly instead of round-tripping the heap — with one resident
	// per host this removes nearly all heap traffic. Only set while
	// running; compared against the heap top before use, so ordering is
	// exactly the heap's.
	next *event

	// trace buffers this shard's window-local trace events; the
	// coordinator flushes buffers in host-index order at every barrier.
	trace []TraceEvent

	// free recycles handled events — shard-local, so reuse needs no
	// synchronization; at one event per beat this removes the engine's
	// last per-beat allocation.
	free []*event

	// fluidInsts tracks residents on the fluid timeline (fluid.go):
	// shard-local, drained at window ends and arrival landings.
	fluidInsts []*Instance

	err error

	// running is set only while run executes (guards the next fast
	// path); excluded marks the shard as serialized for the current
	// window phase (it hosts a live draining instance), so runParallel
	// skips it — set and cleared by drainingShards. The two bools sit
	// together at the tail so they share one padding slot (pinned by
	// TestHotStructSizes).
	running  bool
	excluded bool
}

// newEvent takes an event from the shard's free list (or allocates).
//
//fleetvet:noalloc
func (sh *shard) newEvent() *event {
	if n := len(sh.free); n > 0 {
		ev := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a fully handled event to the free list. Callers must
// ensure no reference outlives the call (handled events are dead: serve
// and the arrival handler retain nothing).
//
//fleetvet:noalloc
func (sh *shard) recycle(ev *event) {
	if len(sh.free) < 256 {
		*ev = event{}
		sh.free = append(sh.free, ev)
	}
}

// push enqueues an event, stamping the shard-local FIFO sequence.
func (sh *shard) push(ev *event) {
	ev.seq = sh.seq
	sh.seq++
	sh.pushHeap(ev)
}

// pushHeap inserts an already-stamped event (sift-up).
func (sh *shard) pushHeap(ev *event) {
	sh.eq = append(sh.eq, ev)
	i := len(sh.eq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(sh.eq[i], sh.eq[parent]) {
			break
		}
		sh.eq[i], sh.eq[parent] = sh.eq[parent], sh.eq[i]
		i = parent
	}
}

// popHeap removes the earliest heaped event (sift-down).
func (sh *shard) popHeap() *event {
	ev := sh.eq[0]
	n := len(sh.eq) - 1
	sh.eq[0] = sh.eq[n]
	sh.eq[n] = nil
	sh.eq = sh.eq[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && eventLess(sh.eq[l], sh.eq[least]) {
			least = l
		}
		if r < n && eventLess(sh.eq[r], sh.eq[least]) {
			least = r
		}
		if least == i {
			break
		}
		sh.eq[i], sh.eq[least] = sh.eq[least], sh.eq[i]
		i = least
	}
	return ev
}

// pop returns the shard's earliest event strictly before end, draining
// the peek-ahead slot with exact heap ordering, or nil when the shard
// has no work left in the window.
//
//fleetvet:noalloc
func (sh *shard) pop(end time.Time) *event {
	if ev := sh.next; ev != nil {
		sh.next = nil
		// The deferred continuation carries the newest seq, so on an
		// (at, kind) tie the heap top must win.
		if ev.at.Before(end) && (len(sh.eq) == 0 || !eventLess(sh.eq[0], ev)) {
			return ev
		}
		sh.pushHeap(ev)
	}
	if len(sh.eq) == 0 || !sh.eq[0].at.Before(end) {
		return nil
	}
	return sh.popHeap()
}

// peek returns the shard's earliest event without removing it (the
// peek-ahead slot is empty outside run, where peek is used).
func (sh *shard) peek() *event {
	if len(sh.eq) == 0 {
		return nil
	}
	return sh.eq[0]
}

// hasWorkBefore reports whether any shard event lands before end.
func (sh *shard) hasWorkBefore(end time.Time) bool {
	return len(sh.eq) > 0 && sh.eq[0].at.Before(end)
}

// run advances the shard toward the window end, serving its residents'
// events in deterministic local order, and stops after budget events if
// the window holds more. It reports the events served and whether the
// shard reached the end. Stopped early it is resumable: the peek-ahead
// continuation goes back on the heap under the seq it already carries,
// so a later run — on any goroutine — pops exactly the sequence an
// uninterrupted one would have. It touches only this shard's state and
// its residents (plus their thread-safe machine views), so disjoint
// shards run concurrently.
//
//fleetvet:noalloc
func (sh *shard) run(end time.Time, budget int) (served int, done bool) {
	sh.running = true
	for sh.err == nil && served < budget {
		ev := sh.pop(end)
		if ev == nil {
			// Out of discrete events: render fluid residents to the
			// window end. A re-materialization schedules a continuation
			// inside the window, so loop again to serve it.
			if sh.drainFluidTo(end) {
				continue
			}
			done = true
			break
		}
		sh.handle(ev)
		sh.recycle(ev)
		served++
	}
	if sh.next != nil {
		sh.pushHeap(sh.next)
		sh.next = nil
	}
	sh.running = false
	return served, done
}

// drainFluidTo renders the shard's fluid residents up to u, compacting
// out re-materialized ones. Returns true when any instance left fluid
// mode (its discrete continuation may land before the window end).
func (sh *shard) drainFluidTo(u time.Time) bool {
	if len(sh.fluidInsts) == 0 {
		return false
	}
	mat := false
	live := sh.fluidInsts[:0]
	for _, inst := range sh.fluidInsts {
		if inst.fluid {
			sh.sup.drainFluid(inst, u, sh)
		}
		if inst.fluid {
			live = append(live, inst)
		} else {
			mat = true
		}
	}
	for i := len(live); i < len(sh.fluidInsts); i++ {
		sh.fluidInsts[i] = nil
	}
	sh.fluidInsts = live
	return mat
}

// handle processes one shard-local event. evRetire is deliberately
// absent: retirements re-arbitrate the whole cluster, so the
// coordinator serializes any window in which one could occur and
// processes it there (runUntilRetire).
//
//fleetvet:noalloc
func (sh *shard) handle(ev *event) {
	switch ev.kind {
	case evServe:
		if err := sh.sup.serve(ev.at, ev.inst, sh); err != nil {
			sh.err = err
		}
	case evArrival:
		// Pre-routed arrival (SplitDispatch fast path): the coordinator
		// drew the target at the window start; the request joins its
		// queue at the arrival instant.
		sh.record(TraceEvent{At: ev.at, Kind: TraceArrival, Instance: -1, Host: -1, State: -1, Group: sh.sup.groups[ev.req.Group].name})
		if ev.inst.fluid {
			// The queue being joined must be current at the arrival
			// instant: render the target's flow up to now first.
			sh.sup.drainFluid(ev.inst, ev.at, sh)
		}
		ev.inst.queue = append(ev.inst.queue, ev.req)
		sh.activate(ev.inst, ev.at)
	default:
		// evRetire (and anything else global) must never reach a shard
		// handler: retirements re-arbitrate the whole cluster, so the
		// coordinator serializes any window that could hold one. Fail
		// loudly rather than dropping the event — a silent drop would
		// leak the instance's capacity with no symptom.
		sh.err = fmt.Errorf("fleet: shard %d handled global event kind %d at %v (coordinator invariant broken)",
			sh.host.index, ev.kind, ev.at)
	}
}

// activate implements engineSink: schedule the instance's next service
// continuation on its shard, using the peek-ahead slot while running.
//
//fleetvet:noalloc
func (sh *shard) activate(inst *Instance, t time.Time) {
	// Fluid instances have no discrete continuations (fluid.go).
	if inst.retired || inst.scheduled || inst.fluid {
		return
	}
	inst.scheduled = true
	ev := sh.newEvent()
	ev.at, ev.kind, ev.inst, ev.seq = t, evServe, inst, sh.seq
	sh.seq++
	if sh.running && sh.next == nil {
		sh.next = ev
		return
	}
	sh.pushHeap(ev)
}

// scheduleRetire implements engineSink: a drained resident's queue
// emptied; enqueue the retirement for the coordinator's serialized
// processing.
func (sh *shard) scheduleRetire(inst *Instance, t time.Time) {
	ev := sh.newEvent()
	ev.at, ev.kind, ev.inst = t, evRetire, inst
	sh.push(ev)
}

// record implements engineSink: buffer the trace event for the
// coordinator's barrier flush.
func (sh *shard) record(ev TraceEvent) {
	if sh.sup.cfg.RecordTrace {
		sh.trace = append(sh.trace, ev)
	}
}

// registerFluid implements engineSink: track the resident for this
// shard's window-end and arrival-instant drains.
func (sh *shard) registerFluid(inst *Instance) {
	sh.fluidInsts = append(sh.fluidInsts, inst)
}

// moveEvents reassigns an instance's pending events to another shard —
// a cross-shard migration landed, so its queued continuation (and any
// pre-routed arrivals) must follow it to the destination host. Events
// are re-stamped with destination sequence numbers in their source
// order, preserving relative FIFO.
func (sh *shard) moveEvents(inst *Instance, to *shard) {
	if sh == to {
		return
	}
	var moved []*event
	kept := sh.eq[:0]
	for _, ev := range sh.eq {
		if ev.inst == inst {
			moved = append(moved, ev)
		} else {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(sh.eq); i++ {
		sh.eq[i] = nil
	}
	sh.eq = kept
	sh.reheap()
	// Heap-array order is not sorted order: restore (at, kind, seq)
	// before re-stamping so ties keep their original FIFO.
	sortEvents(moved)
	for _, ev := range moved {
		to.push(ev)
	}
}

// reheap rebuilds the heap invariant after bulk removal (sift-down from
// the last parent).
func (sh *shard) reheap() {
	n := len(sh.eq)
	for i := n/2 - 1; i >= 0; i-- {
		for j := i; ; {
			l, r := 2*j+1, 2*j+2
			least := j
			if l < n && eventLess(sh.eq[l], sh.eq[least]) {
				least = l
			}
			if r < n && eventLess(sh.eq[r], sh.eq[least]) {
				least = r
			}
			if least == j {
				break
			}
			sh.eq[j], sh.eq[least] = sh.eq[least], sh.eq[j]
			j = least
		}
	}
}

// sortEvents orders events by (at, kind, seq) — insertion sort; the
// slices involved are tiny (an instance rarely has more than one
// pending event).
func sortEvents(evs []*event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && eventLess(evs[j], evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}
