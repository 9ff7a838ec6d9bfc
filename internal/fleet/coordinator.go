package fleet

// This file is the coordinator half of the event engine. The round is
// cut into windows bounded by the global events that couple hosts —
// arbiter ticks, cap landings, fault landings and recoveries, placement
// landings, and join-shortest-queue arrivals (which need global queue
// depths).
// Between consecutive barriers no host can influence another, so every
// shard advances through the window independently: the coordinator
// serves the window's first inlineEventBudget events itself and fans
// what is left, if anything, out over a bounded worker pool
// (Scenario.Workers); at each barrier it flushes shard trace buffers in
// host-index order, applies the barrier's events in evKind order, and
// releases the next window.
//
// Two couplings do not sit at statically known instants and are handled
// specially:
//
//   - SplitDispatch arrivals need no global state (the target is a
//     seeded uniform draw over the accepting set, which only changes at
//     barriers), so the coordinator pre-routes each window's arrivals
//     to their target shards and they execute as shard-local events —
//     the per-shard fast path.
//
//   - A draining instance retires at the data-dependent instant its
//     queue empties, and retirement re-arbitrates the whole cluster.
//     Conservative lookahead therefore collapses for any window in
//     which a live draining instance exists: such windows run serially,
//     merging shard queues by (instant, kind, host index, seq) — the
//     canonical order that keeps results bit-identical at every
//     Workers value. Windows without live drains (the common case,
//     and the entire saturating benchmark) go to runParallel whole.

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// stepSharded advances the fleet by one reporting quantum: it seeds the
// round's events (arbiter ticks, scheduled cap, fault, and placement
// changes, arrival instants, service continuations), advances the
// per-host shards window by window between global-event barriers in
// deterministic virtual-time order, and closes the round.
func (s *Supervisor) stepSharded(gen *LoadGen) (RoundStats, error) {
	start := s.Now()
	end := start.Add(s.cfg.Quantum)

	// The round seeds through seedRound (shared with the test oracle,
	// so the two cannot drift apart): global events — ticks, due caps and
	// placements, and join-shortest-queue arrival instants — collect
	// into the coordinator's barrier list, while SplitDispatch arrivals
	// bypass it (they are pre-routed per window below) and instances
	// wake on their hosts' shards. A stable sort by (at, kind) is the
	// canonical ordering for simultaneous events.
	preRoute := s.cfg.SplitDispatch
	globals, splitArrivals := s.globalScratch[:0], s.arrScratch[:0]
	emit := func(ev *event) {
		if ev.kind == evArrival && preRoute {
			splitArrivals = append(splitArrivals, ev)
			return
		}
		globals = append(globals, ev)
	}
	wake := func(inst *Instance, t time.Time) { inst.host.shard.activate(inst, t) }
	arrivals, acc := s.seedRound(gen, start, end, emit, wake)
	sort.SliceStable(globals, func(i, j int) bool {
		if !globals[i].at.Equal(globals[j].at) {
			return globals[i].at.Before(globals[j].at)
		}
		return globals[i].kind < globals[j].kind
	})
	// Each group's arrivals are emitted time-sorted but group-major;
	// the pre-route loop below consumes them strictly by instant, so
	// interleave the groups' streams (stable: simultaneous arrivals
	// keep emission order, the canonical seq order).
	sort.SliceStable(splitArrivals, func(i, j int) bool {
		return splitArrivals[i].at.Before(splitArrivals[j].at)
	})

	// The window loop: run shards to the next barrier, apply the
	// barrier, repeat until the round end.
	gi, ai := 0, 0
	for {
		barrier := end
		if gi < len(globals) {
			barrier = globals[gi].at
		}
		// SplitDispatch fast path: hand this window's arrivals to their
		// target shards as local events, in arrival order. The target is
		// the seeded uniform draw (in arrival order, so the RNG sequence
		// is the same at any Workers value) over the arrival's own group's
		// accepting set — dispatch stays within the group.
		for ai < len(splitArrivals) && splitArrivals[ai].at.Before(barrier) {
			ev := splitArrivals[ai]
			ai++
			grpAcc := acc[ev.req.Group]
			if len(grpAcc) == 0 {
				// Nothing in the group accepts: the request queues
				// fleet-wide, like dispatch returning nil (no RNG draw).
				s.record(TraceEvent{At: ev.at, Kind: TraceArrival, Instance: -1, Host: -1, State: -1, Group: s.groups[ev.req.Group].name})
				s.pending = append(s.pending, ev.req)
				s.recycleEvent(ev)
				continue
			}
			ev.inst = grpAcc[s.split().Intn(len(grpAcc))]
			ev.inst.host.shard.push(ev)
		}
		if err := s.runWindow(barrier); err != nil {
			return RoundStats{}, err
		}
		s.flushShardTraces()
		if gi >= len(globals) {
			break
		}
		// Apply every global event landing at this barrier instant, in
		// the shared kind order (cap < fault < place < tick < arrival).
		for gi < len(globals) && globals[gi].at.Equal(barrier) {
			g := globals[gi]
			gi++
			switch g.kind {
			case evCap:
				s.arb.SetBudget(g.watts)
				s.record(TraceEvent{At: g.at, Kind: TraceCap, Instance: -1, Host: -1, State: -1, Value: g.watts})
				s.arbitrate(g.at)
			case evFault:
				// Fault landings and recoveries are barriers: every shard
				// has advanced to this instant, so displacing a crashed
				// host's work (and re-offering it to the survivors) sees
				// exact queue state.
				s.landFault(g.at, g.fault)
				s.drainsValid = false
				s.arbitrate(g.at)
				acc = s.acceptingByGroup()
				s.redispatchPending(acc, wake, g.at)
			case evPlace:
				from := g.place.inst.host
				s.drainsValid = false
				if !s.landPlace(g.at, g.place) {
					break
				}
				if g.place.op == placeMigrate && from != nil {
					// The instance changed shards: its pending events
					// (continuation, pre-routed arrivals) follow it.
					from.shard.moveEvents(g.place.inst, s.hosts[g.place.host].shard)
				}
				// Placement changed the fleet: re-divide the budget at
				// the landing instant, refresh the per-group accepting
				// sets, and offer undispatched backlog to them.
				s.arbitrate(g.at)
				acc = s.acceptingByGroup()
				s.redispatchPending(acc, wake, g.at)
			case evTick:
				s.arbitrate(g.at)
			case evArrival:
				// Join-shortest-queue needs global queue depths, so the
				// arrival is itself a barrier: every shard has advanced
				// to this instant and the depths are exact.
				s.record(TraceEvent{At: g.at, Kind: TraceArrival, Instance: -1, Host: -1, State: -1, Group: s.groups[g.req.Group].name})
				if tgt := s.dispatch(acc[g.req.Group], g.req); tgt != nil {
					tgt.host.shard.activate(tgt, g.at)
				} else {
					s.pending = append(s.pending, g.req)
				}
			case evRetire, evServe:
				// Retirements and service continuations are shard-local by
				// construction (seedRound never emits them as globals;
				// scheduleRetire lands on the instance's own shard). One
				// reaching the barrier list means the routing invariant
				// broke — fail loudly, mirroring shard.handle's default:
				// dropping it would silently leak the instance's capacity.
				return RoundStats{}, fmt.Errorf("fleet: coordinator saw shard-local event kind %d at %v as a global barrier", g.kind, g.at)
			}
		}
	}

	// Globals were all applied at their barriers and nothing retains the
	// structs (place/fault payloads are copied by value; arrival requests
	// live on in queues), so the whole batch recycles, and the collection
	// slices park as next round's scratch. Shards keep recycled events on
	// their own lists during the round; sweep the surplus back to the
	// shared pool here — pre-routed arrival events migrate shared pool →
	// shard lists every round, and without the return flow the shared
	// pool would starve while shard lists sit at their caps.
	for i, g := range globals {
		s.recycleEvent(g)
		globals[i] = nil
	}
	for i := range splitArrivals {
		splitArrivals[i] = nil
	}
	s.globalScratch, s.arrScratch = globals[:0], splitArrivals[:0]
	const shardFreeFloor = 8
	for _, h := range s.hosts {
		sh := h.shard
		if n := len(sh.free); n > shardFreeFloor {
			s.evFree = append(s.evFree, sh.free[shardFreeFloor:]...)
			for i := shardFreeFloor; i < n; i++ {
				sh.free[i] = nil
			}
			sh.free = sh.free[:shardFreeFloor]
		}
	}

	return s.closeEventRound(end, arrivals), nil
}

// crossLess is the cross-shard event tie-break: (instant, kind) only —
// per-shard seq counters are meaningless between shards, so merges
// realize the canonical host-index tie-break with an ascending host
// scan using strict-less replacement.
func crossLess(a, b *event) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.kind < b.kind
}

// runWindow advances every shard to the barrier. A retirement — the one
// global action that can land at a data-dependent instant mid-window —
// can only originate on a shard hosting a live draining instance, so
// serialization is confined to exactly those shards: they advance in
// canonical merge order until the earliest retirement, the rest of the
// fleet catches up to that instant in parallel, the retirement lands
// and re-arbitrates, and the cycle repeats. Fleets with no live drains
// (the common case, and the entire scale benchmark) go straight to
// runParallel; fleets draining one instance serialize one shard instead
// of all of them.
func (s *Supervisor) runWindow(barrier time.Time) error {
	for {
		drains := s.drainingShards()
		if len(drains) == 0 {
			return s.runParallel(barrier)
		}
		tr, inst, err := s.runUntilRetire(drains, barrier)
		if err != nil {
			return err
		}
		if inst == nil {
			// No retirement fires before the barrier: the drain shards
			// are already there; fan the rest out in parallel.
			return s.runParallel(barrier)
		}
		// Bring every other shard exactly to the retirement instant,
		// land it, re-divide the budget, and continue the window.
		if err := s.runParallel(tr); err != nil {
			return err
		}
		s.retireAt(inst, tr)
		s.drainsValid = false
		s.arbitrate(tr)
	}
}

// inlineEventBudget is how many events of a window the coordinator
// serves on its own goroutine before handing the rest to the worker
// pool. Starting the pool costs a fixed ≈ 1.4 µs per window on one
// thread (goroutine start and stack growth, WaitGroup, the LPT sort)
// and ≈ 2.4 µs across two, an event ≈ 0.3 µs, and under
// join-shortest-queue dispatch every arrival is a barrier, so most
// windows hold a handful of events. 64 is the smallest power of four
// past the measured knee (fleet_openloop op_ms_p50 at 16: 2.25 ms, at
// 64: 1.99, at 256: 2.00; serve_ingress is flat, 3.0, from 16 up) and
// bounds what a wide window loses to the serial prefix: 64 of a
// 128-host saturated window's 5,120 events. Events served are counted,
// not estimated from queue lengths: pending events understate a
// saturated window forty-fold and overstate a serving one, and a count
// keeps the inline-or-pool decision reproducible. See
// docs/ARCHITECTURE.md.
const inlineEventBudget = 64

// runParallel advances the shards with work before end, skipping shards
// marked excluded (drain shards, serialized by runUntilRetire — a
// retirement surfacing inside a parallel run would break the
// coordinator invariant). Work first: the caller serves shards in host
// order against one shared event budget, and a window that finishes
// inside it starts no goroutine, allocates nothing and sorts nothing.
// Otherwise the unfinished shards — the interrupted one included, which
// resumes — go to fanOut. Workers: 1 has no pool, hence no budget.
func (s *Supervisor) runParallel(end time.Time) error {
	s.windows++
	budget := inlineEventBudget
	if s.inlineBudget != 0 {
		budget = s.inlineBudget
	}
	if s.cfg.Workers <= 1 {
		budget = math.MaxInt
	}
	work := s.workScratch[:0]
	for _, h := range s.hosts {
		sh := h.shard
		// Shards with fluid residents but no discrete events still need
		// the window: their flows render to end (and may re-materialize
		// into discrete work) inside run.
		if sh.excluded || !(sh.hasWorkBefore(end) || len(sh.fluidInsts) > 0) {
			continue
		}
		if budget > 0 {
			served, done := sh.run(end, budget)
			if sh.err != nil {
				return sh.err
			}
			budget -= served
			if done {
				continue
			}
		}
		work = append(work, sh)
	}
	if len(work) == 0 {
		return nil
	}
	err := s.fanOut(work, end)
	for i := range work {
		work[i] = nil
	}
	s.workScratch = work[:0]
	return err
}

// fanOut runs the given shards to end on the worker pool. The work list
// is ordered longest-processing-time first (pending events plus fluid
// residents) so a skewed fleet — a few heavy hosts among many light
// ones — starts its stragglers first instead of discovering them last.
func (s *Supervisor) fanOut(work []*shard, end time.Time) error {
	workers := s.cfg.Workers
	if workers > len(work) {
		workers = len(work)
	}
	if workers <= 1 {
		for _, sh := range work {
			sh.run(end, math.MaxInt)
		}
	} else {
		s.fanOuts++
		sort.SliceStable(work, func(i, j int) bool {
			wi := len(work[i].eq) + len(work[i].fluidInsts)
			wj := len(work[j].eq) + len(work[j].fluidInsts)
			return wi > wj
		})
		// A bounded pool pulling shard indices from an atomic cursor:
		// shards touch disjoint state between barriers, so scheduling
		// order cannot affect results — only wall-clock time.
		var cursor atomic.Int64
		cursor.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := cursor.Add(1)
					if i >= int64(len(work)) {
						return
					}
					work[i].run(end, math.MaxInt)
				}
			}()
		}
		wg.Wait()
	}
	for _, sh := range work {
		if sh.err != nil {
			return sh.err
		}
	}
	return nil
}

// runUntilRetire advances the drain shards — and only them — in
// canonical (instant, kind, host index, seq) merge order until the
// earliest retirement event before the barrier, returning its instant
// and instance with the event consumed but NOT applied (the caller
// synchronizes the fleet to that instant first). Returns a nil instance
// once the drain shards reach the barrier with no retirement.
func (s *Supervisor) runUntilRetire(drains []*shard, barrier time.Time) (time.Time, *Instance, error) {
	for {
		var best *shard
		for _, sh := range drains {
			if !sh.hasWorkBefore(barrier) {
				continue
			}
			if best == nil || crossLess(sh.peek(), best.peek()) {
				best = sh
			}
		}
		if best == nil {
			// Discrete events exhausted: render these shards' fluid
			// flows to the barrier. A re-materialization schedules new
			// discrete work inside the window, so resume the merge.
			mat := false
			for _, sh := range drains {
				if sh.drainFluidTo(barrier) {
					mat = true
				}
			}
			if mat {
				continue
			}
			return time.Time{}, nil, nil
		}
		ev := best.popHeap()
		if ev.kind == evRetire {
			inst, at := ev.inst, ev.at
			best.recycle(ev)
			if inst.retired {
				// A stop or an earlier retirement raced it; skip.
				continue
			}
			return at, inst, nil
		}
		best.handle(ev)
		best.recycle(ev)
		if best.err != nil {
			return time.Time{}, nil, best.err
		}
	}
}

// drainingShards returns the shards hosting a live draining instance,
// in host-index order, marked excluded for runParallel. Draining only
// begins at place and fault landings and ends at retirements, so the
// answer is cached and recomputed only after one of those (drainsValid)
// — neither an arrival barrier nor a round boundary rescans the fleet.
func (s *Supervisor) drainingShards() []*shard {
	if !s.drainsValid {
		for _, sh := range s.drainScratch {
			sh.excluded = false
		}
		drains := s.drainScratch[:0]
		for _, inst := range s.insts {
			if !inst.retired && inst.draining && inst.host != nil && !inst.host.shard.excluded {
				inst.host.shard.excluded = true
				drains = append(drains, inst.host.shard)
			}
		}
		sort.Slice(drains, func(i, j int) bool { return drains[i].host.index < drains[j].host.index })
		s.drainScratch, s.drainsValid = drains, true
	}
	if s.drainCheck != nil {
		s.drainCheck(s.drainScratch)
	}
	return s.drainScratch
}

// flushShardTraces merges each shard's window-local trace buffer into
// the global trace: buffers concatenate in host-index order, then the
// window's batch stable-sorts by instant — deterministic for any
// Workers value, with per-shard relative order preserved at equal
// instants. Trace ROW ORDER is the one observable the engine does not
// reproduce byte-for-byte from the single-heap test oracle: both emit
// the same trace as a multiset (the differential tests compare
// canonically sorted traces), but simultaneous events of different
// hosts interleave in engine-specific (deterministic) order, and a
// completion whose beat overran the window boundary books late on
// both.
func (s *Supervisor) flushShardTraces() {
	if !s.cfg.RecordTrace {
		return
	}
	n := len(s.trace)
	for _, h := range s.hosts {
		if sh := h.shard; len(sh.trace) > 0 {
			s.trace = append(s.trace, sh.trace...)
			sh.trace = sh.trace[:0]
		}
	}
	batch := s.trace[n:]
	sort.SliceStable(batch, func(i, j int) bool { return batch[i].At.Before(batch[j].At) })
}
