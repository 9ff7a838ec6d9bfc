package fleet

import (
	"fmt"
	"time"

	"repro/internal/platform"
)

// evKind orders simultaneous events: cap changes land first, fault
// landings and recoveries next (so a crash at the same instant as a
// placement sees the old placement gone from its host only after the
// fault displaced the work, and the arbiter tick both precede sees the
// new budget, the fault state, and the new placement), placement
// changes after faults, drain retirements after the tick (freeing
// their budget share before new work is delivered), arrivals are
// delivered before service continuations at the same instant, and
// everything is FIFO within a kind (seq). The kind order is the
// canonical tie-break: the coordinator merges per-shard queues by
// (instant, kind, host index, per-shard seq), and every same-instant
// same-kind pair commutes (serves touch disjoint instances, retirements
// re-arbitrate idempotently, simultaneous faults land in stable
// schedule order), so the engine is bit-identical to the single-heap
// test oracle (refengine_test.go) at every Workers value.
type evKind int8

const (
	evCap evKind = iota
	evFault
	evPlace
	evTick
	evRetire
	evArrival
	evServe
)

// event is one entry of the discrete-event queue. Field order keeps
// the 8-byte-aligned fields contiguous: the 1-byte kind sits last so
// its alignment fill coalesces with the tail padding instead of
// splitting the pointer fields mid-struct (layout pinned by
// TestHotStructSizes).
type event struct {
	at    time.Time
	seq   uint64
	inst  *Instance   // evServe, evRetire; dispatch target for sharded evArrival
	req   *Request    // evArrival
	watts float64     // evCap
	place placeChange // evPlace
	fault faultChange // evFault
	kind  evKind
}

// eventLess is the deterministic (at, kind, seq) order of each shard's
// local queue (and of the test oracle's single heap).
func eventLess(a, b *event) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// engineSink is where the shared service path (serve, fluid.go)
// publishes its side effects: a shard pushes into its own queue and
// buffers trace events locally (merged at the next barrier). The
// interface exists so the single-heap test oracle can substitute its
// global queue and drive the very same serve path.
type engineSink interface {
	// activate schedules the instance's next service continuation at t.
	activate(inst *Instance, t time.Time)
	// scheduleRetire enqueues a drain retirement event at t: the
	// instance's queue emptied, so it leaves the fleet and the freed
	// budget share is re-arbitrated — a global action, which is why it
	// is a first-class event rather than an inline side effect.
	scheduleRetire(inst *Instance, t time.Time)
	// record appends a trace event (no-op unless tracing is enabled).
	record(ev TraceEvent)
	// registerFluid tracks an instance that just entered fluid mode
	// (fluid.go), so the engine drains its analytic flow at every
	// subsequent drain point (global events, window barriers, round
	// closes) until it re-materializes.
	registerFluid(inst *Instance)
}

// newEvent pops a recycled event from the supervisor's free list — the
// pattern each shard already uses locally — so steady-state rounds
// reuse one working set of event structs instead of allocating per
// tick, arrival, and continuation.
//
//fleetvet:noalloc
func (s *Supervisor) newEvent() *event {
	if n := len(s.evFree); n > 0 {
		ev := s.evFree[n-1]
		s.evFree[n-1] = nil
		s.evFree = s.evFree[:n-1]
		return ev
	}
	return &event{}
}

// mkEvent is newEvent plus the two fields every event carries.
func (s *Supervisor) mkEvent(at time.Time, kind evKind) *event {
	ev := s.newEvent()
	ev.at, ev.kind = at, kind
	return ev
}

// recycleEvent returns a dead event to the free list, zeroed so stale
// Instance/Request pointers cannot leak through reuse.
//
//fleetvet:noalloc
func (s *Supervisor) recycleEvent(ev *event) {
	*ev = event{}
	s.evFree = append(s.evFree, ev)
}

// closeSegment integrates one host's power over a segment of constant
// DVFS state ending at t: utilization is the residents' busy time
// accumulated in the segment over segment length times cores. Called on
// every host state change, placement change, and round close, so energy
// follows the event timeline instead of quantum-averaged frequency.
func (s *Supervisor) closeSegment(h *Host, t time.Time) {
	dt := t.Sub(h.segStart)
	if dt <= 0 {
		return
	}
	var busy time.Duration
	for _, inst := range h.residents {
		b, _ := inst.view.Times()
		delta := b - inst.prevBusy
		if delta > dt {
			// A beat straddles the segment boundary (beats are atomic,
			// so their busy time books all at once): attribute only the
			// in-segment share here and carry the overshoot forward to
			// the next segment instead of silently clamping it away.
			inst.prevBusy += dt
			delta = dt
		} else {
			inst.prevBusy = b
		}
		busy += delta
	}
	util := busy.Seconds() / (dt.Seconds() * float64(h.cores))
	if util > 1 {
		util = 1
	}
	power := s.cfg.Power.Power(platform.Frequencies[h.state], util)
	if h.down {
		// A crashed host draws nothing: segments are cut at the crash
		// and recovery landings, so down segments are exactly the outage.
		power = 0
	}
	e := power * dt.Seconds()
	h.energy += e
	h.roundEnergy += e
	h.roundBusy += busy
	s.energy += e
	h.segStart = t
}

// retireAt retires a drained instance at the exact virtual instant its
// queue emptied, closing its host's power segment and re-dividing the
// multiplexing share among the survivors immediately.
func (s *Supervisor) retireAt(inst *Instance, t time.Time) {
	h := inst.host
	s.closeSegment(h, t)
	h.removeResident(inst)
	h.applySharesAt(t)
	inst.host = nil
	inst.retired = true
	s.record(TraceEvent{At: t, Kind: TraceRetire, Instance: inst.id, Host: h.index, State: -1, Group: inst.grp.name})
}

// serve is one service continuation for an instance: catch its lagging
// clock up to the event time, start the next queued request if idle,
// execute one beat, and book the completion if the request finished.
// Each completed beat schedules the next continuation at the exact
// virtual time the beat ended, so DVFS caps and arbiter decisions
// landing between beats govern the very next beat. It touches only the
// instance and the sink, which is what lets shards of the parallel
// engine serve disjoint instance sets concurrently.
//
//fleetvet:noalloc
func (s *Supervisor) serve(now time.Time, inst *Instance, sink engineSink) error {
	inst.scheduled = false
	if inst.retired {
		return nil
	}
	if h := inst.host; h != nil && h.down {
		// The host crashed underneath the instance: it serves nothing
		// until the outage ends; look again at the recovery instant (the
		// idle gap books at catch-up, like the migration blackout).
		sink.activate(inst, h.downUntil)
		return nil
	}
	if inst.pausedUntil.After(now) {
		// Migration blackout: resume at its end.
		sink.activate(inst, inst.pausedUntil)
		return nil
	}
	// The instance clock is read once here and once after the beat:
	// nothing but Idle and Step advances it in between, so any other
	// read would return a value already in hand. A read is an atomic
	// load plus time.Time arithmetic, cheap but not free.
	c := inst.clk.Now()
	if c.Before(now) {
		// The instance idled (or sat in blackout) since its last beat:
		// advance its view to the event time, charging idle power for
		// exactly the gap — no quantum-boundary idle fill. Idle advances
		// the clock by the gap, so c.Add(gap) is the clock's own value.
		gap := now.Sub(c)
		inst.view.Idle(gap)
		c = c.Add(gap)
	}
	if inst.sess == nil {
		if len(inst.queue) == 0 {
			if inst.selfFeed {
				req := inst.takeRequest()
				req.ID, req.Group, req.StreamIdx, req.Iters, req.Arrival = -1, inst.grp.index, inst.feedIdx, inst.reqIters, c
				inst.queue = append(inst.queue, req)
				inst.feedIdx++
				inst.minted++
				sink.record(TraceEvent{At: c, Kind: TraceArrival, Instance: inst.id, Host: -1, State: -1, Group: inst.grp.name})
			} else {
				if inst.draining {
					// Retirement changes the host's demand and re-divides
					// the budget — a global action, scheduled as a
					// first-class retire event at this exact instant.
					sink.scheduleRetire(inst, c)
				}
				return nil // idle until the next dispatch re-activates
			}
		}
		inst.cur = inst.popRequest()
		inst.startSession(inst.cur)
		inst.sessStart = c
	}
	done, err := inst.sess.Step()
	if err != nil {
		return fmt.Errorf("instance %d: %w", inst.id, err)
	}
	c = inst.clk.Now()
	if done {
		if inst.sess.Drained() {
			// The runtime is winding down (hard stop): park until the
			// boundary sweep retires the instance.
			inst.aborted++
			inst.endSession(inst.cur)
			inst.freeRequest(inst.cur)
			inst.sess, inst.cur = nil, nil
			return nil
		}
		if !c.After(inst.sessStart) {
			return fmt.Errorf("fleet: request on instance %d completed without advancing virtual time (zero-cost stream?)", inst.id)
		}
		lat := inst.finishRequest(c)
		sink.record(TraceEvent{At: c, Kind: TraceComplete, Instance: inst.id, Host: inst.HostIndex(), State: -1, Value: lat, Group: inst.grp.name})
		// A completion is the one instant where the service estimate is
		// fresh: if the queue is deep enough, leave the event timeline
		// and let the backlog drain as an analytic flow (fluid.go).
		if s.maybeEnterFluid(inst, c, sink) {
			return nil
		}
	}
	sink.activate(inst, c)
	return nil
}

// seedRound assembles one round's inputs, shared with the test oracle
// so their bit-identity cannot rot in two hand-synchronized copies.
// Global events — arbiter ticks, due cap and placement changes
// (past-due ones clamp to the round start; due* returns them in
// virtual-time order so the latest-scheduled change wins a tie), and
// open-loop arrival instants — are handed to emit in canonical push
// order (ticks, caps, places, then each group's arrivals in
// declaration order; caps at the same instant still sort ahead of the
// tick by kind, so a cap always lands before the arbitration that must
// honor it). Offered load is delivered the shared way, one stream per
// group: first the undispatched backlog is re-offered, each request
// within its own group; then saturating generators top their group's
// queues up at the boundary and mark the instances self-feeding, and
// open-loop generators mint this round's arrival instants. Finally
// every instance holding (or self-feeding) work is woken via wake;
// instances mid-beat from the previous round already hold a
// continuation and are skipped by the scheduled flag. The returned
// per-group accepting sets are what arrivals dispatch against until
// the first placement landing refreshes them (a mid-round retirement
// only reaches draining instances, which already left the sets).
func (s *Supervisor) seedRound(gen *LoadGen, start, end time.Time, emit func(*event), wake func(*Instance, time.Time)) (arrivals int, acc [][]*Instance) {
	for t := start; t.Before(end); t = t.Add(s.cfg.ArbiterInterval) {
		emit(s.mkEvent(t, evTick))
	}
	for _, c := range s.dueCaps(end) {
		at := c.at
		if at.Before(start) {
			at = start
		}
		ev := s.mkEvent(at, evCap)
		ev.watts = c.watts
		emit(ev)
	}
	for _, p := range s.duePlaces(end) {
		at := p.at
		if at.Before(start) {
			at = start
		}
		ev := s.mkEvent(at, evPlace)
		ev.place = p
		emit(ev)
	}
	if s.faultOpts != nil {
		// The fault model emits once per round; landings and recoveries
		// both pre-schedule (a fault's duration is known at emission), so
		// the coordinator never has to insert a barrier mid-window.
		for _, fe := range s.faultOpts.Model.Events(s.round, start, s.cfg.Quantum, len(s.hosts)) {
			s.scheduleFault(fe)
		}
		for _, f := range s.dueFaults(end) {
			at := f.at
			if at.Before(start) {
				at = start
			}
			ev := s.mkEvent(at, evFault)
			ev.fault = f
			emit(ev)
		}
	}

	for _, inst := range s.insts {
		inst.selfFeed = false
	}
	acc = s.acceptingByGroup()
	anyGen := false
	for gi := range s.groups {
		if s.groupGen(gi, gen) != nil {
			anyGen = true
		}
	}
	if anyGen {
		// Backlog re-offers only for groups fed open-loop this round —
		// a saturating group's queues are topped up to their depth, not
		// stuffed with parked backlog. Placement landings still re-offer
		// unconditionally.
		open := make([]bool, len(s.groups))
		for gi, g := range s.groups {
			if ggen := s.groupGen(gi, gen); ggen != nil {
				s.ensureBaselines(g, ggen.reqIters)
				_, sat := ggen.Saturating()
				open[gi] = !sat
			}
		}
		var still []*Request
		for _, req := range s.pending {
			if !open[req.Group] {
				still = append(still, req)
				continue
			}
			s.ensureBaselines(s.groups[req.Group], req.Iters)
			if tgt := s.dispatch(acc[req.Group], req); tgt == nil {
				still = append(still, req)
			}
		}
		s.pending = still
		for gi, g := range s.groups {
			ggen := s.groupGen(gi, gen)
			if ggen == nil {
				continue
			}
			if depth, ok := ggen.Saturating(); ok {
				for _, inst := range acc[gi] {
					inst.selfFeed = true
					inst.reqIters = ggen.reqIters
					for inst.QueueDepth() < depth {
						req := ggen.nextInto(s.takeRequest(), start)
						req.Group = gi
						inst.queue = append(inst.queue, req)
						arrivals++
						g.roundArrivals++
						s.record(TraceEvent{At: start, Kind: TraceArrival, Instance: inst.id, Host: -1, State: -1, Group: g.name})
					}
				}
			} else {
				for _, at := range ggen.eventTimes(s.round, start, s.cfg.Quantum) {
					req := ggen.nextInto(s.takeRequest(), at)
					req.Group = gi
					ev := s.mkEvent(at, evArrival)
					ev.req = req
					emit(ev)
					arrivals++
					g.roundArrivals++
				}
			}
		}
	}
	if s.hasInjected {
		s.seedInjected(gen, start, end, emit, acc, &arrivals)
	}
	for _, inst := range s.insts {
		if !inst.retired && (inst.sess != nil || len(inst.queue) > 0 || inst.selfFeed) {
			wake(inst, start)
		}
	}
	return arrivals, acc
}

// closeEventRound finishes a round: integrate each host's final power
// segment, drain the shared per-round counters, and publish the round.
func (s *Supervisor) closeEventRound(end time.Time, arrivals int) RoundStats {
	quantumSec := s.cfg.Quantum.Seconds()
	rs := RoundStats{Round: s.round, Budget: s.arb.Budget(), Arrivals: arrivals}
	for _, h := range s.hosts {
		s.closeSegment(h, end)
		util := h.roundBusy.Seconds() / (quantumSec * float64(h.cores))
		if util > 1 {
			util = 1
		}
		power := h.roundEnergy / quantumSec
		rs.PowerWatts += power
		rs.Hosts = append(rs.Hosts, HostStats{
			Index:      h.index,
			State:      h.state,
			FreqGHz:    platform.Frequencies[h.state],
			Util:       util,
			PowerWatts: power,
			Residents:  len(h.residents),
		})
		h.roundEnergy, h.roundBusy = 0, 0
	}
	s.drainRoundCounters(&rs)
	s.record(TraceEvent{At: end, Kind: TraceRound, Instance: -1, Host: -1, State: -1, Value: rs.PowerWatts})
	s.rounds = append(s.rounds, rs)
	s.round++
	return rs
}
