package fleet

// This file is the fluid half of the hybrid fluid/discrete engine
// (Scenario.Fluid). The discrete engine simulates every iteration of
// every request as an event; at thousand-host scale with deep queues,
// nearly all of those events are predictable — a backlogged instance
// under a fixed operating point drains FIFO at its measured service
// rate. Fluid mode exploits exactly that: when an instance's queue
// reaches the configured threshold (observed at a request completion,
// where the service estimate is freshest), the instance leaves the
// event timeline and its backlog drains as an analytic flow.
//
// The flow is rendered lazily at drain points — instants at which some
// other part of the system needs the instance's true state:
//
//   - every coordinator barrier / global event instant (arbiter ticks,
//     cap, fault, and placement landings, JSQ arrival dispatch), so
//     budget division and routing always see exact queue depths;
//   - an arrival landing directly on a fluid instance (pre-routed
//     split dispatch), so the queue it joins is current;
//   - the round close, so per-round stats and percentile windows are
//     exact.
//
// Rendering replays the span since the last drain point: each queued
// request completes at its analytic instant (booked with exact
// latency, trace event, and counters — indistinguishable from a
// discrete completion downstream), and busy time flows to the machine
// through platform.Machine.Run, so host utilization and energy
// integrate identically to the discrete path.
//
// Re-materialization: the instance re-enters discrete service when its
// queue shallows below half the threshold (hysteresis, so it does not
// flap), and is forced back eagerly whenever the quasi-static premise
// breaks — its host's DVFS state changes, a fault lands on it, or it
// migrates or stops. Forced exits first render the flow up to the exit
// instant, so no service or energy is lost; partial progress on the
// head request (which has no beat-boundary representation) is the one
// discarded quantity, bounded by a single request per forced exit.
//
// Determinism: fluid state only changes in supervisor context or on
// the instance's own shard, drain points are the same instants at every
// Workers value (and on the single-heap test oracle), and the analytic
// completion instants are pure arithmetic — so fluid runs are
// bit-identical across Workers values, and Fluid=0 is byte-identical to
// the pure discrete run (no fluid code touches the hot path when
// disabled).

import "time"

// itersOf resolves how many iterations the request covers on this
// instance — the request's own cap, else its stream's full length.
func (inst *Instance) itersOf(req *Request) int {
	n := inst.streams[req.StreamIdx%len(inst.streams)].Len()
	if req.Iters > 0 && req.Iters < n {
		n = req.Iters
	}
	if n < 1 {
		n = 1
	}
	return n
}

// needOf is the analytic service need of a request in seconds, at the
// instance's measured per-iteration service time.
func (inst *Instance) needOf(req *Request) float64 {
	return inst.svcPerIter * float64(inst.itersOf(req))
}

// observeService folds one completed request's measured service time
// into the per-iteration EWMA the fluid drain rate is derived from.
// Called from finishRequest, so only discretely served requests update
// it — the estimate is frozen while fluid, which is why fluid exits
// eagerly when the operating point changes.
func (inst *Instance) observeService(dur float64, iters int) {
	if dur <= 0 || iters < 1 {
		return
	}
	per := dur / float64(iters)
	if inst.svcOK {
		inst.svcPerIter = 0.5*inst.svcPerIter + 0.5*per
	} else {
		inst.svcPerIter, inst.svcOK = per, true
	}
}

// fluidExitDepth is the re-materialization threshold: half the entry
// threshold (at least 1), so entry and exit hysteresis keeps an
// instance from flapping between regimes every request.
func (s *Supervisor) fluidExitDepth() int {
	d := s.cfg.Fluid / 2
	if d < 1 {
		d = 1
	}
	return d
}

// maybeEnterFluid moves an instance onto the fluid timeline if the
// entry conditions hold: fluid mode on, a deep enough queue, a usable
// service estimate, and a steady instance (not draining, stopping,
// self-feeding, or on a downed host). Called from serve at a request
// completion — the only point where the estimate was just refreshed.
// Returns true when the instance entered (the caller must then NOT
// schedule a discrete continuation).
func (s *Supervisor) maybeEnterFluid(inst *Instance, now time.Time, sink engineSink) bool {
	if s.cfg.Fluid <= 0 || inst.fluid || !inst.svcOK || inst.selfFeed ||
		inst.draining || inst.stopping || len(inst.queue) < s.cfg.Fluid {
		return false
	}
	if h := inst.host; h == nil || h.down {
		return false
	}
	inst.fluid = true
	inst.fluidClock = now
	inst.fluidNeed = inst.needOf(inst.queue[0])
	sink.registerFluid(inst)
	sink.record(TraceEvent{At: now, Kind: TraceFluid, Instance: inst.id, Host: inst.HostIndex(), State: 1, Value: float64(len(inst.queue)), Group: inst.grp.name})
	return true
}

// drainFluid renders an instance's analytic flow up to u: every queued
// request whose completion instant falls in (fluidClock, u] books at
// that exact instant — latency, counters, loss, trace, machine busy
// time — and the head's partial progress carries in fluidNeed. The
// instance re-materializes mid-drain if its queue shallows below the
// exit depth. Safe from shard context: it touches only the instance,
// its machine view, and the sink.
//
//fleetvet:noalloc
func (s *Supervisor) drainFluid(inst *Instance, u time.Time, sink engineSink) {
	exitDepth := s.fluidExitDepth()
	for inst.fluid {
		span := u.Sub(inst.fluidClock)
		if span <= 0 {
			return
		}
		need := time.Duration(inst.fluidNeed * float64(time.Second))
		if need > span {
			// The head request is still in service at u: render the
			// span's busy time and carry the remainder.
			inst.view.Run(span)
			inst.fluidNeed -= span.Seconds()
			inst.fluidClock = u
			return
		}
		tc := inst.fluidClock.Add(need)
		inst.view.Run(need)
		inst.fluidClock = tc
		req := inst.popRequest()
		lat := tc.Sub(req.Arrival).Seconds()
		inst.completed++
		inst.latencies = append(inst.latencies, lat)
		inst.allLats = append(inst.allLats, lat)
		inst.lossSum += inst.lastLoss
		inst.freeRequest(req)
		sink.record(TraceEvent{At: tc, Kind: TraceComplete, Instance: inst.id, Host: inst.HostIndex(), State: -1, Value: lat, Group: inst.grp.name})
		if len(inst.queue) < exitDepth {
			s.exitFluid(inst, tc, sink, true)
			return
		}
		inst.fluidNeed = inst.needOf(inst.queue[0])
	}
}

// exitFluid re-materializes an instance onto the discrete timeline at
// t. With reactivate, a service continuation is scheduled at t, so the
// head request (whose partial fluid progress, if any, is discarded)
// serves discretely from the next instant.
func (s *Supervisor) exitFluid(inst *Instance, t time.Time, sink engineSink, reactivate bool) {
	if !inst.fluid {
		return
	}
	inst.fluid = false
	inst.fluidNeed = 0
	sink.record(TraceEvent{At: t, Kind: TraceFluid, Instance: inst.id, Host: inst.HostIndex(), State: 0, Value: float64(len(inst.queue)), Group: inst.grp.name})
	if reactivate && !inst.retired {
		sink.activate(inst, t)
	}
}

// forceExitFluid renders an instance's flow up to t and drops it back
// to the discrete timeline — the eager exit used when the operating
// point changes under it (DVFS reassignment, fault landing, migration,
// stop). Supervisor context only.
func (s *Supervisor) forceExitFluid(inst *Instance, t time.Time, reactivate bool) {
	if !inst.fluid {
		return
	}
	sink := s.fluidSink(inst)
	s.drainFluid(inst, t, sink)
	s.exitFluid(inst, t, sink, reactivate)
}

// fluidSink resolves the engineSink an instance's fluid bookkeeping
// must publish through: its host's shard (a fluid instance is always
// placed), unless the test oracle drives the fleet.
func (s *Supervisor) fluidSink(inst *Instance) engineSink {
	if s.refSink != nil {
		return s.refSink
	}
	return inst.host.shard
}
