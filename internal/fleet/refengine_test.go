package fleet

import (
	"container/heap"
	"time"
)

// refEngine is the single-heap reference the differential tests hold
// the production engine to: one global (at, kind, seq) heap orders every
// event of every instance and one strictly sequential loop pumps it. It
// shares seedRound, serve, the landings, and closeEventRound with
// production, so the only thing compared is event ordering.
type refEngine struct {
	s          *Supervisor
	eq         eventQueue
	seq        uint64
	fluidInsts []*Instance
}

// newRefEngine attaches the reference to an unstepped supervisor.
func newRefEngine(s *Supervisor) *refEngine {
	e := &refEngine{s: s}
	s.refSink = e
	return e
}

type eventQueue []*event

func (q eventQueue) Len() int            { return len(q) }
func (q eventQueue) Less(i, j int) bool  { return eventLess(q[i], q[j]) }
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// push enqueues an event, stamping the deterministic FIFO sequence.
func (e *refEngine) push(ev *event) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.eq, ev)
}

func (e *refEngine) activate(inst *Instance, t time.Time) {
	if inst.retired || inst.scheduled || inst.fluid {
		return
	}
	inst.scheduled = true
	e.push(&event{at: t, kind: evServe, inst: inst})
}

func (e *refEngine) scheduleRetire(inst *Instance, t time.Time) {
	e.push(&event{at: t, kind: evRetire, inst: inst})
}

func (e *refEngine) record(ev TraceEvent) { e.s.record(ev) }

func (e *refEngine) registerFluid(inst *Instance) { e.fluidInsts = append(e.fluidInsts, inst) }

// drainAllFluid renders every fluid instance up to u, dropping the ones
// that re-materialized.
func (e *refEngine) drainAllFluid(u time.Time) {
	live := e.fluidInsts[:0]
	for _, inst := range e.fluidInsts {
		if inst.fluid {
			e.s.drainFluid(inst, u, e)
		}
		if inst.fluid {
			live = append(live, inst)
		}
	}
	e.fluidInsts = live
}

// Step is Supervisor.Step with the round loop swapped for the heap.
func (e *refEngine) Step(gen *LoadGen) (RoundStats, error) {
	s := e.s
	start := s.Now()
	end := start.Add(s.cfg.Quantum)
	arrivals, acc := s.seedRound(gen, start, end, e.push, e.activate)

	for len(e.eq) > 0 && e.eq[0].at.Before(end) {
		ev := heap.Pop(&e.eq).(*event)
		if ev.kind != evServe {
			// Global events observe fleet-wide state: render every fluid
			// flow up to this instant first. If a re-materialized instance
			// scheduled continuations earlier than this event, put it back
			// (keeping its seq) and run those beats first.
			e.drainAllFluid(ev.at)
			if len(e.eq) > 0 && eventLess(e.eq[0], ev) {
				heap.Push(&e.eq, ev)
				continue
			}
		}
		switch ev.kind {
		case evCap:
			s.arb.SetBudget(ev.watts)
			s.record(TraceEvent{At: ev.at, Kind: TraceCap, Instance: -1, Host: -1, State: -1, Value: ev.watts})
			s.arbitrate(ev.at)
		case evFault:
			s.landFault(ev.at, ev.fault)
			s.arbitrate(ev.at)
			acc = s.acceptingByGroup()
			s.redispatchPending(acc, e.activate, ev.at)
		case evPlace:
			if !s.landPlace(ev.at, ev.place) {
				break
			}
			s.arbitrate(ev.at)
			acc = s.acceptingByGroup()
			s.redispatchPending(acc, e.activate, ev.at)
		case evTick:
			s.arbitrate(ev.at)
		case evRetire:
			// A stop or an earlier retire may have raced it (stops sort
			// first), so re-check.
			if !ev.inst.retired {
				s.retireAt(ev.inst, ev.at)
				s.arbitrate(ev.at)
			}
		case evArrival:
			s.record(TraceEvent{At: ev.at, Kind: TraceArrival, Instance: -1, Host: -1, State: -1, Group: s.groups[ev.req.Group].name})
			if tgt := s.dispatch(acc[ev.req.Group], ev.req); tgt != nil {
				e.activate(tgt, ev.at)
			} else {
				s.pending = append(s.pending, ev.req)
			}
		case evServe:
			if err := s.serve(ev.at, ev.inst, e); err != nil {
				return RoundStats{}, err
			}
		}
	}
	e.drainAllFluid(end)

	rs := s.closeEventRound(end, arrivals)
	if s.anyScaler() {
		if err := s.applyAutoscale(rs); err != nil {
			return rs, err
		}
	}
	return rs, nil
}
