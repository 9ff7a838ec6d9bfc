package fleet

// This file is the fleet's serving surface: the hooks the wall-clock
// serving mode (internal/serve) drives the deterministic event engine
// through. A live Gateway receives requests in wall time, admission
// control decides accept-or-shed, and accepted requests are injected
// onto the virtual timeline at their true receive instants
// (InjectArrivalAt); shed decisions are booked against the fleet's
// stats and trace (RecordShed). StateSnapshot/NewFromSnapshot capture
// and rebuild the fleet's provisioning state so a digital-twin replica
// can replay what-if scenarios faster than real time on the virtual
// engine and feed the result forward into the autoscaler.

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// injectedArrival is one externally received request waiting to enter
// the event timeline: it becomes an evArrival event in the round
// covering its instant (past-due instants clamp to the round start,
// the same policy scheduled caps and placements follow).
type injectedArrival struct {
	at     time.Time
	group  int
	iters  int
	stream int
	id     int
}

// Quantum returns the fleet's control quantum — the reporting round
// length the serving mode paces against the wall clock.
func (s *Supervisor) Quantum() time.Duration { return s.cfg.Quantum }

// InjectArrivalAt hands one externally received request to the fleet,
// to arrive on the virtual timeline at the given instant: the serving
// gateway's bridge from wall time into the deterministic event engine.
// The request covers iters iterations of one of the group's production
// streams (0 = a whole stream; streams cycle per group). Instants
// inside an already-simulated round clamp to the next round's start —
// a late arrival is folded in at the earliest instant the engine has
// not yet passed. Returns the injected request's id.
func (s *Supervisor) InjectArrivalAt(at time.Time, group, iters int) (int, error) {
	if group < 0 || group >= len(s.groups) {
		return 0, fmt.Errorf("fleet: group %d out of range [0,%d]", group, len(s.groups)-1)
	}
	if iters < 0 {
		iters = 0
	}
	g := s.groups[group]
	id := s.injectSeq
	s.injectSeq++
	s.injected = append(s.injected, injectedArrival{
		at: at, group: group, iters: iters, stream: g.injectIdx, id: id,
	})
	g.injectIdx++
	s.hasInjected = true
	return id, nil
}

// InjectedPending returns how many injected arrivals have not yet been
// delivered to the event timeline (their instants lie past the rounds
// simulated so far) — the serving mode's conservation checks count
// them as in-flight.
func (s *Supervisor) InjectedPending() int { return len(s.injected) }

// seedInjected delivers the injected arrivals due in [start, end) as
// evArrival events through the shared emit callback, so the engine
// handles gateway traffic exactly as it handles open-loop load.
// Gateway-only groups (no LoadGen) also re-offer their parked backlog
// here — the generator path's re-offer never runs for them.
func (s *Supervisor) seedInjected(gen *LoadGen, start, end time.Time, emit func(*event), acc [][]*Instance, arrivals *int) {
	if len(s.pending) > 0 {
		var still []*Request
		for _, req := range s.pending {
			if s.groupGen(req.Group, gen) != nil {
				// Generator-fed groups already follow the open/parked
				// policy of the generator seed path.
				still = append(still, req)
				continue
			}
			s.ensureBaselines(s.groups[req.Group], req.Iters)
			if s.dispatch(acc[req.Group], req) == nil {
				still = append(still, req)
			}
		}
		s.pending = still
	}
	due, later := dueBefore(s.injected, func(a injectedArrival) time.Time { return a.at }, end)
	s.injected = later
	for _, a := range due {
		g := s.groups[a.group]
		s.ensureBaselines(g, a.iters)
		at := a.at
		if at.Before(start) {
			at = start
		}
		req := s.takeRequest()
		req.ID, req.Group, req.StreamIdx, req.Iters, req.Arrival = a.id, a.group, a.stream, a.iters, at
		ev := s.mkEvent(at, evArrival)
		ev.req = req
		emit(ev)
		*arrivals++
		g.roundArrivals++
	}
}

// RecordShed books one load-shedding decision against the given group
// at virtual time at: the request was refused at the gateway instead
// of queued. Shed counts surface per round (RoundStats.Shed and the
// per-group attribution), in the run summary (Report.Shed), and — when
// tracing is enabled — as a TraceShed event, so graceful degradation
// under a binding power cap is as visible as the queueing it replaces.
func (s *Supervisor) RecordShed(at time.Time, group int) error {
	if group < 0 || group >= len(s.groups) {
		return fmt.Errorf("fleet: group %d out of range [0,%d]", group, len(s.groups)-1)
	}
	g := s.groups[group]
	g.roundShed++
	g.shed++
	s.record(TraceEvent{At: at, Kind: TraceShed, Instance: -1, Host: -1, State: -1, Group: g.name})
	return nil
}

// Shed returns how many requests the run has shed so far, across all
// groups.
func (s *Supervisor) Shed() int {
	total := 0
	for _, g := range s.groups {
		total += g.shed
	}
	return total
}

// AllLatencies returns every completed request's latency in seconds,
// sorted ascending — the raw sample the serving mode's latency
// histogram is built from (Report carries only the percentiles).
func (s *Supervisor) AllLatencies() []float64 {
	var out []float64
	for _, inst := range s.insts {
		out = append(out, inst.allLats...)
	}
	sort.Float64s(out)
	return out
}

// GroupSnapshot is one workload group's slice of a fleet snapshot.
type GroupSnapshot struct {
	// Name is the group's name in the scenario.
	Name string
	// Accepting and Draining count the group's instances by state.
	Accepting int
	Draining  int
	// QueueDepth is the group's queued + in-flight + undispatched
	// requests at the snapshot instant — the standing backlog a twin
	// seeds its replica with.
	QueueDepth int
	// ReqIters is the group's per-request iteration cap as far as the
	// supervisor can tell (its LoadGen's, 0 otherwise — a serving twin
	// knows its own request size and overrides).
	ReqIters int
	// RecentArrivals are the group's per-round arrival counts over the
	// snapshot's trailing window, oldest first — the recent arrival
	// trace a twin projects forward.
	RecentArrivals []float64
}

// FleetSnapshot captures the provisioning-relevant state of a live
// fleet: enough to rebuild a virtual replica (NewFromSnapshot) that
// starts where the live fleet stands — same accepting counts, same
// budget, same standing backlog — and replay what-if scenarios ahead
// of it.
type FleetSnapshot struct {
	// Round is the live fleet's completed-round count.
	Round int
	// Budget is the cluster power cap at the snapshot (watts, <= 0 =
	// unlimited).
	Budget float64
	// Quantum is the fleet's control quantum.
	Quantum time.Duration
	// Groups holds one entry per workload group, in declaration order.
	Groups []GroupSnapshot
}

// StateSnapshot captures the fleet's provisioning state plus the
// trailing `recent` rounds of per-group arrival counts. It reads only
// supervisor-owned state between Steps, so the serving loop snapshots
// between rounds without synchronization.
func (s *Supervisor) StateSnapshot(recent int) FleetSnapshot {
	snap := FleetSnapshot{
		Round:   s.round,
		Budget:  s.arb.Budget(),
		Quantum: s.cfg.Quantum,
		Groups:  make([]GroupSnapshot, len(s.groups)),
	}
	for gi, g := range s.groups {
		gs := GroupSnapshot{Name: g.name}
		if g.gen != nil {
			gs.ReqIters = g.gen.reqIters
		}
		snap.Groups[gi] = gs
	}
	for _, inst := range s.insts {
		if inst.retired {
			continue
		}
		gs := &snap.Groups[inst.grp.index]
		if inst.eligible() {
			gs.Accepting++
		}
		if inst.draining {
			gs.Draining++
		}
		gs.QueueDepth += inst.QueueDepth()
	}
	for _, req := range s.pending {
		snap.Groups[req.Group].QueueDepth++
	}
	from := len(s.rounds) - recent
	if from < 0 {
		from = 0
	}
	for _, rs := range s.rounds[from:] {
		for gi := range s.groups {
			snap.Groups[gi].RecentArrivals = append(snap.Groups[gi].RecentArrivals, float64(rs.Groups[gi].Arrivals))
		}
	}
	return snap
}

// NewFromSnapshot builds a fresh, unstepped virtual fleet positioned
// where the snapshot stands: each group starts with its snapshot
// accepting count (a nonzero Instances in the scenario overrides — how
// a twin tries candidate counts), the cluster budget is the snapshot
// budget, and each group's standing backlog is injected at the epoch
// so round 0 opens with the live fleet's queues. Scenario groups are
// matched to snapshot groups by name; unmatched groups start empty.
// The replica is ready for Replay — the twin's faster-than-real-time
// what-if engine. A caller building many replicas of one snapshot
// plans them once instead (PlanReplicas).
func NewFromSnapshot(sc Scenario, snap FleetSnapshot) (*Supervisor, error) {
	p, err := PlanReplicas(sc, snap)
	if err != nil {
		return nil, err
	}
	return p.replica(0)
}

// ReplicaPlan is a scenario resolved once against a fleet snapshot, for
// a what-if search that replays many replicas of it. Planning measures
// what NewFromSnapshot would measure for every replica — each group's
// probe, target, baseline outputs and cost per beat — and fixes the
// snapshot's counts and backlog. The scenario's random streams (group
// arrivals, faults) and Replay's trace are realized once and replayed to
// every replica, which is exact because the engine draws them once per
// round from arguments that depend only on the round. A replica then
// costs only its instantiation and its rounds, and is the same fleet
// NewFromSnapshot builds.
//
// Replay is safe to call from several goroutines: replicas share the
// plan read-only, apart from realizations and sliced baselines that
// fill in under their own locks. The groups' NewApp factories are then
// called concurrently.
type ReplicaPlan struct {
	r       *resolvedScenario
	counts  []int                     // each group's initial instances
	backlog []int                     // each group's standing backlog
	iters   []int                     // the backlog's request size, per group
	loads   []*roundRecord[time.Time] // each group's arrival realization (nil: none drawn)
	faults  *roundRecord[FaultEvent]  // the fault model's realization (nil: no faults)

	mu         sync.Mutex // guards the trace slot
	traceSeed  int64
	traceRates []float64
	trace      *roundRecord[time.Time]
}

// PlanReplicas resolves sc against snap once: the plan NewFromSnapshot
// builds each replica from, with the same matching, count, budget and
// backlog rules. The caller's scenario is not modified.
func PlanReplicas(sc Scenario, snap FleetSnapshot) (*ReplicaPlan, error) {
	// Replicas read the groups long after the caller may have reused
	// the slice.
	sc.Groups = slices.Clone(sc.Groups)
	sc.Budget = snap.Budget
	if sc.Quantum == 0 {
		sc.Quantum = snap.Quantum
	}
	r, err := resolveScenario(sc)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*GroupSnapshot, len(snap.Groups))
	for i := range snap.Groups {
		byName[snap.Groups[i].Name] = &snap.Groups[i]
	}
	n, quantum := len(sc.Groups), r.sc.Quantum
	p := &ReplicaPlan{r: r, counts: make([]int, n), backlog: make([]int, n), iters: make([]int, n), loads: make([]*roundRecord[time.Time], n)}
	for i, wg := range sc.Groups {
		p.counts[i] = wg.Instances
		if wg.Load != nil {
			p.loads[i] = wg.Load.record(quantum)
		}
		gs, ok := byName[wg.Name]
		if !ok {
			continue
		}
		if p.counts[i] == 0 {
			p.counts[i] = gs.Accepting
		}
		p.backlog[i], p.iters[i] = gs.QueueDepth, gs.ReqIters
		if wg.Load != nil {
			p.iters[i] = wg.Load.reqIters
		}
	}
	if f := sc.Faults; f != nil && f.Model != nil {
		hosts := sc.Machines
		p.faults = &roundRecord[FaultEvent]{draw: func(round int) []FaultEvent {
			return f.Model.Events(round, epochTime().Add(time.Duration(round)*quantum), quantum, hosts)
		}}
	}
	return p, nil
}

// recordedFaults replays a plan's fault realization to one replica.
type recordedFaults struct{ rec *roundRecord[FaultEvent] }

// Events implements FaultModel.
func (f recordedFaults) Events(round int, _ time.Time, _ time.Duration, _ int) []FaultEvent {
	return f.rec.at(round)
}

// Replay builds one replica — n > 0 accepting instances of the first
// group override the plan's count, as a nonzero WorkloadGroup.Instances
// does for NewFromSnapshot — and replays cfg through it exactly as
// Replay(NewFromSnapshot(...), cfg) would. Replicas replaying the same
// Seed and Rates share one realization of the trace.
func (p *ReplicaPlan) Replay(n int, cfg ReplayConfig) (*ReplayResult, error) {
	sup, err := p.replica(n)
	if err != nil {
		return nil, err
	}
	return replay(sup, cfg, p.traceLoad)
}

// replica instantiates one fleet from the plan, n > 0 overriding the
// first group's count, with the snapshot's backlog injected at the
// epoch.
func (p *ReplicaPlan) replica(n int) (*Supervisor, error) {
	counts := p.counts
	if n > 0 {
		counts = slices.Clone(p.counts)
		counts[0] = n
	}
	gens := make([]*LoadGen, len(counts))
	for i, wg := range p.r.sc.Groups {
		if wg.Load != nil {
			gens[i] = wg.Load.replica(p.loads[i])
		}
	}
	var faults *FaultOptions
	if f := p.r.sc.Faults; f != nil {
		faults = &FaultOptions{Model: f.Model, Redispatch: f.Redispatch}
		if p.faults != nil {
			faults.Model = recordedFaults{p.faults}
		}
	}
	sup, err := p.r.instantiate(counts, gens, faults)
	if err != nil {
		return nil, err
	}
	for gi, depth := range p.backlog {
		for i := 0; i < depth; i++ {
			if _, err := sup.InjectArrivalAt(epochTime(), gi, p.iters[gi]); err != nil {
				return nil, err
			}
		}
	}
	return sup, nil
}

// traceLoad is Replay's trace generator for one replica: a replay of
// the plan's realization of (seed, rates), realized on first use. The
// plan keeps the latest trace, which is all a search over candidates
// for one projection needs.
func (p *ReplicaPlan) traceLoad(seed int64, rates []float64) *LoadGen {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.trace == nil || p.traceSeed != seed || !slices.Equal(p.traceRates, rates) {
		p.traceSeed, p.traceRates = seed, slices.Clone(rates)
		p.trace = NewTraceLoad(seed, rates).record(p.r.sc.Quantum)
	}
	return &LoadGen{rec: p.trace}
}
