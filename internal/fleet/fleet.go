// Package fleet executes the paper's Sec. 5.5 consolidation scenario
// instead of computing it: a supervisor runs N core.Runtime instances
// across M simulated machines, with a global power-budget arbiter that
// re-divides a cluster-wide cap across the machines, a load generator
// feeding per-instance request queues, and live placement — instances
// start, drain, stop, and migrate between machines mid-run as scheduled
// placement events (StartAt, DrainAt, StopAt, MigrateAt) that land at
// arbitrary virtual instants exactly like power caps (SetBudgetAt) do,
// re-arbitrating the budget the moment they land. An attachable
// Autoscaler (Autoscale) closes the provisioning loop: it watches queue
// depth and latency percentiles against an SLO and issues those
// placement events itself, which is how the Fig. 8 consolidation replay
// (Replay) drives the fleet.
//
// Time is event-driven: a deterministic discrete-event scheduler over
// virtual time drives the fleet from a seeded event queue — request
// arrivals (exponentially spaced Poisson instants), per-beat service
// continuations, arbiter ticks, and asynchronous power-cap changes —
// so arbiter decisions and DVFS caps land at arbitrary virtual times
// between beats (the platform layer's scheduled cap events carry them
// to each instance's machine view), arrivals queue at the instant they
// occur, and per-request latency reflects actual queueing delay at
// beat granularity. The paper's responsiveness claim (Sec. 5) is about
// exactly this: a cpufrequtils cap or a dynamic-knob change takes
// effect within one heartbeat, not at the next coarse control round.
// Requests are work items over input streams — whole streams by
// default, or per-iteration batches via LoadGen.WithRequestIters — and
// RoundStats reports p50/p95/p99 request latency per control quantum.
//
// The timeline is sharded per host: each host owns the events of its
// resident instances and advances independently up to the next global
// synchronization barrier — an arbiter tick, a cap, fault, or placement
// landing, or a join-shortest-queue arrival — where a coordinator
// merges host states, runs the arbiter, re-dispatches backlog, and
// releases the next window. Between barriers the shards are
// independent: the coordinator serves a window's first few dozen events
// on the caller's goroutine and hands what is left to a bounded worker
// pool (Workers; 1 has no pool). Determinism is preserved by
// construction (per-shard sequence counters, a canonical host-index
// merge order, and a serial fallback for windows in which a draining
// instance could retire), so
// every Workers value is bit-for-bit identical for a fixed seed, which
// is what lets the end-to-end tests validate the executed fleet against
// the closed-form cluster oracle (cluster.Oracle, including its
// event-time M/D/1 queueing surface) and lets the differential tests
// hold the engine to a single-heap reference loop kept as a test-only
// oracle (refengine_test.go).
//
// The fleet is composed from a Scenario of named WorkloadGroups
// (NewScenario): heterogeneous applications — each group with its own
// app factory, calibrated profile, heart-rate target, arrival stream,
// SLO, and contention pressure — sharing the machines and one power
// budget, with dispatch, reporting, and autoscaling scoped per group.
//
// Machine sharing is a pluggable Interference model over each host's
// per-group resident counts. The uniform-share reference follows the
// oracle's arithmetic: a machine with C cores and I resident instances
// time-multiplexes each instance onto C/I of a core when I > C
// (expressed through the platform layer as co-located interference on
// the instance's single-core machine view), so each instance must
// command knob speedup I/C to hold its target — exactly the
// per-instance demand of the analytic model. The contention-aware
// default (PressureShare) additionally degrades effective frequency
// from cross-group pressure, so heterogeneous co-residents contend for
// shared resources instead of merely time-multiplexing.
package fleet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/heartbeats"
	"repro/internal/platform"
	"repro/internal/workload"
)

// Host is one simulated machine of the fleet.
type Host struct {
	sup       *Supervisor
	index     int
	cores     int
	state     int // DVFS state index assigned by the arbiter
	residents []*Instance
	energy    float64 // joules accumulated
	counts    []int   // scratch per-group resident counts (interference input)

	// Power accounting: energy integrates over segments of constant
	// DVFS state instead of whole quanta.
	segStart    time.Time
	roundEnergy float64
	roundBusy   time.Duration

	// Fault state (fault.go): a crashed host serves nothing, draws no
	// power, and leaves the dispatch domain until downUntil; a throttled
	// host's DVFS state is clamped at or below throttleState until
	// throttleUntil regardless of the arbiter's grant.
	down          bool
	downUntil     time.Time
	throttleState int
	throttleUntil time.Time

	// shard is the host's slice of the event timeline (shard.go).
	shard *shard
}

// Index returns the host's position in the fleet.
func (h *Host) Index() int { return h.index }

// State returns the DVFS state the arbiter last assigned.
func (h *Host) State() int { return h.state }

// Frequency returns the host's current frequency cap in GHz.
func (h *Host) Frequency() float64 { return platform.Frequencies[h.state] }

// Residents returns the instances currently placed on the host.
func (h *Host) Residents() []*Instance {
	out := make([]*Instance, len(h.residents))
	copy(out, h.residents)
	return out
}

// Energy returns the joules the host has consumed so far.
func (h *Host) Energy() float64 { return h.energy }

// groupCounts refreshes the host's scratch per-group resident counts —
// the pressure vector the interference model sees.
func (h *Host) groupCounts() []int {
	if cap(h.counts) < len(h.sup.groups) {
		h.counts = make([]int, len(h.sup.groups))
	}
	h.counts = h.counts[:len(h.sup.groups)]
	for i := range h.counts {
		h.counts[i] = 0
	}
	for _, inst := range h.residents {
		h.counts[inst.grp.index]++
	}
	return h.counts
}

// applySharesAt pushes the host's frequency cap and effective
// co-residency share to every resident's machine view through the
// platform layer. The share comes from the fleet's Interference model
// over the host's per-group resident counts (for the uniform-share
// reference model that is min(1, C/I), the oracle's arithmetic); the
// view sees 1 − share as platform interference. The cap is scheduled
// to land at virtual time at: residents whose clocks have already
// reached at (every actively serving instance) see it at their next
// beat, and a lagging idle instance's catch-up idle is split at the
// landing time.
func (h *Host) applySharesAt(at time.Time) {
	counts := h.groupCounts()
	for _, inst := range h.residents {
		share := h.sup.itf.Share(h.cores, counts, inst.grp.index)
		if share > 1 {
			share = 1
		}
		if at.Before(inst.slowUntil) && inst.slowFactor > 1 {
			// Straggler fault: the instance's effective share divides by
			// the slowdown factor for the fault window. Time-gated, so
			// the recovery's re-arbitration restores the clean share.
			share /= inst.slowFactor
		}
		_ = inst.view.SetStateAt(h.state, at)
		inst.view.SetInterference(1 - share)
	}
}

func (h *Host) removeResident(inst *Instance) {
	for i, r := range h.residents {
		if r == inst {
			h.residents = append(h.residents[:i], h.residents[i+1:]...)
			return
		}
	}
}

// Instance is one controlled application instance. Only its host's
// shard touches it between barriers and only the coordinator does at
// barriers.
type Instance struct {
	id      int
	grp     *group
	app     workload.App
	rt      *core.Runtime
	view    *platform.Machine
	clk     *clock.Virtual
	host    *Host
	streams []workload.Stream

	queue       []*Request
	sess        *core.Session
	cur         *Request
	sessStart   time.Time // virtual time the in-flight session began
	pausedUntil time.Time
	baseOuts    []workload.Output         // shared baseline outputs, read-only
	baseSliced  map[int][]workload.Output // shared sliced baselines, read-only during a round

	accepting bool
	pending   bool // created by StartAt; not placed until the event lands
	draining  bool
	retired   bool
	scheduled bool // a serve event is in the queue
	selfFeed  bool // saturating load: refill the queue mid-quantum
	feedIdx   int  // stream cursor for self-fed requests
	reqIters  int  // iterations per self-fed request (0 = whole stream)
	minted    int  // self-fed requests created this quantum

	completed int
	aborted   int
	lossSum   float64   // realized request QoS loss, drained each round
	latencies []float64 // seconds, drained (capacity kept) each round
	allLats   []float64 // seconds, full history for per-instance percentiles
	prevBusy  time.Duration
	prevBeats int

	// reqFree recycles completed Request structs. It is instance-local
	// (so serve can recycle without synchronization on the sharded
	// engine) and swept into the supervisor's pool at each round close,
	// where the next round's open-loop mints draw from it — the free
	// list threaded loadgen → dispatch → serve → stats that removes the
	// per-arrival allocation.
	reqFree []*Request

	// Session-reuse slots: an instance serves one request at a time, so
	// one spare Session plus one spare rewindable run per stream index
	// (open-loop mints cycle the index, so a single slot would thrash)
	// make steady-state service — the hot path of the open-loop scale
	// benchmarks — allocation-free. Runs that do not implement
	// workload.Rewinder simply never park here.
	sessSpare     *core.Session
	runSpares     []workload.Run
	runSpareIters []int

	// Fluid-limit state (fluid.go). While fluid, the instance's backlog
	// drains analytically at svcPerIter instead of event by event; the
	// flow has been rendered up to fluidClock, with fluidNeed seconds
	// outstanding on the head request.
	fluid      bool
	fluidClock time.Time
	fluidNeed  float64
	svcPerIter float64 // EWMA seconds per iteration, measured discretely
	svcOK      bool    // svcPerIter has at least one observation
	lastLoss   float64 // QoS loss of the last discrete completion

	// Straggler-fault state (fault.go): the instance's effective share
	// divides by slowFactor until slowUntil.
	slowFactor float64
	slowUntil  time.Time
}

// ID returns the instance's fleet-unique id.
func (inst *Instance) ID() int { return inst.id }

// Group returns the name of the workload group the instance belongs to
// (its Scenario.Groups entry's Name).
func (inst *Instance) Group() string { return inst.grp.name }

// HostIndex returns the index of the machine the instance runs on, or -1
// after retirement.
func (inst *Instance) HostIndex() int {
	if inst.host == nil {
		return -1
	}
	return inst.host.index
}

// QueueDepth returns queued plus in-flight requests.
func (inst *Instance) QueueDepth() int {
	d := len(inst.queue)
	if inst.sess != nil {
		d++
	}
	return d
}

// Snapshot captures the instance's control state (thread-safe).
func (inst *Instance) Snapshot() core.Snapshot { return inst.rt.Snapshot() }

// streamFor resolves a request to the stream (or per-iteration work
// item) it covers on this instance.
func (inst *Instance) streamFor(req *Request) workload.Stream {
	st := inst.streams[req.StreamIdx%len(inst.streams)]
	if req.Iters > 0 && req.Iters < st.Len() {
		st = limitStream{Stream: st, n: req.Iters}
	}
	return st
}

// startSession begins serving req, reusing the instance's spare
// session and run when the spare run covers the same stream slice
// (same stream index and iteration cap) and rewinds cleanly; otherwise
// a fresh run is built the usual way.
func (inst *Instance) startSession(req *Request) {
	var run workload.Run
	idx := req.StreamIdx % len(inst.streams)
	if inst.runSpares != nil {
		if spare := inst.runSpares[idx]; spare != nil && inst.runSpareIters[idx] == req.Iters {
			if rw, ok := spare.(workload.Rewinder); ok && rw.Rewind() {
				run = spare
			}
			inst.runSpares[idx] = nil
		}
	}
	if run == nil {
		run = inst.streamFor(req).NewRun()
	}
	inst.sess = inst.rt.StartSession(inst.sessSpare, run)
	inst.sessSpare = nil
}

// endSession retires the instance's session after req's output has been
// consumed (completion, abort, or crash), parking the Session struct
// and — when rewindable — its run for the next startSession. Callers
// still nil out inst.sess/inst.cur themselves.
func (inst *Instance) endSession(req *Request) {
	if inst.sess == nil {
		return
	}
	if run := inst.sess.Body(); run != nil {
		if _, ok := run.(workload.Rewinder); ok {
			if inst.runSpares == nil {
				inst.runSpares = make([]workload.Run, len(inst.streams))
				inst.runSpareIters = make([]int, len(inst.streams))
			}
			idx := req.StreamIdx % len(inst.streams)
			inst.runSpares[idx] = run
			inst.runSpareIters[idx] = req.Iters
		}
	}
	inst.sessSpare = inst.sess
}

// baselineFor returns the baseline-setting output the request's served
// output is compared against.
func (inst *Instance) baselineFor(req *Request) workload.Output {
	if req.Iters > 0 {
		if outs, ok := inst.baseSliced[req.Iters]; ok {
			return outs[req.StreamIdx%len(outs)]
		}
	}
	return inst.baseOuts[req.StreamIdx%len(inst.baseOuts)]
}

// takeRequest pops a recycled Request from the instance's free list,
// falling back to its supervisor's pool-less allocation path (the
// supervisor sweep refills instance lists only indirectly, via mints).
//
//fleetvet:noalloc
func (inst *Instance) takeRequest() *Request {
	if n := len(inst.reqFree); n > 0 {
		r := inst.reqFree[n-1]
		inst.reqFree[n-1] = nil
		inst.reqFree = inst.reqFree[:n-1]
		return r
	}
	return &Request{}
}

// freeRequest recycles a dead request (completed, aborted, or dropped)
// into the instance's free list. Callers must ensure no reference
// outlives the call — queues and the pending backlog hold live
// requests, which are never freed.
//
//fleetvet:noalloc
func (inst *Instance) freeRequest(r *Request) {
	inst.reqFree = append(inst.reqFree, r)
}

// takeRequest pops from the supervisor's pool (round seeds, supervisor
// context).
//
//fleetvet:noalloc
func (s *Supervisor) takeRequest() *Request {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree[n-1] = nil
		s.reqFree = s.reqFree[:n-1]
		return r
	}
	return &Request{}
}

// popRequest removes and returns the queue head, shifting the tail
// down so the backing array survives: at steady queue depth the
// sliding-window idiom (queue = queue[1:]) walks off its array and
// forces a reallocation every few requests, which popRequest's O(depth)
// pointer copy avoids entirely.
//
//fleetvet:noalloc
func (inst *Instance) popRequest() *Request {
	r := inst.queue[0]
	n := copy(inst.queue, inst.queue[1:])
	inst.queue[n] = nil
	inst.queue = inst.queue[:n]
	return r
}

// finishRequest books a request completed at now (the instance clock
// after its last beat): latency against its arrival instant and realized
// QoS loss of the served output against the baseline-setting output of
// the same work item — the quantity the cluster oracle predicts
// (per-beat, not per-plan-time).
//
//fleetvet:noalloc
func (inst *Instance) finishRequest(now time.Time) float64 {
	lat := now.Sub(inst.cur.Arrival).Seconds()
	inst.completed++
	inst.latencies = append(inst.latencies, lat)
	inst.allLats = append(inst.allLats, lat)
	loss := inst.app.Loss(inst.baselineFor(inst.cur), inst.sess.Output())
	inst.lossSum += loss
	inst.lastLoss = loss
	inst.observeService(now.Sub(inst.sessStart).Seconds(), inst.itersOf(inst.cur))
	inst.endSession(inst.cur)
	inst.freeRequest(inst.cur)
	inst.sess, inst.cur = nil, nil
	return lat
}

// capChange is a scheduled cluster-budget change (SetBudgetAt).
type capChange struct {
	at    time.Time
	watts float64
}

// placeOp labels a scheduled placement change.
type placeOp int8

const (
	placeStart placeOp = iota
	placeDrain
	placeStop
	placeMigrate
)

// placeChange is a scheduled placement event (StartAt, DrainAt, StopAt,
// MigrateAt): a start, drain, stop, or migration that lands at an
// arbitrary virtual instant, exactly like cap changes do.
type placeChange struct {
	at   time.Time
	op   placeOp
	inst *Instance
	host int // target host for start/migrate (-1 = fewest residents)
}

// duePlaces removes and returns the scheduled placement changes landing
// before cutoff, in virtual-time order (stable, so simultaneous
// placements land in the order they were scheduled).
func (s *Supervisor) duePlaces(cutoff time.Time) []placeChange {
	due, later := dueBefore(s.places, func(p placeChange) time.Time { return p.at }, cutoff)
	s.places = later
	return due
}

// dueBefore partitions scheduled changes around cutoff (exclusive),
// returning the due ones in stable virtual-time order — of two changes
// due at the same instant the later-scheduled one lands last and wins.
// Cap, placement, fault, and injected-arrival scheduling share this one
// policy.
func dueBefore[T any](items []T, at func(T) time.Time, cutoff time.Time) (due, later []T) {
	for _, it := range items {
		if at(it).Before(cutoff) {
			due = append(due, it)
		} else {
			later = append(later, it)
		}
	}
	sort.SliceStable(due, func(i, j int) bool { return at(due[i]).Before(at(due[j])) })
	return due, later
}

// dueCaps removes and returns the scheduled budget changes landing
// before cutoff, in virtual-time order.
func (s *Supervisor) dueCaps(cutoff time.Time) []capChange {
	due, later := dueBefore(s.caps, func(c capChange) time.Time { return c.at }, cutoff)
	s.caps = later
	return due
}

// Supervisor owns the fleet. It is not itself safe for concurrent use:
// one goroutine drives Step/Run and schedules every change to the
// running fleet (SetBudgetAt, StartAt, DrainAt, StopAt, MigrateAt) as an
// event on its timeline; inside a
// round the supervisor is the coordinator, fanning shards out to the
// worker pool between barriers (coordinator.go).
type Supervisor struct {
	cfg     Scenario
	groups  []*group
	itf     Interference
	arb     *Arbiter
	hosts   []*Host
	insts   []*Instance
	pending []*Request

	round     int
	nextInst  int
	energy    float64
	completed int
	aborted   int
	lossSum   float64
	lossN     int
	rounds    []RoundStats

	// Event timeline state.
	caps   []capChange
	places []placeChange
	trace  []TraceEvent

	// Serving-mode state: externally received requests awaiting their
	// instant on the event timeline (InjectArrivalAt). hasInjected
	// latches once any arrival was injected, switching seedRound to
	// also re-offer gateway-only backlog each round.
	injected    []injectedArrival
	injectSeq   int
	hasInjected bool

	// Autoscaling state, one optional policy per group (Autoscale,
	// AutoscaleGroup).
	scalers     []scalerEntry
	scaleMoves  int   // placement actions autoscalers have issued, fleet-wide
	lastDesired []int // each group's most recent desired count

	// knobSwitches counts host DVFS state transitions actuated by
	// arbitrate — the run's knob churn (KnobSwitches).
	knobSwitches int

	// splitRng realizes the uniform pick of SplitDispatch (split).
	splitRng *rand.Rand

	// Hot-path free lists and scratch buffers: recycled Request and
	// event structs (instance/shard lists sweep here at round closes)
	// and the round-stats aggregation scratch — together they hold
	// steady-state rounds at O(1) allocations regardless of fleet size.
	reqFree       []*Request
	evFree        []*event
	aggScratch    []roundAgg
	groupLats     [][]float64
	roundLats     []float64
	globalScratch []*event
	arrScratch    []*event

	// workScratch and drainScratch are the coordinator's shard lists
	// (coordinator.go), retained across windows so the thousand-host
	// window loop allocates nothing. drainScratch doubles as the cached
	// drain set: it stays valid (drainsValid) until a place or fault
	// landing or a retirement — the only points where the set can
	// change — so an arrival barrier pays O(1) for it.
	workScratch  []*shard
	drainScratch []*shard
	drainsValid  bool

	// windows counts runParallel calls and fanOuts the ones that
	// started pool goroutines; the tests pin both paths through them.
	// inlineBudget overrides inlineEventBudget when non-zero and
	// drainCheck observes every drain-set answer — both are written
	// only from _test.go files.
	windows      int
	fanOuts      int
	inlineBudget int
	drainCheck   func(drains []*shard)

	// refSink is the test-only reference engine's sink (refengine_test.go;
	// nil in production): forced fluid exits publish through it instead
	// of the instance's shard, so their reactivations reach its queue.
	refSink engineSink

	// Fault & degradation state (fault.go): the wired model, the pending
	// landing/recovery schedule, the landed records, and the per-round
	// counters RoundStats reports.
	faultOpts         *FaultOptions
	faults            []faultChange
	nextFault         int
	faultRecs         []FaultRecord
	recByID           map[int]int // fault id -> faultRecs index
	faultActiveUntil  time.Time
	roundFaults       int
	roundRedispatched int
	roundDropped      int
	redispatched      int
	dropped           int
}

// split returns the SplitDispatch RNG, seeding it on the first pick: a
// seeding costs as much as building a small replica, and only
// SplitDispatch fleets ever draw. The fixed seed keeps runs
// bit-identical.
func (s *Supervisor) split() *rand.Rand {
	if s.splitRng == nil {
		s.splitRng = rand.New(rand.NewSource(314159))
	}
	return s.splitRng
}

// epochTime is the fleet's virtual epoch.
func epochTime() time.Time { return time.Unix(0, 0) }

// defaultWorkers is the event engine's default shard pool size.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ensureBaselines makes the baseline-setting outputs of per-iteration
// work items covering the first iters iterations of each of the group's
// production streams available to its instances. It runs in supervisor
// context before instances can look the entries up, so the fleet's map
// is read-only during a round.
func (s *Supervisor) ensureBaselines(g *group, iters int) {
	if iters <= 0 {
		return
	}
	if _, ok := g.baseSliced[iters]; ok {
		return
	}
	g.baseSliced[iters] = g.slicedBaselines(iters)
}

// Now returns the fleet's virtual time (the current quantum boundary).
func (s *Supervisor) Now() time.Time {
	return epochTime().Add(time.Duration(s.round) * s.cfg.Quantum)
}

// Round returns the number of completed quanta.
func (s *Supervisor) Round() int { return s.round }

// Target returns the per-instance heart-rate goal of the first workload
// group, Scenario.Groups[0] (the whole fleet's goal when it has one).
func (s *Supervisor) Target() heartbeats.Target { return s.groups[0].target }

// TargetOf returns the per-instance heart-rate goal of the given group
// (an index into the scenario's declaration order).
func (s *Supervisor) TargetOf(group int) heartbeats.Target { return s.groups[group].target }

// Hosts returns the fleet's machines.
func (s *Supervisor) Hosts() []*Host {
	out := make([]*Host, len(s.hosts))
	copy(out, s.hosts)
	return out
}

// Instances returns every instance ever started, including retired ones.
func (s *Supervisor) Instances() []*Instance {
	out := make([]*Instance, len(s.insts))
	copy(out, s.insts)
	return out
}

// Active returns the instances currently placed on a machine (an
// instance scheduled with StartAt joins once its placement event lands).
func (s *Supervisor) Active() []*Instance {
	var out []*Instance
	for _, inst := range s.insts {
		if inst.host != nil {
			out = append(out, inst)
		}
	}
	return out
}

// SetBudgetAt schedules a cluster-budget change to land at virtual time
// at — the paper's cpufrequtils cap arriving mid-quantum. The change is
// a cap event: it takes effect at that instant and triggers an
// immediate re-arbitration, before the next periodic arbiter tick.
func (s *Supervisor) SetBudgetAt(at time.Time, watts float64) {
	s.caps = append(s.caps, capChange{at: at, watts: watts})
}

// Budget returns the current cluster-wide cap.
func (s *Supervisor) Budget() float64 { return s.arb.Budget() }

// newInstance builds an unplaced instance of the given group (an index
// into the scenario's declaration order) bound for the given machine
// (host < 0 = fewest residents), its virtual clock starting at the
// given instant. The caller places it (startInstance) or schedules its
// placement (StartAt).
func (s *Supervisor) newInstance(group, host int, at time.Time) (*Instance, error) {
	if group < 0 || group >= len(s.groups) {
		return nil, fmt.Errorf("fleet: group %d out of range [0,%d]", group, len(s.groups)-1)
	}
	if host >= len(s.hosts) {
		return nil, fmt.Errorf("fleet: host %d out of range [0,%d]", host, len(s.hosts)-1)
	}
	g := s.groups[group]
	app, err := g.newApp()
	if err != nil {
		return nil, err
	}
	clk := clock.NewVirtual(at)
	view, err := platform.NewMachine(platform.Config{Clock: clk, Model: s.cfg.Power, Cores: 1})
	if err != nil {
		return nil, err
	}
	sys := &core.System{App: app, Profile: g.profile}
	rt, err := core.NewRuntime(core.RuntimeConfig{
		System:       sys,
		Machine:      view,
		Target:       g.target,
		Policy:       g.policy,
		QuantumBeats: s.cfg.QuantumBeats,
		Disabled:     s.cfg.ControlDisabled,
		CostPerBeat:  g.costPerBeat,
	})
	if err != nil {
		return nil, err
	}
	streams := app.Streams(workload.Production)
	if len(streams) == 0 {
		return nil, fmt.Errorf("fleet: %s has no production streams", app.Name())
	}
	inst := &Instance{
		id:         s.nextInst,
		grp:        g,
		app:        app,
		rt:         rt,
		view:       view,
		clk:        clk,
		streams:    streams,
		baseOuts:   g.baseOuts,
		baseSliced: g.baseSliced,
		pending:    true,
	}
	s.nextInst++
	s.insts = append(s.insts, inst)
	return inst, nil
}

// resolveHost maps host < 0 to the live machine with the fewest
// residents (crashed hosts are skipped unless every host is down —
// then the fewest-residents host takes it and the instance waits out
// the outage).
func (s *Supervisor) resolveHost(host int) int {
	if host >= 0 {
		return host
	}
	best := -1
	for i, h := range s.hosts {
		if h.down {
			continue
		}
		if best < 0 || len(h.residents) < len(s.hosts[best].residents) {
			best = i
		}
	}
	if best < 0 {
		best = 0
		for i, h := range s.hosts {
			if len(h.residents) < len(s.hosts[best].residents) {
				best = i
			}
		}
	}
	return best
}

// landStart places a pending instance on a machine at virtual time at.
// The caller has already closed the host's power segment and
// re-arbitrates afterwards.
func (s *Supervisor) landStart(inst *Instance, host int, at time.Time) {
	if c := inst.clk.Now(); c.Before(at) {
		// The landing was deferred past the scheduled instant (a
		// past-due clamp): idle the instance's view up to the landing so
		// its clock agrees with fleet time — a trailing clock would book
		// negative request latencies and execute more than a quantum per
		// round.
		inst.view.Idle(at.Sub(c))
	}
	host = s.resolveHost(host)
	inst.host = s.hosts[host]
	inst.pending = false
	inst.accepting = true
	s.hosts[host].residents = append(s.hosts[host].residents, inst)
	s.record(TraceEvent{At: at, Kind: TraceStart, Instance: inst.id, Host: host, State: -1, Group: inst.grp.name})
}

// startInstance places a new instance of the given group on the given
// machine at the current quantum boundary: the construction landing
// NewScenario gives a group's initial instances.
func (s *Supervisor) startInstance(group, host int) (*Instance, error) {
	inst, err := s.newInstance(group, host, s.Now())
	if err != nil {
		return nil, err
	}
	s.landStart(inst, host, s.Now())
	return inst, nil
}

// StartAt schedules a new instance of the given workload group (an index
// into the scenario's declaration order) to join the given machine
// (host < 0 = fewest residents, resolved at landing) at virtual time at.
// The start is a placement event: the instance lands at that exact
// instant — mid-quantum included — the cluster budget is re-arbitrated
// immediately, and requests queued for its group are offered to it from
// that instant on. Under a saturating load the new instance begins
// self-feeding at the next round seed. The returned instance is
// constructed eagerly (so the call reports errors synchronously and
// determinism is preserved) but stays unplaced, off every machine,
// until the event lands.
func (s *Supervisor) StartAt(at time.Time, group, host int) (*Instance, error) {
	inst, err := s.newInstance(group, host, at)
	if err != nil {
		return nil, err
	}
	s.places = append(s.places, placeChange{at: at, op: placeStart, inst: inst, host: host})
	return inst, nil
}

// DrainAt schedules a graceful retirement to land at virtual time at:
// from that instant the instance accepts no new requests, finishes its
// queue, and leaves its machine the moment it idles — retirement and the
// freed budget land at exact virtual instants, with re-arbitration on
// each.
func (s *Supervisor) DrainAt(at time.Time, inst *Instance) {
	s.places = append(s.places, placeChange{at: at, op: placeDrain, inst: inst, host: -1})
}

// StopAt schedules a hard stop to land at virtual time at: the in-flight
// request is aborted, the backlog is redistributed to the remaining
// accepting instances at that instant, and the host's budget share is
// re-arbitrated.
func (s *Supervisor) StopAt(at time.Time, inst *Instance) {
	s.places = append(s.places, placeChange{at: at, op: placeStop, inst: inst, host: -1})
}

// MigrateAt schedules a migration to land at virtual time at: the
// instance changes machines at that instant and suffers the configured
// migration downtime as an event-time blackout interval [at,
// at+MigrationDowntime) during which it serves nothing. Both machines'
// power segments close at the landing instant and the budget is
// re-arbitrated.
func (s *Supervisor) MigrateAt(at time.Time, inst *Instance, to int) error {
	if to < 0 || to >= len(s.hosts) {
		return fmt.Errorf("fleet: host %d out of range [0,%d]", to, len(s.hosts)-1)
	}
	if inst.retired {
		return fmt.Errorf("fleet: instance %d is retired", inst.id)
	}
	s.places = append(s.places, placeChange{at: at, op: placeMigrate, inst: inst, host: to})
	return nil
}

// landPlace applies one placement change at virtual time at and reports
// whether fleet state changed — the round loop re-arbitrates and
// re-dispatches backlog when it did. Share pushes are left to that
// arbitration.
func (s *Supervisor) landPlace(at time.Time, p placeChange) bool {
	inst := p.inst
	switch p.op {
	case placeStart:
		if inst.retired || !inst.pending {
			return false
		}
		host := s.resolveHost(p.host)
		s.closeSegment(s.hosts[host], at)
		s.landStart(inst, host, at)
		return true
	case placeDrain:
		if inst.retired || inst.draining {
			return false
		}
		if inst.pending {
			// Drained before its start landed: cancel the start.
			inst.retired = true
			return false
		}
		inst.accepting = false
		inst.draining = true
		s.record(TraceEvent{At: at, Kind: TraceDrain, Instance: inst.id, Host: inst.HostIndex(), State: -1, Group: inst.grp.name})
		if inst.sess == nil && len(inst.queue) == 0 {
			// Already idle: the retirement lands at the same instant.
			s.retireAt(inst, at)
		}
		return true
	case placeStop:
		if inst.retired {
			return false
		}
		// The in-flight session aborts (the runtime's drain flag
		// guarantees it cannot advance even if stepped again) and the
		// backlog joins the shared pending queue. A fluid instance
		// renders its flow up to the stop and leaves the fluid timeline
		// first, so that backlog is exact.
		inst.accepting = false
		inst.rt.Drain()
		s.forceExitFluid(inst, at, false)
		if inst.sess != nil {
			inst.sess.Abort()
			inst.aborted++ // drained into the round's counters at its close
			inst.endSession(inst.cur)
			inst.freeRequest(inst.cur)
			inst.sess, inst.cur = nil, nil
		}
		s.pending = append(s.pending, inst.queue...)
		inst.queue = nil
		hostIdx := -1
		if h := inst.host; h != nil {
			hostIdx = h.index
			s.closeSegment(h, at)
			h.removeResident(inst)
			inst.host = nil
		}
		inst.pending = false
		inst.retired = true
		s.record(TraceEvent{At: at, Kind: TraceRetire, Instance: inst.id, Host: hostIdx, State: -1, Group: inst.grp.name})
		return true
	case placeMigrate:
		if inst.retired || inst.pending || inst.host == s.hosts[p.host] {
			return false
		}
		to := s.hosts[p.host]
		// Migration moves the instance to a different machine: render
		// and exit any fluid flow on the source first (the reactivation
		// lands behind the migration blackout).
		s.forceExitFluid(inst, at, true)
		s.closeSegment(inst.host, at)
		s.closeSegment(to, at)
		inst.host.removeResident(inst)
		inst.host = to
		to.residents = append(to.residents, inst)
		inst.pausedUntil = at.Add(s.cfg.MigrationDowntime)
		s.record(TraceEvent{At: at, Kind: TraceMigrate, Instance: inst.id, Host: p.host, State: -1, Group: inst.grp.name})
		return true
	}
	return false
}

// eligible reports whether the instance can take new work: accepting,
// not retired, and placed on a live host — a crashed host's residents
// leave the dispatch domain until recovery (fault.go).
func (inst *Instance) eligible() bool {
	return !inst.retired && inst.accepting && (inst.host == nil || !inst.host.down)
}

// accepting returns the instances eligible for new requests, by id,
// across every group.
func (s *Supervisor) acceptingInstances() []*Instance {
	var out []*Instance
	for _, inst := range s.insts {
		if inst.eligible() {
			out = append(out, inst)
		}
	}
	return out
}

// acceptingOf returns the given group's instances eligible for new
// requests, by id — the dispatch domain of that group's arrivals.
func (s *Supervisor) acceptingOf(group int) []*Instance {
	var out []*Instance
	for _, inst := range s.insts {
		if inst.eligible() && inst.grp.index == group {
			out = append(out, inst)
		}
	}
	return out
}

// acceptingByGroup returns every group's accepting set, indexed by
// group — recomputed whenever a placement or fault landing can change
// eligibility.
func (s *Supervisor) acceptingByGroup() [][]*Instance {
	out := make([][]*Instance, len(s.groups))
	for _, inst := range s.insts {
		if inst.eligible() {
			gi := inst.grp.index
			out[gi] = append(out[gi], inst)
		}
	}
	return out
}

// redispatchPending re-offers the undispatched backlog to the current
// accepting sets, each request within its own group, invoking wake for
// each successful dispatch. Shared by placement and fault landings.
func (s *Supervisor) redispatchPending(acc [][]*Instance, wake func(*Instance, time.Time), at time.Time) {
	var still []*Request
	for _, req := range s.pending {
		if tgt := s.dispatch(acc[req.Group], req); tgt != nil {
			if wake != nil {
				wake(tgt, at)
			}
		} else {
			still = append(still, req)
		}
	}
	s.pending = still
}

// dispatch assigns a request to an accepting instance — the shallowest
// queue (ties to the lower id) by default, or a seeded uniform pick
// under SplitDispatch — returning nil when no instance accepts work.
func (s *Supervisor) dispatch(accepting []*Instance, req *Request) *Instance {
	if len(accepting) == 0 {
		return nil
	}
	var best *Instance
	if s.cfg.SplitDispatch {
		best = accepting[s.split().Intn(len(accepting))]
	} else {
		for _, inst := range accepting {
			if best == nil || inst.QueueDepth() < best.QueueDepth() {
				best = inst
			}
		}
	}
	best.queue = append(best.queue, req)
	return best
}

// demands assembles the arbiter's per-host inputs from live instance
// state: worst-case utilization for occupied hosts, weight proportional
// to core demand, and the mean heart-rate deficit of the residents.
func (s *Supervisor) demands() []hostDemand {
	demands := make([]hostDemand, len(s.hosts))
	for i, h := range s.hosts {
		if h.down {
			// A crashed host draws nothing and wants nothing: its budget
			// share flows to the survivors until recovery.
			demands[i].down = true
			continue
		}
		if len(h.residents) > 0 {
			demands[i].util = 1
			demand := len(h.residents)
			if demand > h.cores {
				demand = h.cores
			}
			demands[i].weight = float64(demand)
		}
		var deficit float64
		for _, inst := range h.residents {
			perf := inst.rt.Monitor().NormalizedPerformance()
			if d := 1 - perf; d > 0 {
				deficit += d
			}
		}
		if len(h.residents) > 0 {
			demands[i].deficit = deficit / float64(len(h.residents))
		}
	}
	return demands
}

// arbitrate re-divides the cluster budget into per-host DVFS states at
// virtual time t and pushes caps plus multiplexing shares to every
// resident's machine view.
func (s *Supervisor) arbitrate(t time.Time) {
	states := s.arb.assign(s.demands())
	for i, h := range s.hosts {
		if t.Before(h.throttleUntil) && states[i] < h.throttleState {
			// Thermal throttle: the host cannot exceed its clamp state
			// regardless of the arbiter's grant. The clamped-away watts
			// are not re-water-filled — thermal headroom lost is lost.
			// Time-gated, so the recovery's re-arbitration restores the
			// grant exactly.
			states[i] = h.throttleState
		}
		if h.state != states[i] {
			// The quasi-static premise under any fluid flow on this host
			// is breaking (its DVFS state moves): render the flows at the
			// old operating point and re-materialize them, so the frozen
			// service estimate never spans a speed change (fluid.go).
			for _, inst := range h.residents {
				if inst.fluid {
					s.forceExitFluid(inst, t, true)
				}
			}
			s.closeSegment(h, t)
			h.state = states[i]
			s.knobSwitches++
			s.record(TraceEvent{At: t, Kind: TraceState, Instance: -1, Host: h.index, State: h.state, Value: platform.Frequencies[h.state]})
		}
		h.applySharesAt(t)
	}
	s.record(TraceEvent{At: t, Kind: TraceArbiter, Instance: -1, Host: -1, State: -1, Value: s.arb.Budget()})
}

// KnobSwitches returns how many host DVFS state transitions the
// arbiter has actuated over the run so far — the fleet's knob churn.
// Every transition passes through arbitrate (ticks, cap landings,
// placements, fault landings and recoveries), so the counter needs no
// tracing and costs nothing on the hot path; the sub-quantum
// arbitration sweep reads it to price faster ArbiterIntervals.
func (s *Supervisor) KnobSwitches() int { return s.knobSwitches }

// Step advances the fleet by one control quantum and reports it. When
// an autoscaler is attached (Autoscale), the closed round's
// observations are fed to it and its placement decisions are scheduled
// to land in the following quantum.
func (s *Supervisor) Step(gen *LoadGen) (RoundStats, error) {
	rs, err := s.stepSharded(gen)
	if err != nil {
		return rs, err
	}
	if s.anyScaler() {
		if err := s.applyAutoscale(rs); err != nil {
			return rs, err
		}
	}
	return rs, nil
}

// groupGen resolves the generator feeding the given group this round:
// a non-nil Step argument overrides the first group's configured
// stream (how Replay and single-group callers drive the fleet); every
// other group is fed by its own WorkloadGroup.Load.
func (s *Supervisor) groupGen(gi int, gen *LoadGen) *LoadGen {
	if gi == 0 && gen != nil {
		return gen
	}
	return s.groups[gi].gen
}

// Run advances the fleet by the given number of quanta.
func (s *Supervisor) Run(gen *LoadGen, rounds int) error {
	for i := 0; i < rounds; i++ {
		if _, err := s.Step(gen); err != nil {
			return err
		}
	}
	return nil
}

// MeanPowerOver returns the mean cluster power over rounds [from, to).
func (s *Supervisor) MeanPowerOver(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(s.rounds) {
		to = len(s.rounds)
	}
	if to <= from {
		return 0
	}
	var sum float64
	for _, rs := range s.rounds[from:to] {
		sum += rs.PowerWatts
	}
	return sum / float64(to-from)
}
