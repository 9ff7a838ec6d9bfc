package main

// The four workloads. Each is built from scratch by build(), which does
// everything a user of the system pays before the first control quantum
// (calibration, construction), and is then driven one op at a time: an
// op is one control quantum through the workload's top-level entry
// point. All clocks are virtual or stepped by the benchmark, every
// generator is seeded, and the twin runs synchronously, so op i does
// bit-identical work in every repetition of a run.
//
// None of the workloads uses fleet.Config/fleet.New, TimelineQuantum,
// Fluid or EpochDispatch, so ROADMAP item 2 can delete those paths
// without editing the benchmark.

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/calibrate"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/workload"
)

// warmOps is how many untimed ops follow construction in every
// repetition; they are part of setup_s (a user waits for them too:
// controllers converge and pools fill).
const warmOps = 50

// env is what a build is parameterised by. Normal end-to-end runs use
// workers = 2 and leave tr nil and spin zero.
type env struct {
	seed int64
	// ops is how many timed ops will follow the warm-up: inputs and cap
	// cycles are generated that far.
	ops int
	// workers is Scenario.Workers. 2 runs the sharded engine (the path
	// every multi-core user gets) — on one thread, because the process
	// sets GOMAXPROCS(1); 1 is the single-heap reference, used only for
	// the bit-identity check and the ladder's reference rung.
	workers int
	// tr records spans and wraps the callback seams (nil = untraced).
	tr *tracer
	// spin is the planted per-Step delay in spin-loop iterations
	// (-selfcheck only; zero in every measured run).
	spin int
	// sched, when set, keeps the generated request schedule from one
	// repetition to the next.
	sched *[][]time.Duration
}

// live is one built workload instance.
type live struct {
	sup *fleet.Supervisor
	// op runs one control quantum.
	op func() error
	// requests reports how many requests the load generator offered so
	// far and how many of them were refused (HTTP status other than 202,
	// gateway overflow, admission shed, unknown group); nil on the
	// fleet_* workloads, whose arrivals are generated inside the fleet.
	requests func() (offered, refused int64)
	// scenario and twin are the replica factory and what-if engine of a
	// twin-advised serving loop (nil otherwise); the probes call them in
	// isolation.
	scenario func() fleet.Scenario
	twin     *serve.Twin
	// inputGen is how much of the build went into generating the
	// benchmark's inputs; it is not part of the program's set-up.
	inputGen time.Duration
	// backlogBound is the largest queue depth the final timed round may
	// report (0 = not checked): an open-loop workload whose backlog
	// grows is measuring an overload, not a service.
	backlogBound int
}

type workloadDef struct {
	name string
	why  string
	// n is the number of timed ops in one repetition, sized so that one
	// repetition takes about three seconds on the 2-core builder box.
	n     int
	build func(env) (*live, error)
	// probes are the isolated timings a traced run of this workload
	// adds: those of the layers the workload exercises.
	probes []probe
}

var workloads = []workloadDef{
	{
		name: "fleet_saturated",
		why:  "closed loop, every beat an event, no arrivals or scaling: the engine beat path and core's per-beat control plane do nearly all the work",
		n:    2000, build: buildFleetSaturated,
		probes: []probe{probeBeat, probeControlPlane, probeLadder},
	},
	{
		name: "fleet_openloop",
		why:  "open loop in virtual time: JSQ arrival barriers, queueing, percentiles, moving cap, autoscaler placements; a beat-path gain shows less, a dispatch/stats gain only here",
		n:    1000, build: buildFleetOpenLoop,
		probes: []probe{probeBeat, probeControlPlane},
	},
	{
		name: "serve_ingress",
		why:  "one-beat requests through the HTTP handler, gateway, admission and injection: the per-request path dominates and beats are a small share, so beat-path changes bypass it",
		n:    600, build: buildServeIngress,
		probes: []probe{probeBeat, probeRequestPath},
	},
	{
		name: "serve_twin",
		why:  "twin-advised serving round: many short-lived replica fleets per op (snapshot, construct, 8-round replay), so construction cost shows here and nowhere else",
		n:    500, build: buildServeTwin,
		probes: []probe{probeBeat, probeTwin},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// syntheticApp returns the NewApp factory of a synthetic group,
// routed through the env's wrapper when tracing or planting is on.
func (e env) syntheticApp(opts fleet.SyntheticOptions) func() (workload.App, error) {
	return func() (workload.App, error) {
		return e.wrapApp(fleet.NewSynthetic(opts)), nil
	}
}

// calibrated runs the calibration a deployment of the app pays once.
func calibrated(opts fleet.SyntheticOptions) (*calibrate.Profile, error) {
	return calibrate.Run(fleet.NewSynthetic(opts), calibrate.Options{Set: workload.Training})
}

// epoch is where the fleet's virtual clock starts.
var epoch = time.Unix(0, 0)

const (
	fleetHosts    = 128
	wattsPerHost  = 190.0
	cappedPerHost = 150.0
)

// saturatedScenario is the closed-loop fleet at the given size: one
// saturated synthetic instance per single-core host under a binding
// budget. The ladder reuses it at 8..512 hosts.
func saturatedScenario(e env, prof *calibrate.Profile, hosts int) fleet.Scenario {
	return fleet.Scenario{
		Machines:        hosts,
		CoresPerMachine: 1,
		Budget:          wattsPerHost * float64(hosts),
		Workers:         e.workers,
		Groups: []fleet.WorkloadGroup{{
			Name:      "batch",
			NewApp:    e.syntheticApp(fleet.SyntheticOptions{}),
			Profile:   prof,
			Instances: hosts,
			Load:      fleet.NewSaturatingLoad(2),
		}},
	}
}

func buildFleetSaturated(e env) (*live, error) {
	prof, err := calibrated(fleet.SyntheticOptions{})
	if err != nil {
		return nil, err
	}
	sup, err := fleet.NewScenario(saturatedScenario(e, prof, fleetHosts))
	if err != nil {
		return nil, err
	}
	return &live{sup: sup, op: e.tr.fleetOp(sup)}, nil
}

// Open-loop shape: a serve group sized for ~75 % utilisation at base
// rate with a 20-round spike cycle, a saturated batch group competing
// for the same hosts, and a cap that drops for 15 rounds in every 60.
const (
	openBase, openPeak     = 288.0, 528.0
	openPeriod, openWidth  = 20, 4
	capPeriod, capAt, capN = 60, 30, 15
)

func buildFleetOpenLoop(e env) (*live, error) {
	serveOpts := fleet.SyntheticOptions{BaseCost: 3e6}
	serveProf, err := calibrated(serveOpts)
	if err != nil {
		return nil, err
	}
	batchProf, err := calibrated(fleet.SyntheticOptions{})
	if err != nil {
		return nil, err
	}
	slo := fleet.SLO{P95: 1.0}
	sup, err := fleet.NewScenario(fleet.Scenario{
		Machines:        fleetHosts,
		CoresPerMachine: 1,
		Budget:          wattsPerHost * fleetHosts,
		Workers:         e.workers,
		Groups: []fleet.WorkloadGroup{{
			Name:      "serve",
			NewApp:    e.syntheticApp(serveOpts),
			Profile:   serveProf,
			Instances: 96,
			Pressure:  0.3,
			SLO:       slo,
			Load:      fleet.NewSpikeLoad(e.seed, openBase, openPeak, openPeriod, openWidth).WithRequestIters(10),
		}, {
			Name:      "batch",
			NewApp:    e.syntheticApp(fleet.SyntheticOptions{}),
			Profile:   batchProf,
			Instances: 64,
			Pressure:  0.1,
			Load:      fleet.NewSaturatingLoad(2),
		}},
	})
	if err != nil {
		return nil, err
	}
	// The SLO above attaches the default hysteresis autoscaler; a traced
	// run re-attaches the identical policy behind a timing wrapper.
	if e.tr != nil {
		hs, err := fleet.NewHysteresisScaler(fleet.HysteresisConfig{SLO: slo, Max: fleetHosts})
		if err != nil {
			return nil, err
		}
		if err := sup.AutoscaleGroup(0, e.tr.wrapScaler(hs), sup.Quantum()/2); err != nil {
			return nil, err
		}
	}
	// The paper's cap imposition and lift, landing mid-quantum so they
	// take the event path.
	q := sup.Quantum()
	for r := capAt; r < warmOps+e.ops; r += capPeriod {
		sup.SetBudgetAt(epoch.Add(time.Duration(r)*q+q/4), cappedPerHost*fleetHosts)
		sup.SetBudgetAt(epoch.Add(time.Duration(r+capN)*q+q/4), wattsPerHost*fleetHosts)
	}
	return &live{sup: sup, op: e.tr.fleetOp(sup), backlogBound: 4 * int(openPeak)}, nil
}

// stepClock is the benchmark-owned clock.Waiter the serving loop paces
// on: the load generator sets it to each request's due instant, and
// Sleep (the pacer waiting out a round's wall window) just advances it.
// Single goroutine, so no lock.
type stepClock struct{ now time.Time }

func (c *stepClock) Now() time.Time { return c.now }

func (c *stepClock) Sleep(d time.Duration) {
	if d > 0 {
		c.now = c.now.Add(d)
	}
}

// statusWriter is the in-process http.ResponseWriter: it keeps the
// status code and drops the body.
type statusWriter struct {
	hdr  http.Header
	code int
}

func (w *statusWriter) Header() http.Header         { return w.hdr }
func (w *statusWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *statusWriter) WriteHeader(code int)        { w.code = code }

const servePeriod, serveWidth = 25, 3

// schedule returns the due instants, as offsets from the serving
// anchor, of an open-loop Poisson stream at base requests per second
// that runs at peak for the last serveWidth rounds of every servePeriod
// (so a run opens at the base rate, not in a spike). Rounds are one
// second long.
func schedule(seed int64, rounds int, base, peak float64) [][]time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]time.Duration, rounds)
	for r := range out {
		rate := base
		if r%servePeriod >= servePeriod-serveWidth {
			rate = peak
		}
		start := time.Duration(r) * time.Second
		var at time.Duration
		for {
			at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if at >= time.Second {
				break
			}
			out[r] = append(out[r], start+at)
		}
	}
	return out
}

// schedule is the run's request schedule for a serving shape, generated
// once and replayed by every repetition.
func (e env) schedule(rounds int, sh serveShape) [][]time.Duration {
	if e.sched == nil {
		return schedule(e.seed, rounds, sh.base, sh.peak)
	}
	if len(*e.sched) < rounds {
		*e.sched = schedule(e.seed, rounds, sh.base, sh.peak)
	}
	return *e.sched
}

// serveShape is what differs between the two serving workloads.
type serveShape struct {
	machines, cores, instances int
	iters                      int
	base, peak                 float64
	admission                  serve.AdmissionConfig
	twin                       bool
	backlogBound               int
}

// buildServe assembles a serving loop on a stepped clock and returns
// the op that plays one round of the schedule through the HTTP handler
// in-process and then serves the round.
func buildServe(e env, sh serveShape) (*live, error) {
	prof, err := calibrated(fleet.SyntheticOptions{})
	if err != nil {
		return nil, err
	}
	scenario := func() fleet.Scenario {
		e.tr.countScenario()
		return fleet.Scenario{
			Machines:        sh.machines,
			CoresPerMachine: sh.cores,
			Workers:         e.workers,
			Groups: []fleet.WorkloadGroup{{
				Name:    "web",
				NewApp:  e.syntheticApp(fleet.SyntheticOptions{}),
				Profile: prof,
			}},
		}
	}
	sc := scenario()
	sc.Groups[0].Instances = sh.instances
	sup, err := fleet.NewScenario(sc)
	if err != nil {
		return nil, err
	}
	clk := &stepClock{now: time.Unix(1_000_000, 0)}
	anchor := clk.now
	gw := serve.NewGateway(clk, 8192)
	adm, err := serve.NewAdmission([]serve.AdmissionConfig{sh.admission})
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{Supervisor: sup, Clock: clk, Gateway: gw, Admission: adm}
	lv := &live{sup: sup, scenario: scenario, backlogBound: sh.backlogBound}
	if sh.twin {
		slo := fleet.SLO{P95: 1.0}
		twin, err := serve.NewTwin(serve.TwinConfig{
			Scenario:     scenario,
			ReqIters:     sh.iters,
			SLO:          slo,
			MaxInstances: sh.cores * sh.machines,
		})
		if err != nil {
			return nil, err
		}
		hs, err := fleet.NewHysteresisScaler(fleet.HysteresisConfig{SLO: slo, Max: sh.cores * sh.machines})
		if err != nil {
			return nil, err
		}
		ts := &serve.TwinScaler{Inner: hs}
		if err := sup.Autoscale(e.tr.wrapScaler(ts), sup.Quantum()/2); err != nil {
			return nil, err
		}
		cfg.Twin, cfg.TwinScaler = twin, ts
		lv.twin = twin
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	handler := srv.Handler(1)
	req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("/requests?group=web&iters=%d", sh.iters), nil)
	if err != nil {
		return nil, err
	}
	w := &statusWriter{hdr: make(http.Header)}
	genStart := time.Now()
	sched := e.schedule(warmOps+e.ops, sh)
	lv.inputGen = time.Since(genStart)

	var offered, badStatus int64
	round := 0
	tr := e.tr
	lv.op = func() error {
		due := sched[round]
		round++
		batch := tr.now()
		var inHTTP int64
		for _, at := range due {
			clk.now = anchor.Add(at)
			w.code = 0
			if tr != nil {
				t0 := tr.now()
				handler.ServeHTTP(w, req)
				inHTTP += tr.now() - t0
			} else {
				handler.ServeHTTP(w, req)
			}
			if w.code != http.StatusAccepted {
				badStatus++
			}
		}
		offered += int64(len(due))
		tr.httpBatch(batch, inHTTP, len(due))
		s := tr.open(spanServeRound)
		err := srv.RunRound()
		tr.close(s)
		return err
	}
	lv.requests = func() (int64, int64) {
		st := srv.Stats()
		return offered, badStatus + st.Shed + st.Invalid
	}
	return lv, nil
}

func buildServeIngress(e env) (*live, error) {
	return buildServe(e, serveShape{
		machines: 8, cores: 8, instances: 64,
		iters: 1, base: 2000, peak: 2600,
		admission:    serve.AdmissionConfig{MaxQueuePerInstance: 8, SLOP95: 2.0},
		backlogBound: 8 * 64,
	})
}

func buildServeTwin(e env) (*live, error) {
	return buildServe(e, serveShape{
		machines: 1, cores: 8, instances: 8,
		iters: 10, base: 26, peak: 30,
		// Admission is not this workload's subject: the watermark only
		// guards against a runaway queue. (16 per instance with a p95 limit
		// shed a burst right after a scale-in on one seed in twenty.)
		admission:    serve.AdmissionConfig{MaxQueuePerInstance: 64},
		twin:         true,
		backlogBound: 64 * 8,
	})
}
