package main

// The traced run: per-layer metrics from spans recorded around the
// workload's own ops, from probes that time one public function in
// isolation on inputs taken from the workloads, and from the saturated
// round ladder. Layers carry this repository's package names.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/calibrate"
	"repro/internal/clock"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/heartbeats"
	"repro/internal/knobs"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/workload"
)

// measureTraced alternates untraced and traced repetitions of the same
// ops (their difference is the tracing overhead), replays a prefix at
// Workers: 1 to hold the engine's bit-identity contract, and then runs
// the probes of the layers the workload exercises.
func measureTraced(w workloadDef, o options, e env, n int, res *result) error {
	tr := newTracer()
	te := e
	te.tr = tr
	plain, traced := newSeries(n), newSeries(n)
	var plainReps, tracedReps []repStats
	// What tracing added in each pair of repetitions, the two of a pair
	// having run one right after the other.
	var pairOverhead []float64
	begin := time.Now()
	for r := 0; r < o.repetitions(repsTraced) && res.correct(); r++ {
		ps, err := runRep(w, e, n, r, plain)
		plainReps = append(plainReps, ps)
		if err != nil {
			res.failf("%v", err)
			break
		}
		ts, err := runRep(w, te, n, r, traced)
		tracedReps = append(tracedReps, ts)
		pairOverhead = append(pairOverhead, overheadPct(plain.timed.last, traced.timed.last))
		if err == nil {
			err = o.overrun(begin)
		}
		if err != nil {
			res.failf("%v", err)
		}
	}
	res.reps = len(tracedReps)
	res.digest = plainReps[0].digest
	tally(res, append(append([]repStats(nil), plainReps...), tracedReps...), n)
	if !res.correct() {
		return nil
	}

	// Workers: 1 (single heap) must simulate exactly what Workers: 2
	// (shards) does.
	ref := e
	ref.workers = 1
	checkN, want := n, plainReps[0].digest
	if n >= prefixOps {
		checkN, want = prefixOps, plainReps[0].prefix
	}
	ref.ops = checkN
	one, err := runRep(w, ref, checkN, 0, newSeries(checkN))
	if err != nil {
		res.failf("Workers: 1 replay: %v", err)
		return nil
	}
	if one.digest != want {
		res.failf("sim_digest of the first %d ops is %016x at Workers: 1 and %016x at Workers: 2: the engines disagree", checkN, one.digest, want)
		return nil
	}

	busy, count := tr.floors(n)
	perOpUs := func(k spanKind) float64 { return float64(sum(busy[k])) / float64(n) / 1e3 }
	st := plainReps[0]
	gcCycles, gcTotal := plain.timed.collections()
	v := map[string]float64{
		"bench.loadgen_us":                 perOpUs(spanLoadgen),
		"workload.step_us":                 perOpUs(spanWorkloadStep),
		"fleet.step_us":                    perOpUs(spanFleetStep),
		"fleet.autoscale_us":               perOpUs(spanAutoscale),
		"serve.http_us":                    perOpUs(spanHTTP),
		"serve.round_us":                   perOpUs(spanServeRound),
		"serve.twin.candidates_per_advise": float64(sum(count[spanTwinScenario])) / float64(n),
		"fleet.beats_per_op":               float64(st.beats) / float64(n),
		"fleet.arrivals_per_op":            float64(st.arrivals) / float64(n),
		"fleet.completions_per_op":         float64(st.done) / float64(n),
		"fleet.queue_depth_end":            float64(st.queueEnd),
		"fleet.scale_moves":                float64(st.moves),
		"fleet.knob_switches":              float64(st.switches),
		"serve.requests_per_op":            float64(st.offered) / float64(warmOps+n),
		"go.gc_cycles":                     float64(gcCycles),
		"go.gc_ms":                         float64(gcTotal) / 1e6,
		"trace.overhead_pct":               overheadPct(plain.timed.op, traced.timed.op),
	}
	// A real overhead shows in every pair; what a neighbour adds to one
	// repetition does not.
	if ov := slices.Min(pairOverhead); ov >= maxOverheadPct {
		res.failf("tracing added %.1f %% or more to the ops in every pair of repetitions (limit %v %%): the spans describe the tracer", ov, maxOverheadPct)
	}
	if st.offered > 0 {
		v["serve.shed_pct"] = 100 * float64(st.refused) / float64(st.offered)
		v["serve.http_ns_per_req"] = float64(sum(busy[spanHTTP])) / float64(sum(count[spanHTTP]))
		if lg, p50 := v["bench.loadgen_us"], float64(percentile(plain.timed.op, 50))/1e3; lg > 0.05*p50 {
			res.failf("bench.loadgen_us %.1f is over 5 %% of the op's median %.1f us: the op time is the generator's, not the program's", lg, p50)
		}
	}
	for _, probe := range w.probes {
		if err := probe(o.seed, v); err != nil {
			return err
		}
	}
	if v["fleet.step_us"] > 0 {
		self := v["fleet.step_us"] - v["workload.step_us"] - v["fleet.autoscale_us"]
		v["fleet.step_self_us"] = self
		v["fleet.engine_ns_per_beat"] = self*1e3/v["fleet.beats_per_op"] - v["core.beat_ns"]
	}
	for _, m := range perLayerSchema {
		res.metrics = append(res.metrics, metric{m.name, m.unit, v[m.name]})
	}
	if o.spans != "" {
		if err := tr.writeSpans(o.spans, w.name, o.seed); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}

// maxOverheadPct is how much tracing may add to the ops before a traced
// run is refused.
const maxOverheadPct = 10

// overheadPct is what tracing adds to an op, in percent: the median over
// ops of traced time over untraced time. (The two sums differ by as much
// as 9 points between runs: at R = 2 a few ops keep a preemption of
// several op times in their floor, on one side or the other.)
func overheadPct(plain, traced []int64) float64 {
	ratios := make([]float64, len(plain))
	for i := range plain {
		ratios[i] = float64(traced[i]) / float64(plain[i])
	}
	return 100 * (medianFloat(ratios) - 1)
}

// fastest runs batch several times and returns the lowest nanoseconds
// per call: the probes repeat identical work, so the floor applies.
func fastest(batches int, batch func() (time.Duration, int)) float64 {
	best := math.Inf(1)
	for i := 0; i < batches; i++ {
		d, calls := batch()
		best = min(best, float64(d)/float64(calls))
	}
	return best
}

// timed runs f calls times and returns how long that took.
func timed(calls int, f func()) (time.Duration, int) {
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		f()
	}
	return time.Since(t0), calls
}

// constScaler holds a replica at a fixed accepting count, as the twin's
// candidates do.
type constScaler int

func (c constScaler) Scale(fleet.ScaleObservation) int { return int(c) }

// A probe times single public functions of one or two layers in
// isolation and puts the results into v. Each workload's traced run
// makes the probes of the layers that workload exercises (workloadDef.
// probes); on the other workloads' rows those metrics are 0, like the
// spans of a layer the workload never enters.
type probe func(seed int64, v map[string]float64) error

// firstError keeps the first error of a sequence of calls whose
// individual failures need no handling of their own.
type firstError struct{ err error }

func (f *firstError) check(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// probeBeat: calibrate.Run, and core's beat path on a bare runtime on
// one machine view, as fleet builds per instance.
func probeBeat(_ int64, v map[string]float64) error {
	var fe firstError
	var prof *calibrate.Profile
	v["calibrate.run_ms"] = fastest(20, func() (time.Duration, int) {
		return timed(1, func() {
			p, err := calibrated(fleet.SyntheticOptions{})
			fe.check(err)
			prof = p
		})
	}) / 1e6
	if fe.err != nil {
		return fe.err
	}
	rt, run, err := bareRuntime(prof, fleet.SyntheticOptions{})
	if err != nil {
		return err
	}
	var sess *core.Session
	v["core.beat_ns"] = fastest(20, func() (time.Duration, int) {
		var d time.Duration
		beats := 0
		for s := 0; s < 25; s++ {
			run.(workload.Rewinder).Rewind()
			sess = rt.StartSession(sess, run)
			t0 := time.Now()
			for {
				done, err := sess.Step()
				fe.check(err)
				if done {
					break
				}
				beats++
			}
			d += time.Since(t0)
		}
		return d, beats
	})
	return fe.err
}

func bareRuntime(prof *calibrate.Profile, opts fleet.SyntheticOptions) (*core.Runtime, workload.Run, error) {
	app := fleet.NewSynthetic(opts)
	mach, err := platform.NewMachine(platform.Config{Clock: clock.NewVirtual(epoch), Cores: 1})
	if err != nil {
		return nil, nil, err
	}
	rt, err := core.NewRuntime(core.RuntimeConfig{System: &core.System{App: app, Profile: prof}, Machine: mach})
	if err != nil {
		return nil, nil, err
	}
	return rt, app.Streams(workload.Production)[0].NewRun(), nil
}

// probeControlPlane: one decision of the feedback path, one heartbeat,
// one actuation through the knob registry, and construction at the
// fleet workloads' size.
func probeControlPlane(seed int64, v map[string]float64) error {
	var fe firstError
	prof, err := calibrated(fleet.SyntheticOptions{})
	if err != nil {
		return err
	}
	ctl, err := control.NewController(100, 100, prof.MaxSpeedup())
	if err != nil {
		return err
	}
	act, err := control.NewActuator(prof, control.MinQoS)
	if err != nil {
		return err
	}
	var sched control.Schedule
	i := 0
	v["control.update_ns"] = fastest(20, func() (time.Duration, int) {
		return timed(1000, func() {
			i++
			s := ctl.Update(90 + float64(i%3)*10)
			sched = control.BuildSchedule(act.PlanFor(s), control.DefaultQuantumBeats)
		})
	})
	_ = sched

	hbClk := clock.NewVirtual(epoch)
	mon, err := heartbeats.NewMonitor(heartbeats.Target{Min: 100, Max: 100}, heartbeats.WithClock(hbClk))
	if err != nil {
		return err
	}
	v["heartbeats.beat_ns"] = fastest(20, func() (time.Duration, int) {
		return timed(1000, func() {
			hbClk.Advance(10 * time.Millisecond)
			mon.Beat()
		})
	})

	reg := knobs.NewRegistry()
	var effort knobs.Value
	fe.check(reg.RegisterVar("effort", func(val knobs.Value) { effort = val }))
	lo, hi := knobs.Setting{1}, knobs.Setting{fleet.SyntheticEffortMax}
	fe.check(reg.Record(lo, map[string]knobs.Value{"effort": {1}}))
	fe.check(reg.Record(hi, map[string]knobs.Value{"effort": {fleet.SyntheticEffortMax}}))
	v["knobs.apply_ns"] = fastest(20, func() (time.Duration, int) {
		return timed(1000, func() {
			i++
			if i%2 == 0 {
				fe.check(reg.Apply(lo))
			} else {
				fe.check(reg.Apply(hi))
			}
		})
	})
	_ = effort

	e := env{seed: seed, workers: 2}
	v["fleet.new_scenario_ms"] = fastest(6, func() (time.Duration, int) {
		return timed(1, func() {
			_, err := fleet.NewScenario(saturatedScenario(e, prof, fleetHosts))
			fe.check(err)
		})
	}) / 1e6
	return fe.err
}

// probeRequestPath: the stations of one request, on a warmed
// serve_ingress fleet.
func probeRequestPath(seed int64, v map[string]float64) error {
	var fe firstError
	prof, err := calibrated(fleet.SyntheticOptions{})
	if err != nil {
		return err
	}
	rt1, run1, err := bareRuntime(prof, fleet.SyntheticOptions{ProductionIters: 1})
	if err != nil {
		return err
	}
	var sess *core.Session
	v["core.session_ns"] = fastest(20, func() (time.Duration, int) {
		return timed(1000, func() {
			run1.(workload.Rewinder).Rewind()
			sess = rt1.StartSession(sess, run1)
			for done := false; !done; {
				done, err = sess.Step()
				fe.check(err)
			}
		})
	})

	ing, err := buildServeIngress(env{seed: seed, ops: warmOps, workers: 2})
	if err != nil {
		return err
	}
	for i := 0; i < warmOps; i++ {
		fe.check(ing.op())
	}
	at := ing.sup.Now()
	const perRound = 2000
	v["fleet.inject_ns"] = fastest(10, func() (time.Duration, int) {
		d, n := timed(perRound, func() {
			_, err := ing.sup.InjectArrivalAt(at, 0, 1)
			fe.check(err)
		})
		_, err := ing.sup.Step(nil) // deliver them, untimed
		fe.check(err)
		at = ing.sup.Now()
		return d, n
	})
	v["fleet.shed_ns"] = fastest(10, func() (time.Duration, int) {
		return timed(perRound, func() { fe.check(ing.sup.RecordShed(at, 0)) })
	})
	gwClk := &stepClock{now: epoch}
	v["serve.gateway.submit_ns"] = fastest(10, func() (time.Duration, int) {
		gw := serve.NewGateway(gwClk, 4096)
		return timed(4096, func() {
			if !gw.Submit(0, 1) {
				fe.check(fmt.Errorf("gateway probe overflowed"))
			}
		})
	})
	adm, err := serve.NewAdmission([]serve.AdmissionConfig{{MaxQueuePerInstance: 8, SLOP95: 2.0}})
	if err != nil {
		return err
	}
	sig := serve.GroupSignals{Accepting: 64, QueueDepth: 40, P95: 0.05}
	v["serve.admission.admit_ns"] = fastest(10, func() (time.Duration, int) {
		return timed(4096, func() {
			if adm.Admit(0, at, sig) != "" {
				fe.check(fmt.Errorf("admission probe shed"))
			}
		})
	})
	return fe.err
}

// probeTwin: the twin's building blocks, on a warmed serve_twin fleet.
func probeTwin(seed int64, v map[string]float64) error {
	var fe firstError
	tw, err := buildServeTwin(env{seed: seed, ops: 2 * warmOps, workers: 2})
	if err != nil {
		return err
	}
	for i := 0; i < warmOps; i++ {
		fe.check(tw.op())
	}
	snap := tw.sup.StateSnapshot(5)
	v["fleet.snapshot_us"] = fastest(10, func() (time.Duration, int) {
		return timed(200, func() { snap = tw.sup.StateSnapshot(5) })
	}) / 1e3
	candidate := snap.Groups[0].Accepting
	replica := func() *fleet.Supervisor {
		sc := tw.scenario()
		sc.Groups[0].Instances = candidate
		sup, err := fleet.NewFromSnapshot(sc, snap)
		fe.check(err)
		return sup
	}
	v["fleet.from_snapshot_us"] = fastest(10, func() (time.Duration, int) {
		return timed(10, func() { replica() })
	}) / 1e3
	rates := make([]float64, 8)
	for i := range rates {
		rates[i] = 30
	}
	v["fleet.replay_ms"] = fastest(10, func() (time.Duration, int) {
		sup := replica()
		if fe.err != nil {
			return 1, 1
		}
		return timed(1, func() {
			_, err := fleet.Replay(sup, fleet.ReplayConfig{Rates: rates, Seed: seed, ReqIters: 10, SLO: fleet.SLO{P95: 1.0}, Scaler: constScaler(candidate)})
			fe.check(err)
		})
	}) / 1e6
	// Advise does different work on every snapshot, so this probe takes
	// the median over the snapshots of 40 consecutive ops.
	var advise []float64
	for i := 0; i < 40 && fe.err == nil; i++ {
		fe.check(tw.op())
		s := tw.sup.StateSnapshot(5)
		t0 := time.Now()
		_, err := tw.twin.Advise(s)
		advise = append(advise, float64(time.Since(t0))/1e6)
		fe.check(err)
	}
	if fe.err != nil {
		return fe.err
	}
	v["serve.twin.advise_ms"] = medianFloat(advise)
	return nil
}

// probeLadder times one saturated round at 8 to 512 hosts on the
// sharded engine (h128 is the fleet_saturated workload), at 128 hosts on
// the single-heap engine, and at 128 hosts on every core of the box.
func probeLadder(_ int64, v map[string]float64) error {
	prof, err := calibrated(fleet.SyntheticOptions{})
	if err != nil {
		return err
	}
	const warm, rounds, reps = 30, 100, 2
	rung := func(hosts, workers int) (float64, error) {
		floor := newFloor(rounds)
		for r := 0; r < reps; r++ {
			sup, err := fleet.NewScenario(saturatedScenario(env{workers: workers}, prof, hosts))
			if err != nil {
				return 0, err
			}
			for i := 0; i < warm+rounds; i++ {
				t0 := time.Now()
				if _, err := sup.Step(nil); err != nil {
					return 0, err
				}
				if d := int64(time.Since(t0)); i >= warm && d < floor[i-warm] {
					floor[i-warm] = d
				}
			}
		}
		return float64(sum(floor)) / rounds / 1e3, nil
	}
	for _, hosts := range []int{8, 32, 128, 512} {
		us, err := rung(hosts, 2)
		if err != nil {
			return err
		}
		v[fmt.Sprintf("fleet.round_us.h%d", hosts)] = us
	}
	if v["fleet.round_us.h128.w1"], err = rung(128, 1); err != nil {
		return err
	}
	// Informational and noisy: the same round with the engine's worker
	// pool on every core. The only multi-thread number the benchmark
	// reports, and never an end-to-end metric.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	par, err := rung(128, max(procs, 2))
	runtime.GOMAXPROCS(1)
	if err != nil {
		return err
	}
	v["fleet.parallel_x"] = v["fleet.round_us.h128"] / par
	return nil
}

// perLayerSchema is the traced run's metric list, in output order.
// README.md says which end-to-end metric each should move, and where.
var perLayerSchema = []metric{
	{name: "bench.loadgen_us", unit: "us"},
	{name: "calibrate.run_ms", unit: "ms"},
	{name: "core.beat_ns", unit: "ns"},
	{name: "core.session_ns", unit: "ns"},
	{name: "control.update_ns", unit: "ns"},
	{name: "heartbeats.beat_ns", unit: "ns"},
	{name: "knobs.apply_ns", unit: "ns"},
	{name: "workload.step_us", unit: "us"},
	{name: "fleet.step_us", unit: "us"},
	{name: "fleet.step_self_us", unit: "us"},
	{name: "fleet.engine_ns_per_beat", unit: "ns"},
	{name: "fleet.autoscale_us", unit: "us"},
	{name: "fleet.inject_ns", unit: "ns"},
	{name: "fleet.shed_ns", unit: "ns"},
	{name: "fleet.new_scenario_ms", unit: "ms"},
	{name: "fleet.snapshot_us", unit: "us"},
	{name: "fleet.from_snapshot_us", unit: "us"},
	{name: "fleet.replay_ms", unit: "ms"},
	{name: "fleet.round_us.h8", unit: "us"},
	{name: "fleet.round_us.h32", unit: "us"},
	{name: "fleet.round_us.h128", unit: "us"},
	{name: "fleet.round_us.h512", unit: "us"},
	{name: "fleet.round_us.h128.w1", unit: "us"},
	{name: "fleet.parallel_x", unit: "x"},
	{name: "serve.http_us", unit: "us"},
	{name: "serve.http_ns_per_req", unit: "ns"},
	{name: "serve.gateway.submit_ns", unit: "ns"},
	{name: "serve.admission.admit_ns", unit: "ns"},
	{name: "serve.round_us", unit: "us"},
	{name: "serve.twin.advise_ms", unit: "ms"},
	{name: "serve.twin.candidates_per_advise", unit: "count"},
	{name: "fleet.beats_per_op", unit: "count"},
	{name: "fleet.arrivals_per_op", unit: "count"},
	{name: "fleet.completions_per_op", unit: "count"},
	{name: "fleet.queue_depth_end", unit: "count"},
	{name: "fleet.scale_moves", unit: "count"},
	{name: "fleet.knob_switches", unit: "count"},
	{name: "serve.requests_per_op", unit: "count"},
	{name: "serve.shed_pct", unit: "%"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_ms", unit: "ms"},
	{name: "trace.overhead_pct", unit: "%"},
}

var endToEndSchema = []metric{
	{name: "setup_s", unit: "s"},
	{name: "op_ms_p50", unit: "ms"},
	{name: "op_ms_p90", unit: "ms"},
	{name: "beats_per_s", unit: "1/s"},
	{name: "allocs_per_op", unit: "count"},
	{name: "alloc_kb_per_op", unit: "KB"},
	{name: "peak_rss_mb", unit: "MB"},
}

func metricSchema(traced bool) []metric {
	if traced {
		return perLayerSchema
	}
	return endToEndSchema
}
