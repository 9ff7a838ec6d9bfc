package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// TestHysteresisScalerPolicy unit-tests the decision rules: immediate
// proportional scale-up under backlog, latency-driven scale-up, cautious
// cooled-down consolidation, and holding inside the hysteresis band.
func TestHysteresisScalerPolicy(t *testing.T) {
	newScaler := func() *HysteresisScaler {
		h, err := NewHysteresisScaler(HysteresisConfig{
			SLO: SLO{P95: 1, QueuePerInstance: 8},
			Min: 1, Max: 10,
			DownFraction: 0.5,
			Cooldown:     2,
			Smoothing:    1, // undamped: each observation speaks for itself
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	h := newScaler()
	// Backlog far above the watermark: jump proportionally, not by one.
	got := h.Scale(ScaleObservation{Round: 0, Active: 2, QueueDepth: 40})
	if got != 5 {
		t.Errorf("queue 40 at 8/instance: desired = %d, want 5", got)
	}
	// Latency breach with a small queue: at least one step up.
	h = newScaler()
	got = h.Scale(ScaleObservation{Round: 0, Active: 2, QueueDepth: 4, LatencyP95: 1.4})
	if got != 3 {
		t.Errorf("p95 1.4 over SLO 1: desired = %d, want 3", got)
	}
	// Deep trough: consolidate one instance at a time, cooldown between.
	h = newScaler()
	if got := h.Scale(ScaleObservation{Round: 0, Active: 4, QueueDepth: 0, LatencyP95: 0.2}); got != 3 {
		t.Errorf("trough round 0: desired = %d, want 3", got)
	}
	if got := h.Scale(ScaleObservation{Round: 1, Active: 3, QueueDepth: 0, LatencyP95: 0.2}); got != 3 {
		t.Errorf("trough round 1 (cooling down): desired = %d, want hold at 3", got)
	}
	if got := h.Scale(ScaleObservation{Round: 2, Active: 3, QueueDepth: 0, LatencyP95: 0.2}); got != 2 {
		t.Errorf("trough round 2 (cooled): desired = %d, want 2", got)
	}
	// Inside the hysteresis band: hold.
	h = newScaler()
	if got := h.Scale(ScaleObservation{Round: 5, Active: 3, QueueDepth: 2, LatencyP95: 0.8}); got != 3 {
		t.Errorf("p95 0.8 inside band [0.5,1]: desired = %d, want hold at 3", got)
	}
	// Draining instances defer further consolidation.
	h = newScaler()
	if got := h.Scale(ScaleObservation{Round: 9, Active: 3, Draining: 1, QueueDepth: 0, LatencyP95: 0.1}); got != 3 {
		t.Errorf("trough with a drain in flight: desired = %d, want hold at 3", got)
	}
	// Bounds clamp.
	h = newScaler()
	if got := h.Scale(ScaleObservation{Round: 0, Active: 10, QueueDepth: 500}); got != 10 {
		t.Errorf("desired above Max: got %d, want clamp to 10", got)
	}

	// Config validation.
	if _, err := NewHysteresisScaler(HysteresisConfig{Max: 4}); err == nil {
		t.Error("want error for missing SLO.P95")
	}
	if _, err := NewHysteresisScaler(HysteresisConfig{SLO: SLO{P95: 1}}); err == nil {
		t.Error("want error for zero Max")
	}
	if _, err := NewHysteresisScaler(HysteresisConfig{SLO: SLO{P95: 1}, Min: 5, Max: 2}); err == nil {
		t.Error("want error for Min > Max")
	}
}

// TestHysteresisEWMAColdStart pins the cold-start fix: the latency EWMA
// is seeded with the first completing round's p95 instead of starting
// at zero, so an SLO breach in round 1 proposes a scale-up that very
// round (well within Cooldown) rather than waiting for the smoothed
// signal to climb out of the artificial zero.
func TestHysteresisEWMAColdStart(t *testing.T) {
	h, err := NewHysteresisScaler(HysteresisConfig{
		SLO: SLO{P95: 1, QueuePerInstance: 8},
		Max: 8, // default Smoothing 0.5 — the regime the bug lived in
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round 0: nothing completed yet (p95 = 0). The seed must wait for
	// a real observation, not lock the EWMA to zero.
	if got := h.Scale(ScaleObservation{Round: 0, Active: 2}); got != 2 {
		t.Fatalf("round 0 (no completions): desired = %d, want hold at 2", got)
	}
	// Round 1: immediate overload. p95 = 1.6 is well over the SLO but
	// the backlog (10) is under the queue watermark (16), so only the
	// latency path can trigger. The zero-started EWMA read
	// 0.5·1.6 = 0.8 < 1 here and held — the delayed-first-scale-up bug;
	// seeded, the EWMA is 1.6 and the scaler steps up this round.
	if got := h.Scale(ScaleObservation{Round: 1, Active: 2, QueueDepth: 10, LatencyP95: 1.6}); got != 3 {
		t.Fatalf("round 1 SLO breach: desired = %d, want immediate scale-up to 3", got)
	}
	// Once seeded, smoothing applies normally: a single good round must
	// not instantly unwind the signal (EWMA = 0.5·0.2 + 0.5·1.6 = 0.9,
	// inside the hold band).
	if got := h.Scale(ScaleObservation{Round: 2, Active: 3, QueueDepth: 0, LatencyP95: 0.2}); got != 3 {
		t.Fatalf("round 2 single good sample: desired = %d, want hold at 3", got)
	}
}

// TestPlannerFeedForwardDampsOscillation is the acceptance check for
// model-informed autoscaling: on a sustained-peak arrival segment (the
// regime where the paper's Fig. 8 trace parks at peak and the measured
// p95 sits in the hysteresis dead band) the planner-fed policy —
// proposals clamped to ±1 of cluster.PlanInstances at the smoothed
// arrival rate — must issue strictly fewer scale actions than the pure
// measurement-driven policy without violating the SLO more often, and
// must stop the ±1–2 instance oscillation during the peak.
func TestPlannerFeedForwardDampsOscillation(t *testing.T) {
	const (
		iters   = 10
		beatSec = 0.025
		service = iters * beatSec // 0.25 s at 2.4 GHz baseline
		sloP95  = 0.6
		maxInst = 8
		peak    = 10.0
	)
	// A Fig. 8-style trace whose burst does not end: a short trough
	// lead-in, then a sustained peak segment.
	rates := make([]float64, 40)
	for i := range rates {
		if i < 6 {
			rates[i] = 2
		} else {
			rates[i] = peak
		}
	}
	run := func(planner *PlannerConfig) (*ReplayResult, int) {
		sup := newOneGroup(t, Scenario{
			Machines:        1,
			CoresPerMachine: maxInst, // no multiplexing: service stays deterministic
			ControlDisabled: true,
			SplitDispatch:   true, // the planner's independent-station premise
		}, newSlowApp, syntheticProfile(t))
		startN(t, sup, 1)
		scaler, err := NewHysteresisScaler(HysteresisConfig{
			SLO:          SLO{P95: sloP95},
			Max:          maxInst,
			DownFraction: 0.7, // see TestAutoscalerSteadyStateMatchesMD1
			Planner:      planner,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(sup, ReplayConfig{Rates: rates, Seed: 5, ReqIters: iters, Scaler: scaler})
		if err != nil {
			t.Fatal(err)
		}
		return res, sup.ScaleMoves()
	}

	pure, pureMoves := run(nil)
	ff, ffMoves := run(&PlannerConfig{Service: service, Quantum: time.Second})

	// Strictly fewer scale actions at no more violations.
	if ffMoves >= pureMoves {
		t.Errorf("feed-forward issued %d scale actions, pure policy %d; want strictly fewer", ffMoves, pureMoves)
	}
	if ff.Violations > pure.Violations {
		t.Errorf("feed-forward has %d SLO violations vs pure %d; damping must not cost the objective", ff.Violations, pure.Violations)
	}
	// The sustained-peak segment no longer oscillates ±1–2 around the
	// plan: once the peak has settled, the planner-fed count is pinned
	// inside the ±1-of-plan band (amplitude ≤ 2 by construction, and
	// strictly tighter than the pure policy's excursions), and the
	// planner-fed policy acts in strictly fewer of those rounds.
	settleFrom := 14 // peak starts at round 6; allow the jump + drains to land
	countRange := func(res *ReplayResult) (lo, hi, scaled int) {
		lo, hi = 1<<30, 0
		for _, pt := range res.Points[settleFrom:] {
			if pt.Accepting < lo {
				lo = pt.Accepting
			}
			if pt.Accepting > hi {
				hi = pt.Accepting
			}
			if pt.Scaled {
				scaled++
			}
		}
		return lo, hi, scaled
	}
	ffLo, ffHi, ffScaled := countRange(ff)
	pureLo, pureHi, pureScaled := countRange(pure)
	if ffHi-ffLo > 2 {
		t.Errorf("feed-forward instance count swings [%d,%d] at sustained peak; the ±1-of-plan clamp bounds the amplitude at 2", ffLo, ffHi)
	}
	if ffHi-ffLo >= pureHi-pureLo {
		t.Errorf("feed-forward peak amplitude [%d,%d] not tighter than pure policy's [%d,%d]", ffLo, ffHi, pureLo, pureHi)
	}
	if ffScaled >= pureScaled {
		t.Errorf("feed-forward acted in %d peak rounds, pure policy in %d; want strictly fewer", ffScaled, pureScaled)
	}
	if ff.Completions == 0 || pure.Completions == 0 {
		t.Fatal("replay completed no requests; the comparison proves nothing")
	}
}

// TestAutoscalerSteadyStateMatchesMD1 is the acceptance check tying the
// autoscaler to the queueing oracle: under a stationary Poisson load of
// deterministic work items with split dispatch — a uniform random split
// of a Poisson stream is Poisson per instance, so the fleet is exactly
// the planner's ensemble of independent M/D/1 stations — the hysteresis
// controller must settle at the instance count cluster.PlanInstances
// derives from the exact M/D/1 waiting-time distribution, within ±1.
func TestAutoscalerSteadyStateMatchesMD1(t *testing.T) {
	const (
		rounds  = 160
		settle  = 80 // rounds averaged for the steady state
		lambda  = 8.0
		iters   = 10
		beatSec = 0.025
		service = iters * beatSec // 0.25 s at 2.4 GHz baseline
		sloP95  = 0.6
		maxInst = 8
	)
	plan, ok := cluster.PlanInstances(lambda, service, 0.95, sloP95, maxInst)
	if !ok {
		t.Fatalf("planner says %d instances cannot meet the SLO; test scenario is broken", maxInst)
	}
	sup := newOneGroup(t, Scenario{
		Machines:        1,
		CoresPerMachine: maxInst, // no multiplexing: service stays deterministic
		ControlDisabled: true,
		SplitDispatch:   true,
	}, newSlowApp, syntheticProfile(t))
	startN(t, sup, 1)
	scaler, err := NewHysteresisScaler(HysteresisConfig{
		SLO: SLO{P95: sloP95},
		Max: maxInst,
		// A round completes only ~8 requests, so the ceil-based
		// nearest-rank p95 the scaler observes is the per-round sample
		// maximum — an upward-noisy estimate of the true p95 the
		// planner speaks about. The consolidation band must sit high
		// enough that trough rounds still register as troughs under
		// that estimator, or the controller parks above the plan.
		DownFraction: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Autoscale(scaler, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	gen := NewConstantLoad(17, lambda).WithRequestIters(iters)
	var sum int
	for r := 0; r < rounds; r++ {
		if _, err := sup.Step(gen); err != nil {
			t.Fatal(err)
		}
		if r >= rounds-settle {
			sum += len(sup.acceptingInstances())
		}
	}
	mean := float64(sum) / settle
	if diff := mean - float64(plan); diff > 1 || diff < -1 {
		t.Errorf("steady-state accepting instances = %.2f, M/D/1 planner predicts %d (±1)", mean, plan)
	}
	// The objective itself held at steady state: the mean of the last
	// rounds' per-round p95 within the SLO (individual rounds sample
	// only a handful of completions and may spike).
	var p95sum float64
	for _, rs := range sup.rounds[rounds-settle/2:] {
		p95sum += rs.LatencyP95
	}
	if mean := p95sum / float64(settle/2); mean > sloP95 {
		t.Errorf("steady-state mean per-round p95 = %.3f s, above the %.2f s SLO", mean, sloP95)
	}
}

// TestReplayFig8Consolidation is the acceptance check for the replay
// harness: on a spiky Fig. 8 trace the autoscaler must consolidate
// instances during troughs, hold the p95 SLO outside the documented
// blackout windows, and the whole replay must be bit-identical across
// runs. The CSV emission is checked against its documented header.
func TestReplayFig8Consolidation(t *testing.T) {
	rates := Fig8Rates(90, 10, 2026)
	run := func() *ReplayResult {
		sup := newOneGroup(t, Scenario{
			Machines:        2,
			CoresPerMachine: 2,
			ControlDisabled: true,
			RecordTrace:     true,
		}, newSlowApp, syntheticProfile(t))
		startN(t, sup, 1)
		// SLO 1.3: per-round p95 is now the ceil-based nearest rank —
		// on the handful of completions a marginal round books, that is
		// the sample maximum, which the old floor-biased rank sat one
		// sample below. The scenario's objective moves up accordingly.
		res, err := Replay(sup, ReplayConfig{
			Rates:    rates,
			Seed:     11,
			ReqIters: 10,
			SLO:      SLO{P95: 1.3},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.MaxInstances <= res.MinInstances {
		t.Errorf("no consolidation: instances stayed at [%d,%d]", res.MinInstances, res.MaxInstances)
	}
	if res.MinInstances > 2 {
		t.Errorf("troughs never consolidated below %d instances", res.MinInstances)
	}
	if res.MaxInstances < 3 {
		t.Errorf("bursts never provisioned above %d instances", res.MaxInstances)
	}
	if res.Violations > 0 {
		for _, pt := range res.Points {
			if pt.SLOViolated && !pt.Blackout {
				t.Logf("round %d: p95 %.3f s over SLO outside blackout (queue %d, instances %d)",
					pt.Round, pt.P95, pt.QueueDepth, pt.Instances)
			}
		}
		t.Errorf("%d SLO violations outside blackout windows, want 0", res.Violations)
	}
	if res.Completions == 0 {
		t.Fatal("replay completed no requests")
	}
	// Blackout windows are the exception, not the rule: the SLO must be
	// accountable for the majority of the run.
	if res.BlackoutRounds*2 > len(res.Points) {
		t.Errorf("%d of %d rounds in blackout; settle windows swallowed the replay", res.BlackoutRounds, len(res.Points))
	}

	// Bit-identical across runs.
	res2 := run()
	if !reflect.DeepEqual(res.Points, res2.Points) {
		t.Fatal("two identically seeded replays diverged")
	}

	// CSV emission matches the documented schema.
	var buf bytes.Buffer
	if err := WriteReplayCSV(&buf, res.Points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	wantHeader := "round,t_seconds,rate,arrivals,completions,instances,accepting,desired,budget_w,power_w,p95_s,queue,scaled,blackout,slo_violated"
	if lines[0] != wantHeader {
		t.Errorf("replay csv header = %q, want %q", lines[0], wantHeader)
	}
	if len(lines) != len(res.Points)+1 {
		t.Errorf("replay csv has %d rows, want %d", len(lines)-1, len(res.Points)+1)
	}
}

// TestReplaySustainedOverloadCounted guards the replay's headline
// metric against vacuousness: offered load the fleet can never serve
// must produce SLO violations — a blackout window opened by the initial
// scale-up must close once the controller sits at its bound with the
// backlog still standing, and rounds too starved to complete anything
// count as violations rather than silently attesting compliance.
func TestReplaySustainedOverloadCounted(t *testing.T) {
	// (a) Overload with short requests: the fleet scales to Max, the
	// queue keeps growing, p95 breaches; the settle window must not
	// swallow the rest of the run.
	rates := make([]float64, 14)
	for i := range rates {
		rates[i] = 30 // vs. ~8/s capacity at 2 instances
	}
	sup := newOneGroup(t, Scenario{Machines: 1, CoresPerMachine: 2, ControlDisabled: true}, newSlowApp, syntheticProfile(t))
	startN(t, sup, 1)
	res, err := Replay(sup, ReplayConfig{
		Rates:    rates,
		Seed:     3,
		ReqIters: 10,
		SLO:      SLO{P95: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Error("sustained overload produced zero SLO violations; blackout windows swallowed the run")
	}
	if res.BlackoutRounds >= len(res.Points) {
		t.Error("every round in blackout under sustained overload")
	}

	// (b) Starved rounds: requests longer than the quantum mean whole
	// rounds complete nothing while the backlog stands — those rounds
	// cannot attest the SLO and must count as violations.
	longApp := func() (workload.App, error) {
		return NewSynthetic(SyntheticOptions{ProductionIters: 200}), nil // 5 s service
	}
	sup2 := newOneGroup(t, Scenario{Machines: 1, CoresPerMachine: 1, ControlDisabled: true}, longApp, syntheticProfile(t))
	startN(t, sup2, 1)
	scaler, err := NewHysteresisScaler(HysteresisConfig{SLO: SLO{P95: 1.0}, Min: 1, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Replay(sup2, ReplayConfig{
		Rates:  []float64{3, 3, 3, 3, 3, 3},
		Seed:   3,
		Scaler: scaler,
		SLO:    SLO{P95: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Violations == 0 {
		t.Error("starved rounds with standing backlog attested the SLO")
	}
}

// TestReplayStopAtViolationIsPrefix pins what StopAtViolation promises
// a caller that only wants the verdict: on an overloaded trace the
// stopped replay is an exact prefix of the full one, ending on the
// first round that counts toward Violations; on a trace the fleet
// holds, nothing stops it and the whole result is the full one.
func TestReplayStopAtViolationIsPrefix(t *testing.T) {
	run := func(cores int, cfg ReplayConfig) *ReplayResult {
		t.Helper()
		sup := newOneGroup(t, Scenario{Machines: 1, CoresPerMachine: cores, ControlDisabled: true}, newSlowApp, syntheticProfile(t))
		startN(t, sup, 1)
		res, err := Replay(sup, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Sustained overload (TestReplaySustainedOverloadCounted's fixture):
	// the first violation is several rounds in, behind the settle window
	// of the initial scale-up, and more follow it.
	over := ReplayConfig{Rates: make([]float64, 14), Seed: 3, ReqIters: 10, SLO: SLO{P95: 1.0}}
	for i := range over.Rates {
		over.Rates[i] = 30
	}
	full := run(2, over)
	over.StopAtViolation = true
	stopped := run(2, over)
	k := -1
	for i, pt := range full.Points {
		if pt.SLOViolated && !pt.Blackout {
			k = i
			break
		}
	}
	if k <= 0 || full.Violations < 2 {
		t.Fatalf("fixture: first counted violation at round %d of %d, %d in all; want one past round 0 and more after it",
			k, len(full.Points), full.Violations)
	}
	if stopped.Violations != 1 {
		t.Errorf("stopped replay counts %d violations, want 1", stopped.Violations)
	}
	if !reflect.DeepEqual(stopped.Points, full.Points[:k+1]) {
		t.Errorf("stopped replay has %d points, not the first %d of the full replay", len(stopped.Points), k+1)
	}
	var watts float64
	for _, pt := range stopped.Points {
		watts += pt.PowerWatts
	}
	if want := watts / float64(k+1); stopped.MeanPower != want {
		t.Errorf("stopped MeanPower = %v, want %v (mean over the %d rounds run)", stopped.MeanPower, want, k+1)
	}

	// A trace four cores hold: no violation, so nothing to stop at.
	calm := ReplayConfig{Rates: Fig8Rates(30, 10, 2026), Seed: 11, ReqIters: 10, SLO: SLO{P95: 1.3}}
	full = run(4, calm)
	calm.StopAtViolation = true
	stopped = run(4, calm)
	if full.Violations != 0 {
		t.Fatalf("fixture: calm trace has %d violations, want 0", full.Violations)
	}
	if !reflect.DeepEqual(stopped, full) {
		t.Error("with no violation the stopped replay differs from the full one")
	}
}

// TestReadRatesCSV covers the recorded-trace loader.
func TestReadRatesCSV(t *testing.T) {
	in := "rate\n4.5\n\n10\n0.5\n"
	rates, err := ReadRatesCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{4.5, 10, 0.5}; !reflect.DeepEqual(rates, want) {
		t.Errorf("rates = %v, want %v", rates, want)
	}
	if _, err := ReadRatesCSV(strings.NewReader("1\nbogus\n")); err == nil {
		t.Error("want error for non-numeric rate after data began")
	}
	// A multi-column file (a replay or trace CSV passed by mistake)
	// must error, not degrade into a garbage trace.
	if _, err := ReadRatesCSV(strings.NewReader("round,rate\n0,4\n1,5\n")); err == nil {
		t.Error("want error for multi-column rates file")
	}
	// A stepped supervisor is rejected (trace indexing would shift).
	sup := newTestFleet(t, 1, 1, 0)
	startN(t, sup, 1)
	if _, err := sup.Step(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(sup, ReplayConfig{Rates: []float64{1}, SLO: SLO{P95: 1}}); err == nil {
		t.Error("want error replaying on a stepped supervisor")
	}
}
