package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

func TestFloorAndPercentiles(t *testing.T) {
	series := [][]int64{
		{10, 50, 30, 40, 20, 60, 70, 80, 90, 100},
		{11, 20, 31, 41, 25, 61, 71, 500, 91, 99},
	}
	floor := newFloor(10)
	for _, rep := range series {
		for i, d := range rep {
			floor[i] = min(floor[i], d)
		}
	}
	want := []int64{10, 20, 30, 40, 20, 60, 70, 80, 90, 99}
	if !reflect.DeepEqual(floor, want) {
		t.Fatalf("floor = %v, want %v", floor, want)
	}
	// Nearest rank on the sorted floor 10 20 20 30 40 60 70 80 90 99.
	for _, c := range []struct {
		p    int
		want int64
	}{{50, 40}, {90, 90}, {91, 99}, {100, 99}, {1, 10}} {
		if got := percentile(floor, c.p); got != c.want {
			t.Errorf("p%d = %d, want %d", c.p, got, c.want)
		}
	}
	if got := sum(floor); got != 519 {
		t.Errorf("sum = %d, want 519", got)
	}
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v", got)
	}
	if got := medianFloat([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
}

func TestScheduleReproducible(t *testing.T) {
	a := schedule(7, 100, 2000, 2600)
	b := schedule(7, 100, 2000, 2600)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 100, 2000, 2600)) {
		t.Fatal("two seeds gave the same schedule")
	}
	var base, peak, nb, np int
	for r, due := range a {
		lo, hi := time.Duration(r)*time.Second, time.Duration(r+1)*time.Second
		for i, at := range due {
			if at < lo || at >= hi || (i > 0 && at < due[i-1]) {
				t.Fatalf("round %d: instant %v out of order or outside [%v,%v)", r, at, lo, hi)
			}
		}
		if r%servePeriod >= servePeriod-serveWidth {
			peak, np = peak+len(due), np+1
		} else {
			base, nb = base+len(due), nb+1
		}
	}
	if m := float64(base) / float64(nb); math.Abs(m-2000) > 30 {
		t.Errorf("base rounds average %.0f requests, want about 2000", m)
	}
	if m := float64(peak) / float64(np); math.Abs(m-2600) > 60 {
		t.Errorf("spike rounds average %.0f requests, want about 2600", m)
	}
}

func TestSimDigestSeesEveryField(t *testing.T) {
	rounds := []fleet.RoundStats{{Beats: 5, Arrivals: 3, Completions: 2, QueueDepth: 1, PowerWatts: 100, LatencyP95: 0.5, RequestLoss: 0.01}}
	base := simDigest(rounds, 1, 2)
	mutations := []func(*fleet.RoundStats){
		func(r *fleet.RoundStats) { r.Beats++ },
		func(r *fleet.RoundStats) { r.Arrivals++ },
		func(r *fleet.RoundStats) { r.Completions++ },
		func(r *fleet.RoundStats) { r.Shed++ },
		func(r *fleet.RoundStats) { r.QueueDepth++ },
		func(r *fleet.RoundStats) { r.PowerWatts += 1e-9 },
		func(r *fleet.RoundStats) { r.LatencyP95 += 1e-12 },
		func(r *fleet.RoundStats) { r.RequestLoss += 1e-12 },
	}
	for i, mutate := range mutations {
		m := append([]fleet.RoundStats(nil), rounds...)
		mutate(&m[0])
		if simDigest(m, 1, 2) == base {
			t.Errorf("mutation %d left the digest unchanged", i)
		}
	}
	if simDigest(rounds, 2, 2) == base || simDigest(rounds, 1, 3) == base {
		t.Error("scale moves or knob switches left the digest unchanged")
	}
}

// The wrappers a traced run hands in through NewApp and Autoscale must
// not change what is simulated, nor what the program allocates in
// steady state. (On serve_twin construction is inside the op, and every
// wrapped replica app allocates its wrapped streams and runs, so there
// only the simulation is compared.)
func TestWrappersAreTransparent(t *testing.T) {
	const n = 20
	// The two workloads with an autoscaler, so both wrappers are in play.
	for _, name := range []string{"fleet_openloop", "serve_twin"} {
		w, _ := findWorkload(name)
		bare, err := runRep(w, env{seed: 3, ops: n, workers: 2}, n, 0, newSeries(n))
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		wrapped, err := runRep(w, env{seed: 3, ops: n, workers: 2, tr: tr}, n, 0, newSeries(n))
		if err != nil {
			t.Fatal(err)
		}
		if bare.digest != wrapped.digest {
			t.Errorf("%s: sim_digest %016x bare, %016x wrapped", name, bare.digest, wrapped.digest)
		}
		// Span records cost no allocation (the list is preallocated); the
		// Go runtime's own background allocations move the count by a few
		// dozen, where one allocation per beat or request would double it.
		if d := math.Abs(float64(bare.mallocs) - float64(wrapped.mallocs)); name != "serve_twin" && d > 0.02*float64(bare.mallocs) {
			t.Errorf("%s: %d allocations in %d ops bare, %d wrapped", name, bare.mallocs, n, wrapped.mallocs)
		}
		busy, count := tr.floors(n)
		if sum(count[spanWorkloadStep]) == 0 || sum(busy[spanOp]) == 0 {
			t.Errorf("%s: the traced run recorded no workload.step or bench.op span", name)
		}
		for i, s := range tr.spans {
			if s.kind != spanOp && (s.parent < 0 || s.parent >= i) {
				t.Fatalf("%s: span %d (%s) has parent %d", name, i, spanNames[s.kind], s.parent)
			}
			if s.end < s.start || s.busy < 0 {
				t.Fatalf("%s: span %d (%s) runs from %d to %d, busy %d", name, i, spanNames[s.kind], s.start, s.end, s.busy)
			}
		}
	}
}

// With the background collector off and collections replayed after the
// same ops, a repetition allocates what the one before it did, and every
// collection has a floor.
func TestCollectionsRepeat(t *testing.T) {
	const n = 20
	w, _ := findWorkload("serve_ingress")
	e := env{seed: 5, ops: n, workers: 2, sched: new([][]time.Duration)}
	s := newSeries(n)
	var reps [2]repStats
	for r := range reps {
		st, err := runRep(w, e, n, r, s)
		if err != nil {
			t.Fatal(err)
		}
		reps[r] = st
	}
	if d := math.Abs(float64(reps[0].mallocs) - float64(reps[1].mallocs)); d > 0.001*float64(reps[0].mallocs) {
		t.Errorf("%d allocations in repetition 0, %d in repetition 1", reps[0].mallocs, reps[1].mallocs)
	}
	cycles, total := s.timed.collections()
	if cycles == 0 || total <= 0 || total >= sum(s.timed.op) {
		t.Errorf("%d collections taking %d ns beside %d ns of ops", cycles, total, sum(s.timed.op))
	}
	if got := s.setup(); got <= 0 || got > time.Second {
		t.Errorf("set-up floor %v", got)
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		res, err := measure(w, options{seed: 2, n: 20, reps: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() || res.failed != 0 || res.attempted < 40 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d %v", w.name, res.correct(), res.attempted, res.failed, res.problems)
		}
		if len(res.metrics) != len(endToEndSchema) {
			t.Fatalf("%s: %d metrics, want %d", w.name, len(res.metrics), len(endToEndSchema))
		}
		for i, m := range res.metrics {
			if m.name != endToEndSchema[i].name || m.unit != endToEndSchema[i].unit || !(m.value > 0) {
				t.Errorf("%s: metric %d is %s = %v %s", w.name, i, m.name, m.value, m.unit)
			}
		}
		if !strings.HasPrefix(resultLine(res), `{"correct":true,"attempted":`) {
			t.Errorf("%s: result line %s", w.name, resultLine(res))
		}
	}
}

func TestTracedRunPrintsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs probes")
	}
	w, _ := findWorkload("serve_ingress")
	spans := t.TempDir() + "/spans.json"
	res, err := measure(w, options{seed: 2, n: 20, reps: 1, trace: true, spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatal(res.problems)
	}
	got := map[string]float64{}
	for _, m := range res.metrics {
		got[m.name] = m.value
	}
	if len(got) != len(perLayerSchema) {
		t.Fatalf("%d per-layer metrics, want %d", len(got), len(perLayerSchema))
	}
	for _, name := range []string{"core.beat_ns", "core.session_ns", "serve.http_us", "serve.round_us", "fleet.inject_ns", "serve.admission.admit_ns", "fleet.beats_per_op", "serve.requests_per_op", "go.gc_ms"} {
		if !(got[name] > 0) {
			t.Errorf("%s = %v", name, got[name])
		}
	}
	// Probes of layers serve_ingress does not enter are left to the
	// workloads that do.
	for _, name := range []string{"control.update_ns", "fleet.round_us.h128", "serve.twin.advise_ms"} {
		if got[name] != 0 {
			t.Errorf("%s = %v on serve_ingress", name, got[name])
		}
	}
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			Name   string
			Parent int
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	if len(doc.Spans) < 20*4 {
		t.Errorf("%d spans written", len(doc.Spans))
	}
}

func TestRegressionsUseBoundsAndDirection(t *testing.T) {
	base, inside, beyond, better := map[string]float64{}, map[string]float64{}, map[string]float64{}, map[string]float64{}
	for name, bd := range bounds {
		worse := 1.0
		if bd.higher {
			worse = -1
		}
		base[name] = 100
		inside[name] = 100 * (1 + worse*0.9*bd.bound)
		beyond[name] = 100 * (1 + worse*1.1*bd.bound)
		better[name] = 100 * (1 - worse*0.5)
	}
	for name, b := range map[string]map[string]float64{"itself": base, "a run inside every bound": inside, "a run better on every metric": better} {
		if got := regressions(base, b); len(got) != 0 {
			t.Errorf("against %s: flagged %v", name, got)
		}
	}
	if got := regressions(base, beyond); len(got) != len(endToEndSchema) {
		t.Errorf("a run beyond every bound: flagged %v, want all %d metrics", got, len(endToEndSchema))
	}
}

// BENCHMARK.json is what the driver reads; the program's schema and
// bounds are what it prints and checks. They must say the same.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d built", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s / %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEndSchema) {
		t.Fatalf("%d end-to-end metrics listed, %d printed", len(spec.EndToEnd), len(endToEndSchema))
	}
	for i, m := range endToEndSchema {
		s, b := spec.EndToEnd[i], bounds[m.name]
		if s.Name != m.name || s.Unit != m.unit || s.Bound != b.bound || (s.Better == "higher") != b.higher {
			t.Errorf("end-to-end metric %d: %+v vs %s [%s] bound %v higher=%v", i, s, m.name, m.unit, b.bound, b.higher)
		}
	}
	if len(spec.PerLayer) != len(perLayerSchema) {
		t.Fatalf("%d per-layer metrics listed, %d printed", len(spec.PerLayer), len(perLayerSchema))
	}
	for i, m := range perLayerSchema {
		if s := spec.PerLayer[i]; s.Name != m.name || s.Unit != m.unit {
			t.Errorf("per-layer metric %d: %+v vs %s [%s]", i, s, m.name, m.unit)
		}
	}
}
