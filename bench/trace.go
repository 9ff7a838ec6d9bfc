package main

// Tracing lives entirely in the benchmark: spans are recorded around
// the calls into each layer and through the callback seams the program
// already offers (WorkloadGroup.NewApp, fleet.Autoscaler,
// TwinConfig.Scenario). They are kept in memory and written out when
// the run ends. End-to-end metrics are always measured with tracing
// off; a traced run exists to attribute the op to layers, and reports
// its own overhead against an untraced run of the same ops.

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/workload"
)

type spanKind uint8

const (
	spanOp spanKind = iota
	spanLoadgen
	spanHTTP
	spanServeRound
	spanFleetStep
	spanWorkloadStep
	spanAutoscale
	spanTwinScenario
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"bench.op", "bench.loadgen", "serve.http", "serve.round", "fleet.step",
	"workload.step", "fleet.autoscale", "serve.twin.scenario",
}

// span is one recorded interval. A span with count > 1 aggregates that
// many short intervals between start and end (per-request handler
// calls, per-beat app steps): busy is the sum of their durations, and
// is what self-time arithmetic uses. For a contiguous span busy equals
// end-start. Spans of one op share (rep, op).
type span struct {
	kind       spanKind
	rep, op    int
	parent     int // index into the span list, -1 for bench.op
	start, end int64
	busy       int64
	count      int64
}

// stepSampleMask times one wrapped Run.Step call in 16: timing every
// call would cost more than the call.
const stepSampleMask = 15

type tracer struct {
	t0    time.Time
	spans []span
	// clockCost is what one timed interval includes of the clock reads
	// that bracket it; it is subtracted from aggregated intervals so
	// sub-microsecond calls are not reported as the cost of timing them.
	clockCost int64

	rep, op int
	opSpan  int

	// Callback accumulators, drained into child spans when the
	// enclosing fleet.step / serve.round span closes. Atomic because the
	// sharded engine calls Run.Step from its worker goroutines.
	stepCalls, stepSampled, stepNs atomic.Int64
	scaleCalls, scaleNs            atomic.Int64
	scenarios                      atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), opSpan: -1}
	t.clockCost = 1 << 62
	for i := 0; i < 1000; i++ {
		a := t.now()
		if d := t.now() - a; d < t.clockCost {
			t.clockCost = d
		}
	}
	return t
}

// now is nanoseconds since the tracer started; a nil tracer (untraced
// run) reads no clock.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// beginOp opens the bench.op span of op i of repetition rep; endOp
// closes it with the interval the measuring loop timed.
func (t *tracer) beginOp(rep, i int) {
	if t == nil {
		return
	}
	// Whatever the callbacks counted outside an op (construction,
	// warm-up) belongs to no span.
	for _, c := range []*atomic.Int64{&t.stepCalls, &t.stepSampled, &t.stepNs, &t.scaleCalls, &t.scaleNs, &t.scenarios} {
		c.Store(0)
	}
	t.rep, t.op = rep, i
	t.opSpan = len(t.spans)
	t.spans = append(t.spans, span{kind: spanOp, rep: rep, op: i, parent: -1, count: 1})
}

func (t *tracer) endOp(start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := &t.spans[t.opSpan]
	s.start = int64(start.Sub(t.t0))
	s.end = s.start + int64(d)
	s.busy = int64(d)
	t.opSpan = -1
}

// open starts a contiguous child of the current op (warm-up ops are
// outside any op and record nothing).
func (t *tracer) open(kind spanKind) int {
	if t == nil || t.opSpan < 0 {
		return -1
	}
	t.spans = append(t.spans, span{kind: kind, rep: t.rep, op: t.op, parent: t.opSpan, start: t.now(), count: 1})
	return len(t.spans) - 1
}

// close ends a span opened by open and hangs the callback work that
// happened inside it underneath.
func (t *tracer) close(idx int) {
	if idx < 0 {
		return
	}
	now := t.now()
	s := &t.spans[idx]
	s.end, s.busy = now, now-s.start
	start := s.start

	if calls := t.stepCalls.Swap(0); calls > 0 {
		sampled, ns := t.stepSampled.Swap(0), t.stepNs.Swap(0)
		var busy int64
		if sampled > 0 {
			busy = max(ns-sampled*t.clockCost, 0) * calls / sampled
		}
		t.aggregate(spanWorkloadStep, idx, start, now, busy, calls)
	}
	if calls := t.scaleCalls.Swap(0); calls > 0 {
		t.aggregate(spanAutoscale, idx, start, now, max(t.scaleNs.Swap(0)-calls*t.clockCost, 0), calls)
	}
	if n := t.scenarios.Swap(0); n > 0 {
		t.aggregate(spanTwinScenario, idx, start, now, 0, n) // count only
	}
}

func (t *tracer) aggregate(kind spanKind, parent int, start, end, busy, count int64) {
	t.spans = append(t.spans, span{kind: kind, rep: t.rep, op: t.op, parent: parent, start: start, end: end, busy: busy, count: count})
}

// httpBatch records one op's pass over the request schedule: the time
// inside Handler.ServeHTTP as serve.http and the rest of the loop — the
// benchmark's own generator — as bench.loadgen.
func (t *tracer) httpBatch(start, inHTTP int64, n int) {
	if t == nil || t.opSpan < 0 {
		return
	}
	now := t.now()
	cc := int64(n) * t.clockCost
	t.aggregate(spanLoadgen, t.opSpan, start, now, max(now-start-inHTTP-cc, 0), int64(n))
	t.aggregate(spanHTTP, t.opSpan, start, now, max(inHTTP-cc, 0), int64(n))
}

// fleetOp is the op of the fleet_* workloads: one Supervisor.Step.
func (t *tracer) fleetOp(sup *fleet.Supervisor) func() error {
	return func() error {
		s := t.open(spanFleetStep)
		_, err := sup.Step(nil)
		t.close(s)
		return err
	}
}

func (t *tracer) countScenario() {
	if t != nil {
		t.scenarios.Add(1)
	}
}

// scalerWrap times the autoscaling policy's decision.
type scalerWrap struct {
	inner fleet.Autoscaler
	t     *tracer
}

func (s scalerWrap) Scale(obs fleet.ScaleObservation) int {
	t0 := s.t.now()
	n := s.inner.Scale(obs)
	s.t.scaleNs.Add(s.t.now() - t0)
	s.t.scaleCalls.Add(1)
	return n
}

func (t *tracer) wrapScaler(a fleet.Autoscaler) fleet.Autoscaler {
	if t == nil {
		return a
	}
	return scalerWrap{inner: a, t: t}
}

// appWrap is the workload.App handed in through NewApp when a run is
// traced (it counts and samples Run.Step) or carries -selfcheck's
// planted delay (it spins in Run.Step). It forwards everything else,
// including Rewind, so the fleet pools wrapped runs exactly as it pools
// bare ones.
type appWrap struct {
	workload.App
	t    *tracer
	spin int
}

func (e env) wrapApp(a workload.App) workload.App {
	if e.tr == nil && e.spin == 0 {
		return a
	}
	return &appWrap{App: a, t: e.tr, spin: e.spin}
}

func (a *appWrap) Streams(set workload.InputSet) []workload.Stream {
	in := a.App.Streams(set)
	out := make([]workload.Stream, len(in))
	for i, st := range in {
		out[i] = &streamWrap{Stream: st, a: a}
	}
	return out
}

type streamWrap struct {
	workload.Stream
	a *appWrap
}

func (s *streamWrap) NewRun() workload.Run { return &runWrap{Run: s.Stream.NewRun(), a: s.a} }

type runWrap struct {
	workload.Run
	a    *appWrap
	sink atomic.Uint64
}

func (r *runWrap) Step() (float64, bool) {
	if n := r.a.spin; n > 0 {
		spin(&r.sink, n)
	}
	t := r.a.t
	if t == nil {
		return r.Run.Step()
	}
	if t.stepCalls.Add(1)&stepSampleMask != 0 {
		return r.Run.Step()
	}
	t0 := t.now()
	cost, ok := r.Run.Step()
	t.stepNs.Add(t.now() - t0)
	t.stepSampled.Add(1)
	return cost, ok
}

func (r *runWrap) Rewind() bool {
	rw, ok := r.Run.(workload.Rewinder)
	return ok && rw.Rewind()
}

// spin is the planted delay: n atomic adds. Each is a full fence, so
// the CPU can overlap them neither with each other nor with the
// engine's own loads and stores — a plain arithmetic loop of a few
// dozen nanoseconds mostly disappears into out-of-order execution.
func spin(x *atomic.Uint64, n int) {
	for i := 0; i < n; i++ {
		x.Add(1)
	}
}

// spinCost measures one spin iteration in nanoseconds (minimum over a
// few batches).
func spinCost() float64 {
	const iters = 1 << 18
	best := time.Duration(1 << 62)
	var x atomic.Uint64
	for i := 0; i < 8; i++ {
		t0 := time.Now()
		spin(&x, iters)
		best = min(best, time.Since(t0))
	}
	return float64(best) / iters
}

// floors returns, for every span kind, the per-op minimum over
// repetitions of the span's busy time and the per-op count (counts
// repeat exactly, so the last repetition's is kept).
func (t *tracer) floors(n int) (busy, count [numSpanKinds][]int64) {
	for k := range busy {
		busy[k] = make([]int64, n)
		count[k] = make([]int64, n)
	}
	seen := make([][]bool, numSpanKinds)
	for k := range seen {
		seen[k] = make([]bool, n)
	}
	for _, s := range t.spans {
		if s.op >= n {
			continue
		}
		if !seen[s.kind][s.op] || s.busy < busy[s.kind][s.op] {
			busy[s.kind][s.op] = s.busy
		}
		seen[s.kind][s.op] = true
		count[s.kind][s.op] = s.count
	}
	return busy, count
}

// writeSpans writes the span list as one JSON document.
func (t *tracer) writeSpans(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns since trace start\",\"spans\":[\n", workload, seed)
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"rep\":%d,\"op\":%d,\"parent\":%d,\"start\":%d,\"end\":%d,\"busy\":%d,\"count\":%d}%s\n",
			i, spanNames[s.kind], s.rep, s.op, s.parent, s.start, s.end, s.busy, s.count, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
