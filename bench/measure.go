package main

// The noise-floor method. A run is R repetitions; each repetition sets
// the workload up from scratch and then times the same N ops. Op i does
// bit-identical work in every repetition, so the cost of op i is taken
// as floor_i, the minimum over repetitions of its wall time: whatever a
// neighbour, an interrupt or the scheduler added to one repetition is
// absent from another. Every timing metric is a statistic of floor_i.
//
// The garbage collector is the one thing that would not repeat: its
// background cycles land on nearly, not exactly, the same ops in every
// repetition, so part of their cost survives the minimum and part does
// not (serve_twin's p90 moved 10-20 % between identical runs). So while
// a repetition runs the background collector is off and the benchmark
// collects between ops, at the points GOGC=100 would have started a
// cycle, timing each collection on its own (see collector). Collection
// j is then identical work in every repetition too, and gets a floor of
// its own: it counts in beats_per_s, not in the op percentiles.
//
// Simulated latency, power and QoS repeat exactly and are checked
// (sim_digest), never reported as metrics.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
)

const (
	// repsEndToEnd and repsTraced are R, the repetitions a floor is taken
	// over. They are fixed: a floor deepens with every repetition, so
	// neither a faster program nor a faster box may be given more of them.
	repsEndToEnd, repsTraced = 5, 2
	// prefixOps is where the running sim_digest is sampled for the
	// Workers 1 vs 2 comparison, which replays only that many ops.
	prefixOps = 200
)

type options struct {
	seed int64
	// seconds is what the run was sized for (run_seconds in
	// BENCHMARK.json). N and R do not depend on it; a run that has spent
	// twice as long is on a box too slow to compare with and is aborted
	// (0 = no limit).
	seconds float64
	// n and reps override the workload's N and the fixed R; only the
	// tests set them.
	n, reps int
	trace   bool
	spans   string
	// plantPct makes every Run.Step spin for this share of the op time
	// divided by the Step calls per op (-selfcheck's planted slowdown).
	plantPct float64
}

// repStats is what one repetition yields besides its op times.
type repStats struct {
	mallocs, bytes   uint64
	digest, prefix   uint64
	beats            int64
	arrivals, done   int64
	queueEnd         int
	moves, switches  int
	offered, refused int64
	opErrs           int
	hwmKB            int64
}

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	workload string
	seed     int64
	n, reps  int
	digest   uint64
	// attempted counts ops and offered requests over all repetitions;
	// failed the ones that errored, were refused, or belong to a
	// repetition whose sim_digest differs from repetition 0.
	attempted, failed int64
	problems          []string
	metrics           []metric
}

func (r *result) correct() bool { return len(r.problems) == 0 }

func (r *result) failf(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// floors holds, for a sequence of ops, the minimum over repetitions of
// each op's wall time and of the collection that followed it.
type floors struct {
	op []int64
	// last is the latest repetition's own op times.
	last []int64
	// collect says after which ops the first repetition collected; later
	// repetitions collect after the same ops, so collection j is the same
	// work in every repetition even if the runtime's own allocations
	// differ by a few bytes.
	collect []bool
	planned bool
	gc      []int64
}

func newFloors(n int) *floors {
	return &floors{op: newFloor(n), last: make([]int64, n), collect: make([]bool, n), gc: newFloor(n)}
}

func newFloor(n int) []int64 {
	f := make([]int64, n)
	for i := range f {
		f[i] = math.MaxInt64
	}
	return f
}

// after records that op i took d, and collects if a collection is due
// here.
func (f *floors) after(i int, d time.Duration, gc *collector) {
	f.op[i], f.last[i] = min(f.op[i], int64(d)), int64(d)
	if !f.planned {
		f.collect[i] = gc.due()
	}
	if f.collect[i] {
		f.gc[i] = min(f.gc[i], int64(gc.collect()))
	}
}

// collections returns how many collections followed the ops and the sum
// of their floors.
func (f *floors) collections() (cycles int, total int64) {
	for i, c := range f.collect {
		if c {
			cycles++
			total += f.gc[i]
		}
	}
	return cycles, total
}

// series is what the repetitions of one run accumulate: the floor of
// the build, and the floors of the warm-up ops and the timed ops.
type series struct {
	build       int64
	warm, timed *floors
}

func newSeries(n int) *series {
	return &series{build: math.MaxInt64, warm: newFloors(warmOps), timed: newFloors(n)}
}

// setup is the set-up time on the noise floor: set-up is the same work
// in every repetition too, piece by piece.
func (s *series) setup() time.Duration {
	_, gc := s.warm.collections()
	return time.Duration(s.build + sum(s.warm.op) + gc)
}

// collector stands in for the background garbage collector while a
// repetition runs. Asked after an op, it says whether the heap has
// reached twice its live size (4 MiB at least) since the last
// collection, which is where GOGC=100 starts a cycle; collect then runs
// a full collection, mark and sweep, before the next op starts.
type collector struct {
	sample  [2]metrics.Sample
	since   uint64 // bytes ever allocated when the last collection ended
	growth  uint64 // bytes of allocation that make the next one due
	restore int
}

func startCollector() *collector {
	c := &collector{restore: debug.SetGCPercent(-1)}
	c.sample[0].Name = "/gc/heap/allocs:bytes"
	c.sample[1].Name = "/gc/heap/live:bytes"
	c.collect()
	return c
}

func (c *collector) stop() { debug.SetGCPercent(c.restore) }

func (c *collector) collect() time.Duration {
	t0 := time.Now()
	runtime.GC()
	d := time.Since(t0)
	metrics.Read(c.sample[:])
	c.since = c.sample[0].Value.Uint64()
	live := c.sample[1].Value.Uint64()
	c.growth = max(live, 4<<20-min(live, 4<<20))
	return d
}

func (c *collector) due() bool {
	metrics.Read(c.sample[:1])
	return c.sample[0].Value.Uint64()-c.since >= c.growth
}

// runRep is one repetition: build the workload, warm it, time n ops
// into s (keeping the minimum per op), then check what it simulated.
func runRep(w workloadDef, e env, n, rep int, s *series) (repStats, error) {
	var st repStats
	gc := startCollector()
	defer gc.stop()
	t0 := time.Now()
	lv, err := w.build(e)
	if err != nil {
		return st, fmt.Errorf("%s: build: %w", w.name, err)
	}
	// Generating inputs is the benchmark's work, not the program's.
	s.build = min(s.build, int64(time.Since(t0)-lv.inputGen))
	for i := 0; i < warmOps; i++ {
		ts := time.Now()
		if err := lv.op(); err != nil {
			return st, fmt.Errorf("%s: warm-up op %d: %w", w.name, i, err)
		}
		s.warm.after(i, time.Since(ts), gc)
	}

	// Every repetition's timed ops start from a collected heap.
	gc.collect()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	prefixMoves, prefixSwitches := 0, 0
	for i := 0; i < n; i++ {
		e.tr.beginOp(rep, i)
		ts := time.Now()
		err := lv.op()
		d := time.Since(ts)
		e.tr.endOp(ts, d)
		if err != nil {
			st.opErrs++
			return st, fmt.Errorf("%s: op %d: %w", w.name, i, err)
		}
		s.timed.after(i, d, gc)
		if i == prefixOps-1 {
			prefixMoves, prefixSwitches = lv.sup.ScaleMoves(), lv.sup.KnobSwitches()
		}
	}
	s.warm.planned, s.timed.planned = true, true
	runtime.ReadMemStats(&m1)
	st.hwmKB = vmHWM()
	st.mallocs, st.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	rounds := lv.sup.Report().Rounds
	if len(rounds) != warmOps+n {
		return st, fmt.Errorf("%s: %d rounds reported after %d ops", w.name, len(rounds), warmOps+n)
	}
	st.moves, st.switches = lv.sup.ScaleMoves(), lv.sup.KnobSwitches()
	st.digest = simDigest(rounds, st.moves, st.switches)
	if n >= prefixOps {
		st.prefix = simDigest(rounds[:warmOps+prefixOps], prefixMoves, prefixSwitches)
	}
	for _, rs := range rounds[warmOps:] {
		st.beats += int64(rs.Beats)
		st.arrivals += int64(rs.Arrivals)
		st.done += int64(rs.Completions)
	}
	st.queueEnd = rounds[len(rounds)-1].QueueDepth
	if lv.requests != nil {
		st.offered, st.refused = lv.requests()
	}
	if lv.backlogBound > 0 && st.queueEnd > lv.backlogBound {
		return st, fmt.Errorf("%s: backlog %d after the last op exceeds the bound %d: the queue is growing", w.name, st.queueEnd, lv.backlogBound)
	}
	return st, nil
}

// simDigest hashes everything the simulation reported: a change that
// only makes the program faster leaves it identical.
func simDigest(rounds []fleet.RoundStats, moves, switches int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	for _, rs := range rounds {
		mix(uint64(rs.Beats))
		mix(uint64(rs.Arrivals))
		mix(uint64(rs.Completions))
		mix(uint64(rs.Shed))
		mix(uint64(rs.QueueDepth))
		mix(math.Float64bits(rs.PowerWatts))
		mix(math.Float64bits(rs.LatencyP95))
		mix(math.Float64bits(rs.RequestLoss))
	}
	mix(uint64(moves))
	mix(uint64(switches))
	return h
}

// vmHWM is the process's peak resident set in kB (0 where /proc does
// not say).
func vmHWM() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// percentile is the nearest-rank p-th percentile (rank ⌈p·n/100⌉) of an
// unsorted series.
func percentile(v []int64, p int) int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := (p*len(s) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sum(v []int64) int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// measure runs one workload and returns its metrics: the seven
// end-to-end metrics for an untraced run, the per-layer metrics for a
// traced one.
func measure(w workloadDef, o options) (*result, error) {
	// One thread: two engine threads on this 2-core box disagree with
	// themselves by 3-9 % between runs of identical code.
	runtime.GOMAXPROCS(1)
	n := w.n
	if o.n > 0 {
		n = o.n
	}
	res := &result{workload: w.name, seed: o.seed, n: n}
	e := env{seed: o.seed, ops: n, workers: 2, sched: new([][]time.Duration)}
	if o.plantPct > 0 {
		spinIters, err := plantedSpin(w, e, o.plantPct)
		if err != nil {
			return nil, err
		}
		e.spin = spinIters
	}
	if o.trace {
		return res, measureTraced(w, o, e, n, res)
	}

	s := newSeries(n)
	var reps []repStats
	begin := time.Now()
	for r := 0; r < o.repetitions(repsEndToEnd) && res.correct(); r++ {
		st, err := runRep(w, e, n, r, s)
		reps = append(reps, st)
		if err == nil {
			err = o.overrun(begin)
		}
		if err != nil {
			res.failf("%v", err)
		}
	}
	res.reps = len(reps)
	res.digest = reps[0].digest
	tally(res, reps, n)
	if !res.correct() {
		return res, nil
	}

	_, gcTotal := s.timed.collections()
	var allocs, kb []float64
	for _, st := range reps {
		allocs = append(allocs, float64(st.mallocs)/float64(n))
		kb = append(kb, float64(st.bytes)/float64(n)/1024)
	}
	res.metrics = []metric{
		{"setup_s", "s", s.setup().Seconds()},
		{"op_ms_p50", "ms", float64(percentile(s.timed.op, 50)) / 1e6},
		{"op_ms_p90", "ms", float64(percentile(s.timed.op, 90)) / 1e6},
		{"beats_per_s", "1/s", float64(reps[0].beats) / (float64(sum(s.timed.op)+gcTotal) / 1e9)},
		{"allocs_per_op", "count", medianFloat(allocs)},
		{"alloc_kb_per_op", "KB", medianFloat(kb)},
		// Peak RSS when the first repetition's timed ops end: one full
		// set-up plus N ops of retained state, whatever the benchmark's
		// own Report() call and the later repetitions add.
		{"peak_rss_mb", "MB", float64(reps[0].hwmKB) / 1024},
	}
	return res, nil
}

// repetitions is R: the fixed count unless a test set its own.
func (o options) repetitions(fixed int) int {
	if o.reps > 0 {
		return o.reps
	}
	return fixed
}

// overrun is an error once a run that began at begin has spent twice
// what it was sized for: its floors were taken on a box, or beside a
// neighbour, too slow to compare with.
func (o options) overrun(begin time.Time) error {
	if spent := time.Since(begin).Seconds(); o.seconds > 0 && spent > 2*o.seconds {
		return fmt.Errorf("the repetitions took %.0f s, over twice the %.0f s the run is sized for", spent, o.seconds)
	}
	return nil
}

// tally applies the checks every repetition must pass and counts
// attempted and failed operations.
func tally(res *result, reps []repStats, n int) {
	for r, st := range reps {
		res.attempted += int64(n) + st.offered
		res.failed += int64(st.opErrs) + st.refused
		if st.digest != reps[0].digest && st.opErrs == 0 {
			res.failed += int64(n)
			res.failf("repetition %d sim_digest %016x differs from repetition 0's %016x: the workload is not deterministic", r, st.digest, reps[0].digest)
		}
		if st.refused > 0 {
			res.failf("repetition %d: %d of %d requests refused (status other than 202, overflow, shed or unknown group)", r, st.refused, st.offered)
		}
	}
}
