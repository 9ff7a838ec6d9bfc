package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/workload"
)

// Request is one unit of offered load: a work item over an input stream
// (a video to encode, a portfolio to price, a query batch) that an
// instance processes iteration by iteration under PowerDial control. By
// default a request covers a whole stream; WithRequestIters splits the
// offered load into per-iteration work items instead, so one instance
// interleaves many short requests and per-request latency reflects
// queueing delay at beat granularity.
type Request struct {
	ID int
	// Group is the index of the workload group the request belongs to:
	// requests dispatch only within their group (an index into
	// Scenario.Groups). The supervisor stamps it when the request enters
	// the fleet.
	Group int
	// StreamIdx selects which production stream of the serving instance's
	// application realizes the request (cycled modulo the stream count).
	StreamIdx int
	// Iters caps how many iterations of the stream this request covers
	// (0 = the whole stream).
	Iters int
	// Arrival is the fleet virtual time the request entered the system.
	Arrival time.Time
}

// LoadGen is an open-loop arrival process: it decides when requests
// enter the fleet, independent of how fast the fleet drains them
// (queues grow when the fleet falls behind). Under the event-driven
// timeline arrivals land at exponentially spaced virtual instants — a
// true Poisson process — rather than in per-quantum batches. All
// processes are deterministic for a fixed seed.
type LoadGen struct {
	rng      *rand.Rand
	rate     func(round int) float64
	saturate int
	reqIters int
	nextID   int
	nextIdx  int

	// times is the reusable arrival-instant scratch buffer: eventTimes
	// returns a view of it, consumed by the round seed before the next
	// call, so steady-state rounds sample arrivals without allocating.
	times []time.Time

	// rec, when set, supplies the arrival instants instead of rng: a
	// replica's generator replaying a realization shared across fleets
	// (replica).
	rec *roundRecord[time.Time]
}

// NewConstantLoad produces Poisson arrivals with a fixed mean of
// perRound requests per control quantum.
func NewConstantLoad(seed int64, perRound float64) *LoadGen {
	return &LoadGen{
		rng:  rand.New(rand.NewSource(seed)),
		rate: func(int) float64 { return perRound },
	}
}

// NewRampLoad produces Poisson arrivals whose mean ramps linearly from
// `from` to `to` requests per quantum over horizon quanta, then holds at
// `to`.
func NewRampLoad(seed int64, from, to float64, horizon int) *LoadGen {
	if horizon < 1 {
		horizon = 1
	}
	return &LoadGen{
		rng: rand.New(rand.NewSource(seed)),
		rate: func(round int) float64 {
			if round >= horizon {
				return to
			}
			return from + (to-from)*float64(round)/float64(horizon)
		},
	}
}

// NewSpikeLoad produces Poisson arrivals at mean `base` per quantum,
// bursting to mean `peak` for `width` quanta at the start of every
// `period` quanta — the intermittent-spike shape of the Sec. 5.5
// consolidation workload (after Barroso & Hölzle).
func NewSpikeLoad(seed int64, base, peak float64, period, width int) *LoadGen {
	if period < 1 {
		period = 1
	}
	return &LoadGen{
		rng: rand.New(rand.NewSource(seed)),
		rate: func(round int) float64 {
			if round%period < width {
				return peak
			}
			return base
		},
	}
}

// NewTraceLoad replays a recorded per-round arrival-rate trace:
// Poisson arrivals whose mean in round r is rates[r] requests per
// quantum (the last rate holds past the end of the trace). This is how
// a recorded Fig. 8-style consolidation trace, or the synthetic
// Fig8Rates shape, is offered to the fleet.
func NewTraceLoad(seed int64, rates []float64) *LoadGen {
	rates = append([]float64(nil), rates...)
	return &LoadGen{
		rng: rand.New(rand.NewSource(seed)),
		rate: func(round int) float64 {
			if len(rates) == 0 {
				return 0
			}
			if round >= len(rates) {
				round = len(rates) - 1
			}
			return rates[round]
		},
	}
}

// NewSaturatingLoad keeps every accepting instance continuously busy:
// its queue is topped up to the given depth at each quantum boundary
// and the instance feeds itself the next request whenever the queue
// empties mid-quantum — closed-loop saturation, used to validate the
// fleet against the cluster oracle's peak-load arithmetic.
func NewSaturatingLoad(depth int) *LoadGen {
	if depth < 1 {
		depth = 1
	}
	return &LoadGen{saturate: depth}
}

// WithRequestIters makes the generator mint per-iteration work items:
// every request covers n iterations of its stream instead of the whole
// stream (the request-level batching model). It returns the generator
// for chaining; n <= 0 restores whole-stream requests.
func (g *LoadGen) WithRequestIters(n int) *LoadGen {
	if n < 0 {
		n = 0
	}
	g.reqIters = n
	return g
}

// Saturating returns the target queue depth of a saturating generator
// (ok=false for open-loop generators).
func (g *LoadGen) Saturating() (depth int, ok bool) {
	return g.saturate, g.saturate > 0
}

// next mints a request arriving at the given virtual time.
func (g *LoadGen) next(arrival time.Time) *Request {
	return g.nextInto(&Request{}, arrival)
}

// nextInto mints the next request into a caller-supplied struct — the
// supervisor's free-list path, which keeps steady-state rounds from
// allocating one Request per arrival. Every field is (re)assigned, so
// recycled structs need no zeroing.
func (g *LoadGen) nextInto(r *Request, arrival time.Time) *Request {
	r.ID, r.Group, r.StreamIdx, r.Iters, r.Arrival = g.nextID, 0, g.nextIdx, g.reqIters, arrival
	g.nextID++
	g.nextIdx++
	return r
}

// eventTimes samples the arrival instants inside the round starting at
// start: a Poisson process with piecewise-constant rate (this round's
// mean spread over the quantum), realized as exponential inter-arrival
// gaps. Saturating generators return nil; the supervisor tops queues up
// directly.
func (g *LoadGen) eventTimes(round int, start time.Time, quantum time.Duration) []time.Time {
	if g.rec != nil {
		return g.rec.at(round)
	}
	if g.saturate > 0 || g.rate == nil {
		return nil
	}
	lambda := g.rate(round)
	if lambda <= 0 {
		return nil
	}
	perSec := lambda / quantum.Seconds()
	end := start.Add(quantum)
	out := g.times[:0]
	t := start
	for {
		t = t.Add(time.Duration(g.rng.ExpFloat64() / perSec * float64(time.Second)))
		if !t.Before(end) {
			g.times = out
			return out
		}
		out = append(out, t)
	}
}

// roundRecord realizes a per-round draw once and replays it to any
// number of fleets: round k holds what draw(k) returned, drawn the first
// time any reader asks for round k or a later one. It is exact for a
// source the engine consults once per round, in round order from round
// 0, with arguments that depend on nothing but the round — a LoadGen's
// eventTimes and a FaultModel's Events are both that, since a round's
// start is the epoch plus round quanta. Safe for concurrent readers.
type roundRecord[T any] struct {
	mu     sync.Mutex
	draw   func(round int) []T
	rounds [][]T
}

// at returns round's realization; callers must not modify it.
func (r *roundRecord[T]) at(round int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.rounds) <= round {
		r.rounds = append(r.rounds, slices.Clone(r.draw(len(r.rounds))))
	}
	return r.rounds[round]
}

// record realizes g's arrival instants round by round, as a fleet with
// the given quantum would sample them from the epoch (nil for a
// generator that draws none). The record owns g from then on: only the
// record may advance its random stream.
func (g *LoadGen) record(quantum time.Duration) *roundRecord[time.Time] {
	if g.saturate > 0 || g.rate == nil {
		return nil
	}
	return &roundRecord[time.Time]{draw: func(round int) []time.Time {
		return g.eventTimes(round, epochTime().Add(time.Duration(round)*quantum), quantum)
	}}
}

// replica returns a generator that mints exactly what g would from its
// current state, drawing arrival instants from rec (g's record; nil for
// a saturating g, which draws none).
func (g *LoadGen) replica(rec *roundRecord[time.Time]) *LoadGen {
	return &LoadGen{rec: rec, saturate: g.saturate, reqIters: g.reqIters, nextID: g.nextID, nextIdx: g.nextIdx}
}

// limitStream is a per-iteration work item: the first n iterations of
// an underlying stream, served as one request.
type limitStream struct {
	workload.Stream
	n int
}

func (s limitStream) Len() int { return s.n }

func (s limitStream) Name() string {
	return fmt.Sprintf("%s[:%d]", s.Stream.Name(), s.n)
}

func (s limitStream) NewRun() workload.Run {
	return &limitRun{run: s.Stream.NewRun(), left: s.n, n: s.n}
}

type limitRun struct {
	run  workload.Run
	left int
	n    int
}

func (r *limitRun) Step() (float64, bool) {
	if r.left <= 0 {
		return 0, false
	}
	cost, ok := r.run.Step()
	if ok {
		r.left--
	}
	return cost, ok
}

func (r *limitRun) Output() workload.Output { return r.run.Output() }

// Rewind implements workload.Rewinder by delegation: the limit resets
// only if the underlying run can rewind too.
func (r *limitRun) Rewind() bool {
	rw, ok := r.run.(workload.Rewinder)
	if !ok || !rw.Rewind() {
		return false
	}
	r.left = r.n
	return true
}

// poisson draws from Poisson(lambda) by Knuth's product method, exact
// and deterministic. Large lambdas are split into chunks (the sum of
// independent Poissons is Poisson in the summed rate) so exp(-lambda)
// never underflows — without this, rates above ~700 would silently
// saturate near 745 arrivals.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	const chunk = 30
	total := 0
	for lambda > chunk {
		total += poissonKnuth(rng, chunk)
		lambda -= chunk
	}
	return total + poissonKnuth(rng, lambda)
}

func poissonKnuth(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
