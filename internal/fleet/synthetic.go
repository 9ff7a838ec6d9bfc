package fleet

import (
	"fmt"

	"repro/internal/knobs"
	"repro/internal/workload"
)

// Synthetic is a minimal PowerDial-controllable application with an
// analytically known trade-off space: one "effort" knob with values
// 1..SyntheticEffortMax (default = baseline). An iteration at effort e
// costs BaseCost·e/max work units (speedup max/e) and contributes
// quality 1 − SyntheticLossStep·(max−e) (QoS loss grows linearly as
// effort drops). Because both curves are exact, fleet tests can compare
// the executed system against the cluster oracle without calibration
// noise, and fleet demos run with zero real compute per beat.
type Synthetic struct {
	opts SyntheticOptions
	// effort is the live control variable (the dynamic knob target).
	effort int64
}

// SyntheticEffortMax is the baseline (highest-quality) effort value.
const SyntheticEffortMax = 8

// SyntheticLossStep is the QoS loss per effort step below baseline.
const SyntheticLossStep = 0.01

// SyntheticOptions sizes the synthetic app.
type SyntheticOptions struct {
	// BaseCost is the work units of one baseline iteration (default 6e6:
	// 40 beats/sec on an unloaded 2.4 GHz core).
	BaseCost float64
	// TrainingIters / ProductionIters are the per-stream lengths
	// (defaults 40).
	TrainingIters   int
	ProductionIters int
	// TrainingStreams / ProductionStreams are the stream counts
	// (defaults 1 and 4).
	TrainingStreams   int
	ProductionStreams int
}

func (o *SyntheticOptions) fill() {
	if o.BaseCost == 0 {
		o.BaseCost = 6e6
	}
	if o.TrainingIters == 0 {
		o.TrainingIters = 40
	}
	if o.ProductionIters == 0 {
		o.ProductionIters = 40
	}
	if o.TrainingStreams == 0 {
		o.TrainingStreams = 1
	}
	if o.ProductionStreams == 0 {
		o.ProductionStreams = 4
	}
}

// NewSynthetic builds the synthetic application.
func NewSynthetic(opts SyntheticOptions) *Synthetic {
	opts.fill()
	return &Synthetic{opts: opts, effort: SyntheticEffortMax}
}

// Name identifies the app.
func (a *Synthetic) Name() string { return "synthetic" }

// Specs declares the single effort knob.
func (a *Synthetic) Specs() []knobs.Spec {
	return []knobs.Spec{{
		Name:    "effort",
		Values:  knobs.Range(1, SyntheticEffortMax, 1),
		Default: SyntheticEffortMax,
	}}
}

// Apply installs the effort control variable.
func (a *Synthetic) Apply(s knobs.Setting) {
	if len(s) == 1 && s[0] >= 1 && s[0] <= SyntheticEffortMax {
		a.effort = s[0]
	}
}

// SyntheticOutput is a stream's accumulated quality.
type SyntheticOutput struct {
	Iters   int
	Quality float64
}

// Loss is the relative quality drop versus the baseline output.
func (a *Synthetic) Loss(baseline, observed workload.Output) float64 {
	b, okB := asSyntheticOutput(baseline)
	o, okO := asSyntheticOutput(observed)
	if !okB || !okO || b.Quality <= 0 {
		return 1
	}
	loss := (b.Quality - o.Quality) / b.Quality
	if loss < 0 {
		return 0
	}
	return loss
}

// asSyntheticOutput unwraps either representation of a synthetic
// output: runs return *SyntheticOutput (a pointer into the run, so the
// hot path's Output call does not box a fresh allocation), while stored
// baselines and tests may hold the value form.
func asSyntheticOutput(o workload.Output) (SyntheticOutput, bool) {
	switch v := o.(type) {
	case SyntheticOutput:
		return v, true
	case *SyntheticOutput:
		return *v, true
	}
	return SyntheticOutput{}, false
}

// Streams returns the input streams of the given set.
func (a *Synthetic) Streams(set workload.InputSet) []workload.Stream {
	n, iters := a.opts.TrainingStreams, a.opts.TrainingIters
	if set == workload.Production {
		n, iters = a.opts.ProductionStreams, a.opts.ProductionIters
	}
	out := make([]workload.Stream, n)
	for i := range out {
		out[i] = &synthStream{app: a, set: set, index: i, iters: iters}
	}
	return out
}

// synthStream names itself only when asked: every fleet instance builds
// its own streams, and formatting names nobody reads was a measurable
// share of what a short-lived replica costs to construct.
type synthStream struct {
	app   *Synthetic
	set   workload.InputSet
	index int
	iters int
}

func (s *synthStream) Name() string         { return fmt.Sprintf("%s-%d", s.set, s.index) }
func (s *synthStream) Len() int             { return s.iters }
func (s *synthStream) NewRun() workload.Run { return &synthRun{s: s} }

type synthRun struct {
	s   *synthStream
	out SyntheticOutput
}

// Step performs one iteration at the app's current effort.
func (r *synthRun) Step() (float64, bool) {
	if r.out.Iters >= r.s.iters {
		return 0, false
	}
	e := r.s.app.effort
	r.out.Iters++
	r.out.Quality += 1 - SyntheticLossStep*float64(SyntheticEffortMax-e)
	return r.s.app.opts.BaseCost * float64(e) / SyntheticEffortMax, true
}

// Output returns a pointer into the run: callers consume it before the
// run is rewound (fleet pools runs only after the output is booked).
func (r *synthRun) Output() workload.Output { return &r.out }

// Rewind implements workload.Rewinder: a zeroed accumulator is exactly
// the fresh-run state.
func (r *synthRun) Rewind() bool {
	r.out = SyntheticOutput{}
	return true
}
