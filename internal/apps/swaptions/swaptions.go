// Package swaptions reproduces the PARSEC swaptions benchmark (Sec. 4.1
// of the paper): a financial application that prices a portfolio of
// swaptions by Monte Carlo simulation. Accuracy and execution time both
// increase with the number of simulations — accuracy approaches an
// asymptote while time grows linearly, which is exactly the trade-off the
// paper's single dynamic knob (-sm, the simulation count) exposes.
//
// The paper's knob spans 10,000…1,000,000 simulations in steps of 10,000:
// 100 settings covering a 100× speedup range. To keep the reproduction
// laptop-scale the defaults here span 200…20,000 in steps of 200 — the
// same 100 settings and the same 100× range with the same 1/√N error
// shape, since only the ratio of simulation counts sets the trade-off.
package swaptions

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/influence"
	"repro/internal/knobs"
	"repro/internal/qos"
	"repro/internal/workload"
)

// Knob layout: a single knob, "sm".
const (
	// DefaultTrials is the baseline (highest-QoS) simulation count.
	DefaultTrials = 20000
	// MinTrials is the smallest knob value.
	MinTrials = 200
	// TrialStep is the knob increment.
	TrialStep = 200
	// mcSteps is the number of time steps in each simulated rate path.
	mcSteps = 12
)

// Params describes one swaption to price.
type Params struct {
	Strike   float64 // strike rate
	Maturity float64 // option maturity in years
	Tenor    int     // number of semi-annual payments in the underlying swap
	Rate     float64 // initial short rate
	Vol      float64 // rate volatility
	Seed     int64   // RNG seed for this swaption's trials
}

// Options sizes the input sets. The zero value selects the defaults noted
// on each field.
type Options struct {
	// TrainingSwaptions is the number of swaptions in the training
	// portfolio (default 8; paper: 64).
	TrainingSwaptions int
	// ProductionSwaptions is the number of swaptions across the
	// production portfolios (default 16; paper: 512).
	ProductionSwaptions int
	// SwaptionsPerStream splits production swaptions into portfolios of
	// this size (default 8).
	SwaptionsPerStream int
	// Seed randomizes input generation (default 1).
	Seed int64
}

func (o *Options) fill() {
	if o.TrainingSwaptions == 0 {
		o.TrainingSwaptions = 8
	}
	if o.ProductionSwaptions == 0 {
		o.ProductionSwaptions = 16
	}
	if o.SwaptionsPerStream == 0 {
		o.SwaptionsPerStream = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// App is the swaptions benchmark.
type App struct {
	// nTrials is the control variable derived from the -sm parameter.
	// It lives in the application's "address space" and is read by every
	// main-loop iteration; the dynamic-knob runtime rewrites it.
	nTrials atomic.Int64

	train []*portfolio
	prod  []*portfolio
}

var _ workload.Traceable = (*App)(nil)
var _ workload.Bindable = (*App)(nil)

// New constructs the benchmark with generated inputs. The PARSEC native
// input repeats one swaption; following the paper we augment with
// randomly generated swaption parameters so the application prices a
// range of swaptions.
func New(opts Options) *App {
	opts.fill()
	a := &App{}
	a.nTrials.Store(DefaultTrials)
	rng := rand.New(rand.NewSource(opts.Seed))
	a.train = makePortfolios("train", opts.TrainingSwaptions, opts.SwaptionsPerStream, rng)
	a.prod = makePortfolios("prod", opts.ProductionSwaptions, opts.SwaptionsPerStream, rng)
	return a
}

func makePortfolios(prefix string, total, per int, rng *rand.Rand) []*portfolio {
	var out []*portfolio
	for len(out)*per < total {
		n := per
		if rem := total - len(out)*per; rem < n {
			n = rem
		}
		p := &portfolio{name: fmt.Sprintf("%s-%d", prefix, len(out))}
		for i := 0; i < n; i++ {
			p.swaptions = append(p.swaptions, randomSwaption(rng))
		}
		p.app = nil // set in Streams
		out = append(out, p)
	}
	return out
}

func randomSwaption(rng *rand.Rand) Params {
	// Strikes are kept in the money and volatilities moderate so that
	// all prices have comparable magnitude, as in the PARSEC input set
	// (which reprices variants of one representative swaption). This
	// keeps the equal-weight distortion metric meaningful: relative
	// error on a near-zero out-of-the-money price would swamp it.
	rate := 0.02 + rng.Float64()*0.06
	return Params{
		Strike:   rate * (0.3 + 0.3*rng.Float64()),
		Maturity: 1 + rng.Float64()*9,
		Tenor:    2 + rng.Intn(19),
		Rate:     rate,
		Vol:      0.05 + rng.Float64()*0.10,
		Seed:     rng.Int63(),
	}
}

// Name implements workload.App.
func (a *App) Name() string { return "swaptions" }

// Specs implements workload.App: the single -sm knob.
func (a *App) Specs() []knobs.Spec {
	return []knobs.Spec{{
		Name:    "sm",
		Values:  knobs.Range(MinTrials, DefaultTrials, TrialStep),
		Default: DefaultTrials,
	}}
}

// Apply implements workload.App: derive and install the control variable.
func (a *App) Apply(s knobs.Setting) {
	a.nTrials.Store(s[0])
}

// Trials returns the current control-variable value (for tests).
func (a *App) Trials() int64 { return a.nTrials.Load() }

// TraceInit implements workload.Traceable. The derivation mirrors Apply:
// nTrials is computed from the -sm parameter alone; mcSteps is a constant
// and therefore is not a candidate control variable.
func (a *App) TraceInit(tr *influence.Tracer, s knobs.Setting) {
	sm := tr.Param("sm", float64(s[0]))
	tr.Store("nTrials", "swaptions.go:Apply", sm)
	tr.Store("mcSteps", "swaptions.go:init", influence.ConstInt(mcSteps))
	tr.FirstHeartbeat()
	// Main control loop: each iteration prices one swaption, reading
	// nTrials (and the constant step count).
	_ = tr.Load("nTrials", "swaptions.go:priceSwaption")
	_ = tr.Load("mcSteps", "swaptions.go:priceSwaption")
}

// RegisterVars implements workload.Bindable.
func (a *App) RegisterVars(reg *knobs.Registry) error {
	return reg.RegisterVar("nTrials", func(v knobs.Value) {
		a.nTrials.Store(int64(v[0]))
	})
}

// Streams implements workload.App.
func (a *App) Streams(set workload.InputSet) []workload.Stream {
	src := a.train
	if set == workload.Production {
		src = a.prod
	}
	out := make([]workload.Stream, len(src))
	for i, p := range src {
		q := *p
		q.app = a
		cp := q
		out[i] = &cp
	}
	return out
}

// Output is the computed price for each swaption in a portfolio, the
// output abstraction of Sec. 4.1 ("swaptions prints the computed prices
// for each swaption").
type Output struct {
	Prices []float64
}

// Loss implements workload.App: distortion of the swaption prices with
// equal weights (Sec. 4.1).
func (a *App) Loss(baseline, observed workload.Output) float64 {
	b := baseline.(Output)
	o := observed.(Output)
	d, err := qos.Distortion(qos.Abstraction(b.Prices), qos.Abstraction(o.Prices))
	if err != nil {
		panic(fmt.Sprintf("swaptions: %v", err))
	}
	return d
}

// portfolio is one input stream: the main control loop prices its
// swaptions one per iteration.
type portfolio struct {
	name      string
	swaptions []Params
	app       *App
}

func (p *portfolio) Name() string { return p.name }
func (p *portfolio) Len() int     { return len(p.swaptions) }

func (p *portfolio) NewRun() workload.Run {
	return &run{p: p}
}

type run struct {
	p      *portfolio
	next   int
	prices []float64
}

func (r *run) Step() (float64, bool) {
	if r.next >= len(r.p.swaptions) {
		return 0, false
	}
	sw := r.p.swaptions[r.next]
	r.next++
	trials := r.p.app.nTrials.Load()
	price, cost := PriceSwaption(sw, trials)
	r.prices = append(r.prices, price)
	return cost, true
}

func (r *run) Output() workload.Output {
	return Output{Prices: append([]float64(nil), r.prices...)}
}

// PriceSwaption prices one swaption with the given number of Monte Carlo
// trials and returns the price and the work units consumed (a count of
// inner-loop operations). Trials consume sequential draws from a
// per-swaption RNG, so the n-trial price is a prefix mean of the
// baseline's trials: adding trials strictly refines the estimate, which
// gives the monotone accuracy-versus-work trade-off the knob exploits.
func PriceSwaption(sw Params, trials int64) (price float64, cost float64) {
	if trials < 1 {
		trials = 1
	}
	rng := rand.New(rand.NewSource(sw.Seed))
	dt := sw.Maturity / mcSteps
	sqrtDT := math.Sqrt(dt)
	meanRevert := 0.1
	theta := sw.Rate // revert to the initial level
	var sum float64
	var ops float64
	for t := int64(0); t < trials; t++ {
		r := sw.Rate
		var integral float64
		for s := 0; s < mcSteps; s++ {
			z := rng.NormFloat64()
			r += meanRevert*(theta-r)*dt + sw.Vol*r*sqrtDT*z
			if r < 0 {
				r = 0
			}
			integral += r * dt
		}
		discount := math.Exp(-integral)
		// Payer swaption payoff: annuity-weighted positive part of the
		// terminal-rate spread over the strike.
		annuity := 0.0
		for i := 1; i <= sw.Tenor; i++ {
			annuity += 0.5 * math.Exp(-r*0.5*float64(i))
		}
		payoff := r - sw.Strike
		if payoff < 0 {
			payoff = 0
		}
		sum += discount * payoff * annuity
		ops += float64(mcSteps)*6 + float64(sw.Tenor)*3 + 8
	}
	return sum / float64(trials), ops
}
