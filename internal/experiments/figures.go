package experiments

import (
	"fmt"
	"io"

	powerdial "repro"
	"repro/internal/apps/swishpp"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workload"
)

// Fig5 prints the speedup-versus-QoS-loss trade-off spaces (Figs. 5a–5d):
// all swept settings on the training inputs, the Pareto-optimal settings,
// and the same Pareto settings re-measured on the production inputs. For
// swish++ it prints both P@10 and P@100 series as in Fig. 5d.
func Fig5(w io.Writer, s *Suite) error {
	for _, name := range powerdial.BenchmarkNames() {
		sys, err := s.System(name)
		if err != nil {
			return err
		}
		prod, err := s.ProductionProfile(name)
		if err != nil {
			return err
		}
		header(w, fmt.Sprintf("Fig. 5 (%s): speedup vs QoS loss", name))
		fmt.Fprintf(w, "%-24s | %9s | %9s | %6s | %9s | %9s\n",
			"setting", "train spd", "train q%", "pareto", "prod spd", "prod q%")
		for _, r := range sys.Profile.Results {
			pr, _ := prod.Lookup(r.Setting)
			mark := ""
			if r.Pareto {
				mark = "*"
			}
			fmt.Fprintf(w, "%-24s | %9.2f | %9.3f | %6s | %9.2f | %9.3f\n",
				r.Setting.Key(), r.Speedup, r.Loss*100, mark, pr.Speedup, pr.Loss*100)
		}
		if name == "swish++" {
			if err := fig5Swish(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// fig5Swish prints the P@10 and P@100 loss series of Fig. 5d.
func fig5Swish(w io.Writer, s *Suite) error {
	app, err := s.App("swish++")
	if err != nil {
		return err
	}
	swish := app.(*swishpp.App)
	space, err := powerdial.SpaceOf(app)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nswish++ loss at cutoffs (Fig. 5d series):\n")
	fmt.Fprintf(w, "%-12s | %9s | %9s | %9s\n", "max-results", "speedup", "P@10 q%", "P@100 q%")
	streams := app.Streams(powerdial.Training)
	baseCosts := make([]float64, len(streams))
	baseOuts := make([]workload.Output, len(streams))
	for i, st := range streams {
		baseCosts[i], baseOuts[i] = workload.MeasureStream(app, st, space.Default())
	}
	for _, set := range space.All() {
		var sp, l10, l100 float64
		for i, st := range streams {
			cost, out := workload.MeasureStream(app, st, set)
			sp += baseCosts[i] / cost
			l10 += swishpp.LossAt(baseOuts[i], out, 10)
			l100 += swishpp.LossAt(baseOuts[i], out, 100)
		}
		n := float64(len(streams))
		fmt.Fprintf(w, "%-12s | %9.3f | %9.2f | %9.2f\n", set.Key(), sp/n, l10/n*100, l100/n*100)
	}
	swish.Apply(space.Default())
	return nil
}

// Fig6 prints power and QoS loss versus DVFS state with PowerDial
// holding the baseline heart rate (Figs. 6a–6d), plus the Sec. 5.3
// performance check (within 5% of target at every state).
func Fig6(w io.Writer, s *Suite) error {
	for _, name := range powerdial.BenchmarkNames() {
		sys, err := s.System(name)
		if err != nil {
			return err
		}
		baseOuts, err := s.BaselineOutputs(name)
		if err != nil {
			return err
		}
		header(w, fmt.Sprintf("Fig. 6 (%s): power and QoS loss vs frequency", name))
		fmt.Fprintf(w, "%5s | %8s | %8s | %8s | %8s\n", "GHz", "power W", "QoS %", "perf err", "gain")
		for state := range platform.Frequencies {
			row, err := s.runAtState(sys, baseOuts, state)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%5.2f | %8.1f | %8.3f | %7.1f%% | %8.2f\n",
				platform.Frequencies[state], row.power, row.loss*100, row.perfErr*100, row.gain)
		}
	}
	return nil
}

type stateRow struct {
	power, loss, perfErr, gain float64
}

// runAtState runs one application under PowerDial at a DVFS state and
// measures the converged pass.
func (s *Suite) runAtState(sys *powerdial.System, baseOuts []workload.Output, state int) (stateRow, error) {
	mach, err := powerdial.NewMachine(powerdial.MachineConfig{Clock: powerdial.NewVirtualClock()})
	if err != nil {
		return stateRow{}, err
	}
	// Target: baseline heart rate at the highest power state, measured
	// on the production inputs (machine still at state 0 here).
	costPerBeat, err := core.BaselineCostPerBeat(sys.App, powerdial.Production)
	if err != nil {
		return stateRow{}, err
	}
	goal := mach.Speed() / costPerBeat
	rt, err := powerdial.NewRuntime(powerdial.RuntimeConfig{
		System:  sys,
		Machine: mach,
		Target:  powerdial.Target{Min: goal, Max: goal},
	})
	if err != nil {
		return stateRow{}, err
	}
	if err := mach.SetState(state); err != nil {
		return stateRow{}, err
	}
	streams := sys.App.Streams(powerdial.Production)
	// Warmup: let the controller converge (deadbeat needs a couple of
	// quanta; streams at small scale are shorter than one quantum).
	warmup := newLoopStream(streams, 6*control.DefaultQuantumBeats)
	if _, err := rt.RunStream(warmup); err != nil {
		return stateRow{}, err
	}
	// Measured pass: one full traversal of the production inputs.
	var row stateRow
	var power, perfErr, loss float64
	for i, st := range streams {
		sum, err := rt.RunStream(st)
		if err != nil {
			return stateRow{}, err
		}
		power += sum.MeanPower
		perfErr += sum.PerfError
		loss += sys.App.Loss(baseOuts[i], sum.Output)
	}
	n := float64(len(streams))
	row = stateRow{power: power / n, loss: loss / n, perfErr: perfErr / n, gain: rt.Gain()}
	return row, nil
}

// Fig7 prints the power-cap response timelines (Figs. 7a–7d): normalized
// performance of the dynamic-knobs run, the no-knobs run and the
// uncapped baseline, plus the knob gain, with the cap imposed a quarter
// of the way in and lifted at three quarters.
func Fig7(w io.Writer, s *Suite) error {
	totalBeats := 240
	if s.Scale == powerdial.ScaleSmall {
		totalBeats = 160
	}
	capAt, liftAt := totalBeats/4, 3*totalBeats/4
	for _, name := range powerdial.BenchmarkNames() {
		sys, err := s.System(name)
		if err != nil {
			return err
		}
		header(w, fmt.Sprintf("Fig. 7 (%s): response to power cap (cap at beat %d, lift at %d)", name, capAt, liftAt))

		type variant struct {
			name     string
			disabled bool
			capped   bool
			trace    []core.TracePoint
		}
		variants := []*variant{
			{name: "dynamic", capped: true},
			{name: "noknobs", disabled: true, capped: true},
			{name: "baseline"},
		}
		for _, v := range variants {
			mach, err := powerdial.NewMachine(powerdial.MachineConfig{Clock: powerdial.NewVirtualClock()})
			if err != nil {
				return err
			}
			costPerBeat, err := core.BaselineCostPerBeat(sys.App, powerdial.Production)
			if err != nil {
				return err
			}
			goal := mach.Speed() / costPerBeat
			cfg := powerdial.RuntimeConfig{
				System:   sys,
				Machine:  mach,
				Target:   powerdial.Target{Min: goal, Max: goal},
				Record:   true,
				Disabled: v.disabled,
			}
			if v.capped {
				cfg.BeatHook = func(beats int) {
					switch beats {
					case capAt:
						mach.ImposePowerCap()
					case liftAt:
						mach.LiftPowerCap()
					}
				}
			}
			rt, err := powerdial.NewRuntime(cfg)
			if err != nil {
				return err
			}
			loop := newLoopStream(sys.App.Streams(powerdial.Production), totalBeats)
			if _, err := rt.RunStream(loop); err != nil {
				return err
			}
			v.trace = rt.Trace()
		}
		fmt.Fprintf(w, "%5s | %8s | %8s | %8s | %8s\n", "beat", "dyn perf", "gain", "noknobs", "baseline")
		step := totalBeats / 40
		if step < 1 {
			step = 1
		}
		for i := 0; i < totalBeats; i += step {
			d, nk, bl := variants[0].trace[i], variants[1].trace[i], variants[2].trace[i]
			fmt.Fprintf(w, "%5d | %8.3f | %8.2f | %8.3f | %8.3f\n", i, d.NormPerf, d.Gain, nk.NormPerf, bl.NormPerf)
		}
	}
	return nil
}

// loopStream cycles a set of streams until a fixed number of iterations
// has been served — the long-running deployment of Sec. 5.4.
type loopStream struct {
	streams []workload.Stream
	total   int
}

func newLoopStream(streams []workload.Stream, total int) *loopStream {
	return &loopStream{streams: streams, total: total}
}

func (l *loopStream) Name() string { return "loop" }
func (l *loopStream) Len() int     { return l.total }

func (l *loopStream) NewRun() workload.Run {
	return &loopRun{l: l}
}

type loopRun struct {
	l      *loopStream
	idx    int
	cur    workload.Run
	served int
	last   workload.Output
}

func (r *loopRun) Step() (float64, bool) {
	if r.served >= r.l.total {
		return 0, false
	}
	for {
		if r.cur == nil {
			r.cur = r.l.streams[r.idx%len(r.l.streams)].NewRun()
			r.idx++
		}
		cost, ok := r.cur.Step()
		if ok {
			r.served++
			return cost, true
		}
		r.last = r.cur.Output()
		r.cur = nil
	}
}

func (r *loopRun) Output() workload.Output { return r.last }

// Fig8 prints the consolidation experiments (Figs. 8a–8d): mean power of
// the original and consolidated systems and the consolidated system's
// QoS loss across a utilization sweep, with the paper's caps (5% for the
// PARSEC apps, 30% for swish++).
func Fig8(w io.Writer, s *Suite) error {
	for _, name := range powerdial.BenchmarkNames() {
		sys, err := s.System(name)
		if err != nil {
			return err
		}
		profile := sys.Profile.WithCap(consolidationCap(name))
		if name == "swish++" {
			// The paper provisions swish++ at 3 -> 2 machines, which
			// requires the full knob range (speedup ~1.5); its 30%
			// bound holds for the *blended* loss the consolidated
			// system actually delivers (Fig. 8d), not per setting. We
			// follow the paper's provisioning, so swish++ actuates over
			// its uncapped frontier.
			profile = sys.Profile.WithCap(0)
		}
		orig, err := powerdial.NewCluster(powerdial.ClusterConfig{Machines: origMachines(name)})
		if err != nil {
			return err
		}
		cons, err := powerdial.ConsolidateCluster(powerdial.ClusterConfig{Machines: origMachines(name)}, profile)
		if err != nil {
			return err
		}
		header(w, fmt.Sprintf("Fig. 8 (%s): consolidation %d -> %d machines (cap %.0f%%, max speedup %.2f)",
			name, orig.Machines(), cons.Machines(), consolidationCap(name)*100, profile.MaxSpeedup()))
		peak := orig.Capacity()
		po, err := orig.Sweep(peak, 11)
		if err != nil {
			return err
		}
		pc, err := cons.Sweep(peak, 11)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%5s | %10s | %10s | %8s | %8s | %7s\n",
			"util", "orig W", "consol W", "QoS %", "speedup", "perf")
		for i := range po {
			u := float64(i) / 10
			perf := "ok"
			if !pc[i].PerfOK {
				perf = "MISS"
			}
			fmt.Fprintf(w, "%5.2f | %10.1f | %10.1f | %8.3f | %8.2f | %7s\n",
				u, po[i].PowerWatts, pc[i].PowerWatts, pc[i].MeanLoss*100, pc[i].Speedup, perf)
		}
	}
	return nil
}
