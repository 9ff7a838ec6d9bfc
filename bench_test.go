// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus microbenchmarks of the substrates. Each experiment
// bench runs the same code path as `go run ./cmd/experiments -exp <id>`
// at small scale; the microbenchmarks quantify the per-iteration costs
// the paper reports as negligible (Sec. 5.1: "the overhead of the
// PowerDial control system is insignificant").
package powerdial_test

import (
	"io"
	"sync"
	"testing"

	powerdial "repro"
	"repro/internal/apps/bodytrack"
	"repro/internal/apps/swaptions"
	"repro/internal/apps/x264"
	"repro/internal/calibrate"
	"repro/internal/control"
	"repro/internal/experiments"
	"repro/internal/heartbeats"
	"repro/internal/knobs"
	"repro/internal/qos"
	"repro/internal/workload"
)

// benchSuite shares preparations (identification + calibration) across
// the experiment benchmarks.
var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite
)

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchSuiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(powerdial.ScaleSmall)
	})
	return benchSuite
}

func benchExperiment(b *testing.B, id string) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(io.Discard, s, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Inputs regenerates Table 1 (input summary).
func BenchmarkTable1Inputs(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2Correlation regenerates Table 2 (training vs production
// correlation for all four benchmarks).
func BenchmarkTable2Correlation(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig5TradeoffSpaces regenerates Figs. 5a-5d (speedup vs QoS
// loss, all settings + Pareto frontiers, training and production).
func BenchmarkFig5TradeoffSpaces(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6PowerVsQoS regenerates Figs. 6a-6d (power and QoS loss
// across the seven DVFS states under PowerDial control).
func BenchmarkFig6PowerVsQoS(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7PowerCap regenerates Figs. 7a-7d (power-cap response
// timelines: dynamic knobs vs no knobs vs uncapped baseline).
func BenchmarkFig7PowerCap(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8Consolidation regenerates Figs. 8a-8d (original vs
// consolidated system power and QoS across a utilization sweep).
func BenchmarkFig8Consolidation(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkModels regenerates the Sec. 3 analytical-model tables
// (Eqs. 12-24, illustrated by the paper's Figs. 3-4).
func BenchmarkModels(b *testing.B) { benchExperiment(b, "models") }

// BenchmarkControlVariableReport regenerates the Sec. 2.1 reports.
func BenchmarkControlVariableReport(b *testing.B) { benchExperiment(b, "report") }

// BenchmarkAblations runs the design-choice ablations (actuation policy,
// quantum length, Pareto pruning, gain mismatch).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }

// BenchmarkControllerOverhead measures the per-heartbeat cost of the
// full feedback path: heartbeat registration, controller update, and
// actuator planning — the overhead Sec. 5.1 reports as insignificant
// next to application iterations (which cost milliseconds).
func BenchmarkControllerOverhead(b *testing.B) {
	clk := powerdial.NewVirtualClock()
	mon, err := heartbeats.NewMonitor(heartbeats.Target{Min: 100, Max: 100}, heartbeats.WithClock(clk))
	if err != nil {
		b.Fatal(err)
	}
	prof := &calibrate.Profile{
		App:      "bench",
		Baseline: knobs.Setting{100},
		Results: []calibrate.SettingResult{
			{Setting: knobs.Setting{100}, Speedup: 1, Loss: 0, Pareto: true},
			{Setting: knobs.Setting{50}, Speedup: 2, Loss: 0.01, Pareto: true},
			{Setting: knobs.Setting{25}, Speedup: 4, Loss: 0.05, Pareto: true},
		},
	}
	ctl, err := control.NewController(100, 100, 4)
	if err != nil {
		b.Fatal(err)
	}
	act, err := control.NewActuator(prof, control.MinQoS)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(10_000_000) // 10ms per beat
		mon.Beat()
		s := ctl.Update(mon.WindowRate())
		plan := act.PlanFor(s)
		_ = control.BuildSchedule(plan, control.DefaultQuantumBeats)
	}
}

// BenchmarkKnobApply measures the dynamic-knob actuation path: writing
// recorded control-variable values into a live application through the
// registry.
func BenchmarkKnobApply(b *testing.B) {
	app := powerdial.NewSwaptionsBenchmark(powerdial.ScaleSmall)
	reg := knobs.NewRegistry()
	if err := app.RegisterVars(reg); err != nil {
		b.Fatal(err)
	}
	s1, s2 := knobs.Setting{200}, knobs.Setting{20000}
	_ = reg.Record(s1, map[string]knobs.Value{"nTrials": {200}})
	_ = reg.Record(s2, map[string]knobs.Value{"nTrials": {20000}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			_ = reg.Apply(s1)
		} else {
			_ = reg.Apply(s2)
		}
	}
}

// BenchmarkSwaptionsPricing measures one main-loop iteration of the
// swaptions benchmark at a mid knob setting.
func BenchmarkSwaptionsPricing(b *testing.B) {
	sw := swaptions.Params{Strike: 0.02, Maturity: 5, Tenor: 10, Rate: 0.04, Vol: 0.1, Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = swaptions.PriceSwaption(sw, 2000)
	}
}

// BenchmarkX264EncodeFrame measures one frame encode at the baseline
// knob setting.
func BenchmarkX264EncodeFrame(b *testing.B) {
	video, err := x264.GenerateVideo("bench", x264.VideoOptions{W: 128, H: 64, Frames: 2, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	cfg := x264.Config{SearchRange: 16, RefFrames: 5, HalfPelIters: 4, QuarterPelIters: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := &x264.Encoder{}
		for _, f := range video.Frames {
			if _, err := enc.EncodeFrame(f, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBodytrackFrame measures one particle-filter frame at the
// baseline knob setting.
func BenchmarkBodytrackFrame(b *testing.B) {
	app := bodytrack.New(bodytrack.Options{TrainingFrames: 8, ProductionFrames: 8, Seed: 5})
	app.Apply(knobs.Setting{1000, 5})
	st := app.Streams(workload.Training)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := st.NewRun()
		workload.RunToEnd(run)
	}
}

// BenchmarkSwishQuery measures one search-query iteration at the
// baseline knob setting against the paper-sized corpus.
func BenchmarkSwishQuery(b *testing.B) {
	app := powerdial.NewSwishBenchmark(powerdial.ScaleSmall)
	st := app.Streams(workload.Training)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := st.NewRun()
		workload.RunToEnd(run)
	}
}

// BenchmarkDistortionMetric measures the Eq. 1 QoS computation.
func BenchmarkDistortionMetric(b *testing.B) {
	base := make(qos.Abstraction, 512)
	obs := make(qos.Abstraction, 512)
	for i := range base {
		base[i] = float64(i + 1)
		obs[i] = float64(i) + 1.01
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qos.Distortion(base, obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibrationSweep measures a full calibration of the
// swaptions trade-off space (the offline cost of Sec. 2.2).
func BenchmarkCalibrationSweep(b *testing.B) {
	app := powerdial.NewSwaptionsBenchmark(powerdial.ScaleSmall)
	settings, err := powerdial.SweepSettings(app, powerdial.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := powerdial.Calibrate(app, powerdial.CalibrateOptions{Settings: settings}); err != nil {
			b.Fatal(err)
		}
	}
}
