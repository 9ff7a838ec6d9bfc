package powerdial

import (
	"fmt"

	"repro/internal/apps/bodytrack"
	"repro/internal/apps/swaptions"
	"repro/internal/apps/swishpp"
	"repro/internal/apps/x264"
	"repro/internal/workload"
)

// Scale sizes benchmark inputs and sweep grids. The paper's evaluation
// ran 1080p video and million-path Monte Carlo on a dedicated server;
// these presets keep the same knob ranges and trade-off shapes at sizes
// a laptop regenerates in seconds to minutes.
type Scale int

const (
	// ScaleSmall is sized for unit tests and benchmarks (seconds).
	ScaleSmall Scale = iota
	// ScaleMedium is the experiment default (tens of seconds).
	ScaleMedium
	// ScaleLarge approaches the paper's input counts (minutes).
	ScaleLarge
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleLarge:
		return "large"
	default:
		return "medium"
	}
}

// ParseScale is the Scale that String names: small | medium | large.
func ParseScale(name string) (Scale, error) {
	for _, s := range []Scale{ScaleSmall, ScaleMedium, ScaleLarge} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (small | medium | large)", name)
}

// BenchmarkNames lists the paper's four applications.
func BenchmarkNames() []string {
	return []string{"swaptions", "x264", "bodytrack", "swish++"}
}

// NewBenchmark constructs one of the paper's benchmark applications at
// the given scale with a fixed seed (deterministic inputs).
func NewBenchmark(name string, sc Scale) (App, error) {
	switch name {
	case "swaptions":
		return NewSwaptionsBenchmark(sc), nil
	case "x264":
		return NewX264Benchmark(sc)
	case "bodytrack":
		return NewBodytrackBenchmark(sc), nil
	case "swish++", "swishpp", "swish":
		return NewSwishBenchmark(sc), nil
	}
	return nil, fmt.Errorf("powerdial: unknown benchmark %q (have %v)", name, BenchmarkNames())
}

// NewSwaptionsBenchmark builds the Monte Carlo swaption pricer.
func NewSwaptionsBenchmark(sc Scale) *swaptions.App {
	opts := swaptions.Options{Seed: 42}
	switch sc {
	case ScaleSmall:
		opts.TrainingSwaptions, opts.ProductionSwaptions = 4, 8
	case ScaleMedium:
		opts.TrainingSwaptions, opts.ProductionSwaptions = 8, 16
	case ScaleLarge:
		opts.TrainingSwaptions, opts.ProductionSwaptions = 16, 64
	}
	return swaptions.New(opts)
}

// NewX264Benchmark builds the video encoder.
func NewX264Benchmark(sc Scale) (*x264.App, error) {
	opts := x264.Options{Seed: 42}
	switch sc {
	case ScaleSmall:
		opts.TrainingVideos, opts.ProductionVideos = 1, 2
		opts.Video = x264.VideoOptions{W: 64, H: 32, Frames: 6}
	case ScaleMedium:
		opts.TrainingVideos, opts.ProductionVideos = 2, 3
		opts.Video = x264.VideoOptions{W: 128, H: 64, Frames: 10}
	case ScaleLarge:
		opts.TrainingVideos, opts.ProductionVideos = 4, 8
		opts.Video = x264.VideoOptions{W: 192, H: 96, Frames: 16}
	}
	return x264.New(opts)
}

// NewBodytrackBenchmark builds the annealed-particle-filter tracker.
func NewBodytrackBenchmark(sc Scale) *bodytrack.App {
	opts := bodytrack.Options{Seed: 42}
	switch sc {
	case ScaleSmall:
		opts.TrainingFrames, opts.ProductionFrames = 10, 16
	case ScaleMedium:
		opts.TrainingFrames, opts.ProductionFrames = 25, 40
	case ScaleLarge:
		opts.TrainingFrames, opts.ProductionFrames = 50, 120
	}
	return bodytrack.New(opts)
}

// NewSwishBenchmark builds the search engine. The corpus stays at the
// paper's 2000 documents per set at every scale: the knob's ~1.5×
// speedup shape depends on the scan-versus-formatting cost balance, which
// shrinking the corpus would distort (only the query count scales).
func NewSwishBenchmark(sc Scale) *swishpp.App {
	opts := swishpp.Options{Seed: 42}
	switch sc {
	case ScaleSmall:
		opts.Queries = 12
	case ScaleMedium:
		opts.Queries = 30
	case ScaleLarge:
		opts.Queries = 60
	}
	return swishpp.New(opts)
}

// SweepSettings returns the calibration sweep grid for an application at
// a scale: the full grid where tractable, a coarse sub-lattice (always
// including endpoints and defaults) otherwise.
func SweepSettings(app App, sc Scale) ([]Setting, error) {
	space, err := workload.Space(app)
	if err != nil {
		return nil, err
	}
	perKnob := map[Scale]int{ScaleSmall: 3, ScaleMedium: 5, ScaleLarge: 8}[sc]
	switch app.Name() {
	case "swaptions":
		// Single knob: denser grids are cheap.
		perKnob = map[Scale]int{ScaleSmall: 6, ScaleMedium: 12, ScaleLarge: 25}[sc]
	case "swish++":
		// Six values total: always sweep all.
		return space.All(), nil
	case "bodytrack":
		perKnob = map[Scale]int{ScaleSmall: 3, ScaleMedium: 6, ScaleLarge: 10}[sc]
	}
	return space.Coarse(perKnob), nil
}
