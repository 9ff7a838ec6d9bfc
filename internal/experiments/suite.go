// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 5) as text tables and series, from the PowerDial
// public API. Each experiment prints the rows or series the paper
// reports. experiments_test.go holds the shapes of those results (Table 2
// correlations near one, Fig. 7's cap-and-recover timeline, Fig. 8's
// machine counts); no committed record compares them with the paper's
// numbers row by row.
package experiments

import (
	"fmt"
	"io"

	powerdial "repro"
	"repro/internal/workload"
)

// QoS caps used for consolidation (Sec. 5.5): "a bound of either 5% (for
// the PARSEC benchmarks) or 30% (for swish++)".
const (
	parsecCap = 0.05
	swishCap  = 0.30
)

// Suite prepares and caches the per-application PowerDial systems so
// experiments can share calibrations.
type Suite struct {
	Scale powerdial.Scale

	apps     map[string]powerdial.App
	systems  map[string]*powerdial.System
	prodProf map[string]*powerdial.Profile
	baseOut  map[string][]workload.Output // baseline production outputs per app
}

// NewSuite returns an empty suite at the given scale.
func NewSuite(sc powerdial.Scale) *Suite {
	return &Suite{
		Scale:    sc,
		apps:     make(map[string]powerdial.App),
		systems:  make(map[string]*powerdial.System),
		prodProf: make(map[string]*powerdial.Profile),
		baseOut:  make(map[string][]workload.Output),
	}
}

// App returns the (cached) benchmark application.
func (s *Suite) App(name string) (powerdial.App, error) {
	if a, ok := s.apps[name]; ok {
		return a, nil
	}
	a, err := powerdial.NewBenchmark(name, s.Scale)
	if err != nil {
		return nil, err
	}
	s.apps[name] = a
	return a, nil
}

// System returns the (cached) prepared PowerDial system: identification
// plus training calibration over the scale's sweep grid.
func (s *Suite) System(name string) (*powerdial.System, error) {
	if sys, ok := s.systems[name]; ok {
		return sys, nil
	}
	app, err := s.App(name)
	if err != nil {
		return nil, err
	}
	settings, err := powerdial.SweepSettings(app, s.Scale)
	if err != nil {
		return nil, err
	}
	sys, err := powerdial.Prepare(app, powerdial.PrepareOptions{Settings: settings})
	if err != nil {
		return nil, err
	}
	s.systems[name] = sys
	return sys, nil
}

// ProductionProfile returns the (cached) production-input calibration
// over the same settings as the training profile.
func (s *Suite) ProductionProfile(name string) (*powerdial.Profile, error) {
	if p, ok := s.prodProf[name]; ok {
		return p, nil
	}
	sys, err := s.System(name)
	if err != nil {
		return nil, err
	}
	p, err := powerdial.Calibrate(sys.App, powerdial.CalibrateOptions{
		Set:      powerdial.Production,
		Settings: sys.Settings,
	})
	if err != nil {
		return nil, err
	}
	s.prodProf[name] = p
	return p, nil
}

// BaselineOutputs measures (and caches) the baseline-setting output of
// every production stream — the QoS reference for runtime experiments.
func (s *Suite) BaselineOutputs(name string) ([]workload.Output, error) {
	if o, ok := s.baseOut[name]; ok {
		return o, nil
	}
	app, err := s.App(name)
	if err != nil {
		return nil, err
	}
	space, err := powerdial.SpaceOf(app)
	if err != nil {
		return nil, err
	}
	var outs []workload.Output
	for _, st := range app.Streams(powerdial.Production) {
		_, out := workload.MeasureStream(app, st, space.Default())
		outs = append(outs, out)
	}
	s.baseOut[name] = outs
	return outs, nil
}

// consolidationCap returns the paper's per-benchmark QoS bound.
func consolidationCap(name string) float64 {
	if name == "swish++" {
		return swishCap
	}
	return parsecCap
}

// origMachines returns the paper's original provisioning (Sec. 5.5):
// four machines for the PARSEC benchmarks, three for swish++.
func origMachines(name string) int {
	if name == "swish++" {
		return 3
	}
	return 4
}

// header prints an experiment banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}
