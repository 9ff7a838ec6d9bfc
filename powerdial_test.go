package powerdial_test

import (
	"strings"
	"testing"

	powerdial "repro"
)

func TestBenchmarkNamesConstructAll(t *testing.T) {
	names := powerdial.BenchmarkNames()
	if len(names) != 4 {
		t.Fatalf("benchmarks = %v, want the paper's four", names)
	}
	for _, name := range names {
		app, err := powerdial.NewBenchmark(name, powerdial.ScaleSmall)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if app.Name() != name {
			t.Errorf("app name %q != requested %q", app.Name(), name)
		}
		if len(app.Streams(powerdial.Training)) == 0 || len(app.Streams(powerdial.Production)) == 0 {
			t.Errorf("%s: missing input streams", name)
		}
		space, err := powerdial.SpaceOf(app)
		if err != nil {
			t.Fatal(err)
		}
		if !space.Contains(space.Default()) {
			t.Errorf("%s: default setting outside its own space", name)
		}
	}
}

func TestNewBenchmarkUnknown(t *testing.T) {
	if _, err := powerdial.NewBenchmark("nope", powerdial.ScaleSmall); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestNewBenchmarkAliases(t *testing.T) {
	for _, alias := range []string{"swish++", "swishpp", "swish"} {
		app, err := powerdial.NewBenchmark(alias, powerdial.ScaleSmall)
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if app.Name() != "swish++" {
			t.Errorf("alias %q resolved to %q", alias, app.Name())
		}
	}
}

func TestSweepSettingsIncludeDefault(t *testing.T) {
	for _, name := range powerdial.BenchmarkNames() {
		app, err := powerdial.NewBenchmark(name, powerdial.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		settings, err := powerdial.SweepSettings(app, powerdial.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		if len(settings) < 2 {
			t.Fatalf("%s: sweep grid too small: %d", name, len(settings))
		}
		space, _ := powerdial.SpaceOf(app)
		def := space.Default()
		found := false
		for _, s := range settings {
			if s.Equal(def) {
				found = true
			}
			if !space.Contains(s) {
				t.Fatalf("%s: sweep setting %v outside space", name, s)
			}
		}
		if !found {
			t.Fatalf("%s: sweep grid omits the baseline", name)
		}
	}
}

func TestScaleString(t *testing.T) {
	if powerdial.ScaleSmall.String() != "small" ||
		powerdial.ScaleMedium.String() != "medium" ||
		powerdial.ScaleLarge.String() != "large" {
		t.Error("scale names wrong")
	}
}

func TestDVFSFrequenciesCopy(t *testing.T) {
	f := powerdial.DVFSFrequencies()
	if len(f) != 7 || f[0] != 2.4 || f[6] != 1.6 {
		t.Fatalf("frequencies = %v", f)
	}
	f[0] = 99
	if powerdial.DVFSFrequencies()[0] != 2.4 {
		t.Fatal("DVFSFrequencies leaks internal slice")
	}
}

func TestFacadePipelineEndToEnd(t *testing.T) {
	app := powerdial.NewSwaptionsBenchmark(powerdial.ScaleSmall)
	settings, err := powerdial.SweepSettings(app, powerdial.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := powerdial.Prepare(app, powerdial.PrepareOptions{Settings: settings})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sys.Report.String(), "nTrials") {
		t.Error("control-variable report missing nTrials")
	}
	prod, err := powerdial.Calibrate(app, powerdial.CalibrateOptions{
		Set:      powerdial.Production,
		Settings: settings,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := powerdial.Correlate(sys.Profile, prod)
	if err != nil {
		t.Fatal(err)
	}
	if c.Speedup < 0.99 {
		t.Errorf("speedup correlation = %v, want ~1 (Table 2)", c.Speedup)
	}
	mach, err := powerdial.NewMachine(powerdial.MachineConfig{Clock: powerdial.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := powerdial.NewRuntime(powerdial.RuntimeConfig{System: sys, Machine: mach})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunStream(app.Streams(powerdial.Production)[0]); err != nil {
		t.Fatal(err)
	}
}

func TestProfileSaveLoadViaFacade(t *testing.T) {
	app := powerdial.NewSwaptionsBenchmark(powerdial.ScaleSmall)
	settings, _ := powerdial.SweepSettings(app, powerdial.ScaleSmall)
	prof, err := powerdial.Calibrate(app, powerdial.CalibrateOptions{Settings: settings})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/p.json"
	if err := prof.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := powerdial.LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.App != prof.App || len(back.Results) != len(prof.Results) {
		t.Fatal("profile round trip mismatch")
	}
}

func TestClusterViaFacade(t *testing.T) {
	app := powerdial.NewSwaptionsBenchmark(powerdial.ScaleSmall)
	settings, _ := powerdial.SweepSettings(app, powerdial.ScaleSmall)
	prof, err := powerdial.Calibrate(app, powerdial.CalibrateOptions{Settings: settings, QoSCap: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := powerdial.NewCluster(powerdial.ClusterConfig{Machines: 4})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := powerdial.ConsolidateCluster(powerdial.ClusterConfig{Machines: 4}, prof)
	if err != nil {
		t.Fatal(err)
	}
	if cons.Machines() != 1 {
		t.Fatalf("consolidated machines = %d, want 1", cons.Machines())
	}
	po, _ := orig.Evaluate(32)
	pc, _ := cons.Evaluate(32)
	if pc.PowerWatts >= po.PowerWatts {
		t.Fatal("consolidation saved no power at peak")
	}
}

func TestParseScaleRoundTrips(t *testing.T) {
	for _, s := range []powerdial.Scale{powerdial.ScaleSmall, powerdial.ScaleMedium, powerdial.ScaleLarge} {
		got, err := powerdial.ParseScale(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if _, err := powerdial.ParseScale("huge"); err == nil {
		t.Error("ParseScale accepted an unknown scale")
	}
}
