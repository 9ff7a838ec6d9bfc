// Command powerdial runs the PowerDial offline pipeline on one of the
// paper's benchmark applications: dynamic knob identification, trade-off
// calibration, Pareto-frontier reporting, and profile persistence.
//
// Usage:
//
//	powerdial -app swaptions -cmd calibrate -out swaptions.json
//	powerdial -app x264 -cmd report
//	powerdial -app bodytrack -cmd frontier -scale small
//	powerdial -app swish++ -cmd powercap
package main

import (
	"flag"
	"fmt"
	"os"

	powerdial "repro"
	"repro/internal/core"
)

func main() {
	appName := flag.String("app", "swaptions", "benchmark: swaptions | x264 | bodytrack | swish++")
	cmd := flag.String("cmd", "frontier", "command: calibrate | frontier | report | powercap")
	scale := flag.String("scale", "small", "input scale: small | medium | large")
	out := flag.String("out", "", "write the calibration profile JSON to this path")
	in := flag.String("profile", "", "reuse a saved calibration profile instead of re-sweeping")
	cap := flag.Float64("qos-cap", 0, "exclude settings with QoS loss above this fraction")
	flag.Parse()

	if err := run(*appName, *cmd, *scale, *out, *in, *cap); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(appName, cmd, scaleName, out, in string, qosCap float64) error {
	sc, err := powerdial.ParseScale(scaleName)
	if err != nil {
		return err
	}
	app, err := powerdial.NewBenchmark(appName, sc)
	if err != nil {
		return err
	}
	settings, err := powerdial.SweepSettings(app, sc)
	if err != nil {
		return err
	}
	var sys *powerdial.System
	if in == "" {
		sys, err = powerdial.Prepare(app, powerdial.PrepareOptions{Settings: settings, QoSCap: qosCap})
		if err != nil {
			return err
		}
	} else {
		// Reuse a saved calibration: identification is cheap (traced
		// initializations only); the expensive sweep is skipped.
		prof, err := powerdial.LoadProfile(in)
		if err != nil {
			return err
		}
		if prof.App != app.Name() {
			return fmt.Errorf("profile %s was calibrated for %q, not %q", in, prof.App, app.Name())
		}
		if qosCap > 0 {
			prof = prof.WithCap(qosCap)
		}
		// Identify over the profile's own settings so every setting the
		// actuator may pick has recorded control-variable values.
		profSettings := make([]powerdial.Setting, len(prof.Results))
		for i, r := range prof.Results {
			profSettings[i] = r.Setting
		}
		reg, rep, err := powerdial.Identify(app.(powerdial.Traceable), profSettings)
		if err != nil {
			return err
		}
		sys = &powerdial.System{App: app, Registry: reg, Profile: prof, Report: rep, Settings: profSettings}
		fmt.Printf("reusing calibration from %s (%d settings)\n", in, len(prof.Results))
	}
	switch cmd {
	case "report":
		fmt.Print(sys.Report.String())
	case "calibrate", "frontier":
		fmt.Printf("%s: swept %d settings (%s scale)\n", app.Name(), len(sys.Profile.Results), sc)
		fmt.Printf("%-24s | %9s | %9s\n", "Pareto setting", "speedup", "QoS loss%")
		for _, r := range sys.Profile.Frontier() {
			fmt.Printf("%-24s | %9.2f | %9.3f\n", r.Setting.Key(), r.Speedup, r.Loss*100)
		}
	case "powercap":
		if err := powercapDemo(sys); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	if out != "" {
		if err := sys.Profile.Save(out); err != nil {
			return err
		}
		fmt.Printf("profile written to %s\n", out)
	}
	return nil
}

// powercapDemo runs the application under PowerDial, imposes a power cap
// a third of the way through, and prints the knob gain and performance.
func powercapDemo(sys *powerdial.System) error {
	mach, err := powerdial.NewMachine(powerdial.MachineConfig{Clock: powerdial.NewVirtualClock()})
	if err != nil {
		return err
	}
	costPerBeat, err := core.BaselineCostPerBeat(sys.App, powerdial.Production)
	if err != nil {
		return err
	}
	goal := mach.Speed() / costPerBeat
	rt, err := powerdial.NewRuntime(powerdial.RuntimeConfig{
		System:  sys,
		Machine: mach,
		Target:  powerdial.Target{Min: goal, Max: goal},
	})
	if err != nil {
		return err
	}
	fmt.Printf("target heart rate: %.1f beats/s\n", goal)
	capped := false
	for pass := 0; pass < 6; pass++ {
		if pass == 2 {
			mach.ImposePowerCap()
			capped = true
			fmt.Println("-- power cap imposed (2.4 -> 1.6 GHz) --")
		}
		for _, st := range sys.App.Streams(powerdial.Production) {
			sum, err := rt.RunStream(st)
			if err != nil {
				return err
			}
			fmt.Printf("pass %d %-10s capped=%-5v gain=%.2f perf-err=%.1f%% power=%.1fW\n",
				pass, st.Name(), capped, rt.Gain(), sum.PerfError*100, sum.MeanPower)
		}
	}
	return nil
}
