package main

// The -faults loader: a JSON spec wires the fault & degradation
// subsystem (fleet.FaultModel) into any of the CLI's run modes — the
// plain run, the Fig. 8 replay, and -scenario. The spec either
// parameterizes the seeded stochastic model (rates per fault class,
// rack labels, mean durations) or pins an explicit schedule; an
// explicit schedule wins when both are present, so chaos runs are
// exactly reproducible. Resilience accounting prints after the run and
// exports as CSV via -resilience.

import (
	"fmt"
	"os"
	"time"

	"repro/internal/fleet"
)

// faultSpec is the JSON shape accepted by -faults.
type faultSpec struct {
	// Redispatch re-offers a crashed host's in-flight and queued
	// requests within their group; false drops (and counts) them.
	Redispatch bool `json:"redispatch"`
	// Seed seeds the stochastic model (default 1).
	Seed int64 `json:"seed"`
	// Racks labels hosts with racks for correlated outages: host i
	// belongs to racks[i % len(racks)].
	Racks []string `json:"racks"`
	// Per-class mean fault counts per round (Poisson; 0 disables).
	CrashRate     float64 `json:"crashRate"`
	RackRate      float64 `json:"rackRate"`
	ThrottleRate  float64 `json:"throttleRate"`
	StragglerRate float64 `json:"stragglerRate"`
	SagRate       float64 `json:"sagRate"`
	// Mean fault durations in seconds (defaults 2 / 3 / 3 / 2).
	MeanOutageS   float64 `json:"meanOutageS"`
	MeanThrottleS float64 `json:"meanThrottleS"`
	MeanSlowS     float64 `json:"meanSlowS"`
	MeanSagS      float64 `json:"meanSagS"`
	// ThrottleFloor is the DVFS clamp state (0 = second-slowest).
	ThrottleFloor int `json:"throttleFloor"`
	// SlowFactor is the straggler slowdown (0 = 2).
	SlowFactor float64 `json:"slowFactor"`
	// SagFactor is the sag budget scale (0 = 0.6).
	SagFactor float64 `json:"sagFactor"`
	// Schedule pins explicit fault events; when non-empty it replaces
	// the stochastic model entirely.
	Schedule []faultEventSpec `json:"schedule"`
}

// faultEventSpec is one explicit fault of the JSON spec.
type faultEventSpec struct {
	// Kind is crash | throttle | straggler | sag.
	Kind string `json:"kind"`
	// AtS is the landing instant in virtual seconds since the run
	// epoch; DurationS is the fault window length in seconds.
	AtS       float64 `json:"atS"`
	DurationS float64 `json:"durationS"`
	// Host is the target host index (omitted = -1).
	Host *int `json:"host"`
	// Rack is the correlation label for rack-outage crashes.
	Rack string `json:"rack"`
	// State is the throttle clamp (platform.Frequencies index).
	State int `json:"state"`
	// Factor is the straggler slowdown (> 1) or sag scale (in (0,1)).
	Factor float64 `json:"factor"`
	// Instance pins a straggler target id (omitted = -1: lowest-id
	// live resident of Host).
	Instance *int `json:"instance"`
}

// loadFaults reads a -faults JSON spec into fleet.FaultOptions.
func loadFaults(path string) (*fleet.FaultOptions, error) {
	var spec faultSpec
	if err := readSpec("faults", path, &spec); err != nil {
		return nil, err
	}
	opts := &fleet.FaultOptions{Redispatch: spec.Redispatch}
	if len(spec.Schedule) > 0 {
		var fs fleet.FaultSchedule
		for i, es := range spec.Schedule {
			host, instance := -1, -1
			if es.Host != nil {
				host = *es.Host
			}
			if es.Instance != nil {
				instance = *es.Instance
			}
			fe := fleet.FaultEvent{
				At:       time.Unix(0, 0).Add(time.Duration(es.AtS * float64(time.Second))),
				Duration: time.Duration(es.DurationS * float64(time.Second)),
				Host:     host,
				Rack:     es.Rack,
				State:    es.State,
				Factor:   es.Factor,
				Instance: instance,
			}
			switch es.Kind {
			case "crash":
				fe.Kind = fleet.FaultCrash
			case "throttle":
				fe.Kind = fleet.FaultThrottle
			case "straggler":
				fe.Kind = fleet.FaultStraggler
			case "sag":
				fe.Kind = fleet.FaultSag
			default:
				return nil, fmt.Errorf("faults %s: schedule[%d] has unknown kind %q (crash | throttle | straggler | sag)", path, i, es.Kind)
			}
			fs = append(fs, fe)
		}
		opts.Model = fs
		return opts, nil
	}
	if spec.CrashRate <= 0 && spec.RackRate <= 0 && spec.ThrottleRate <= 0 &&
		spec.StragglerRate <= 0 && spec.SagRate <= 0 {
		return nil, fmt.Errorf("faults %s: no schedule and every rate is zero; nothing would ever fail", path)
	}
	opts.Model = fleet.NewSeededFaults(fleet.FaultConfig{
		Seed:          spec.Seed,
		Racks:         spec.Racks,
		CrashRate:     spec.CrashRate,
		RackRate:      spec.RackRate,
		ThrottleRate:  spec.ThrottleRate,
		StragglerRate: spec.StragglerRate,
		SagRate:       spec.SagRate,
		MeanOutage:    time.Duration(spec.MeanOutageS * float64(time.Second)),
		MeanThrottle:  time.Duration(spec.MeanThrottleS * float64(time.Second)),
		MeanSlow:      time.Duration(spec.MeanSlowS * float64(time.Second)),
		MeanSag:       time.Duration(spec.MeanSagS * float64(time.Second)),
		ThrottleFloor: spec.ThrottleFloor,
		SlowFactor:    spec.SlowFactor,
		SagFactor:     spec.SagFactor,
	})
	return opts, nil
}

// applyFaults wires the -faults spec (when given) into an unstepped
// supervisor and reports whether faults are active.
func applyFaults(sup *fleet.Supervisor, o options) (bool, error) {
	if o.faultsPath == "" {
		return false, nil
	}
	opts, err := loadFaults(o.faultsPath)
	if err != nil {
		return false, err
	}
	if err := sup.SetFaults(*opts); err != nil {
		return false, err
	}
	return true, nil
}

// reportResilience prints the run's fault accounting and writes the
// per-fault CSV when -resilience is given.
func reportResilience(res *fleet.Resilience, o options) error {
	if res == nil {
		return nil
	}
	fmt.Printf("\nresilience: %d faults (%d crashes, %d throttles, %d stragglers, %d sags)\n",
		len(res.Faults), res.Crashes, res.Throttles, res.Stragglers, res.Sags)
	fmt.Printf("displaced requests: %d redispatched, %d dropped\n", res.Redispatched, res.Dropped)
	if res.Recovered > 0 {
		fmt.Printf("recovery: %d of %d faults returned to the pre-fault p95, mean %.2f s\n",
			res.Recovered, len(res.Faults), res.MeanRecoverySeconds)
	} else if len(res.Faults) > 0 {
		fmt.Println("recovery: no fault returned to the pre-fault p95 within the run")
	}
	epoch := time.Unix(0, 0)
	fmt.Printf("%-9s | %4s | %4s | %-8s | %7s | %7s | %6s | %5s | %9s | %5s\n",
		"kind", "host", "inst", "rack", "t0 s", "t1 s", "redisp", "drop", "recov s", "viol")
	for _, rec := range res.Faults {
		fmt.Printf("%-9s | %4d | %4d | %-8s | %7.2f | %7.2f | %6d | %5d | %9.2f | %5d\n",
			rec.Kind, rec.Host, rec.Instance, rec.Rack,
			rec.At.Sub(epoch).Seconds(), rec.Until.Sub(epoch).Seconds(),
			rec.Redispatched, rec.Dropped, rec.RecoverySeconds, rec.ViolationRounds)
	}
	if o.resiliencePath != "" {
		f, err := os.Create(o.resiliencePath)
		if err != nil {
			return err
		}
		if err := fleet.WriteResilienceCSV(f, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d resilience rows to %s\n", len(res.Faults), o.resiliencePath)
	}
	return nil
}
