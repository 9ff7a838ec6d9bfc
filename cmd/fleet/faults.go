package main

// Resilience accounting of a faulted run. The fault model itself is
// spec (internal/spec; field reference in docs/SWEEP_FORMAT.md): a
// -faults file fills the spec's faults in the plain run, -replay and
// -scenario, whose file may instead hold them inline. Either way it
// parameterizes the seeded stochastic model or pins an explicit
// schedule, which wins when both are present, so chaos runs are exactly
// reproducible. The accounting prints after the run and exports as CSV
// via -resilience.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/fleet"
)

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
		if err := writeOutput(o.resiliencePath, func(w io.Writer) error { return fleet.WriteResilienceCSV(w, res) }); err != nil {
			return err
		}
		fmt.Printf("wrote %d resilience rows to %s\n", len(res.Faults), o.resiliencePath)
	}
	return nil
}
