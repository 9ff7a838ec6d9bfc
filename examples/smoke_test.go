// Package examples holds runnable demos; this smoke test builds and
// runs each one with a bounded deadline so the examples can no longer
// rot silently as untested `package main` directories.
package examples

import (
	"context"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestExamplesRun builds and executes every example end to end. Each
// example is sized (ScaleSmall inputs, bounded rounds) to finish in
// seconds; the deadline is generous to absorb first-build compile time.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples smoke test skipped in -short mode")
	}
	examples := []struct {
		name string
		// wantOut is a fragment the example's stdout must contain — a
		// cheap liveness check that the demo did its job, not just exited.
		wantOut string
	}{
		{"quickstart", "Pareto-optimal knob settings"},
		{"powercap", "norm perf"},
		{"consolidation", "autoscaler consolidated"},
		{"searchserver", "identified control variables"},
		{"fleet", "oracle"},
		{"scenario", "composed M/G/1 oracle"},
	}
	for _, ex := range examples {
		ex := ex
		t.Run(ex.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, "go", "run", "./examples/"+ex.name)
			cmd.Dir = ".." // module root
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("example %s exceeded its deadline", ex.name)
			}
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", ex.name, err, out)
			}
			if !strings.Contains(string(out), ex.wantOut) {
				t.Errorf("example %s output lacks %q; got:\n%s", ex.name, ex.wantOut, out)
			}
		})
	}
}
