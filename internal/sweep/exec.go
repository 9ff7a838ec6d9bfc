package sweep

import (
	"fmt"
	"io"
	"os"
)

// ExecConfig is the CLI surface behind `cmd/fleet -sweep`.
type ExecConfig struct {
	// GridPath is the grid-spec JSON file.
	GridPath string
	// Procs / Reps / Rounds override the pool width and the grid's
	// replication count / horizon when > 0.
	Procs  int
	Reps   int
	Rounds int
	// OutPath receives the CSV ("" or "-" = stdout); PlotPath, when
	// set, receives the SVG trend figure.
	OutPath  string
	PlotPath string
	// Hdr prints the CSV schema line for the grid and exits without
	// running any replication.
	Hdr bool
	// Log, when non-nil, receives progress lines (cmd wiring passes
	// stderr so stdout stays pure CSV).
	Log io.Writer
}

// Exec loads the grid, runs the sweep (or just prints the schema under
// Hdr), and writes the CSV and optional SVG outputs.
func Exec(cfg ExecConfig) error {
	data, err := os.ReadFile(cfg.GridPath)
	if err != nil {
		return err
	}
	g, err := ParseGrid(data)
	if err != nil {
		return fmt.Errorf("sweep %s: %w", cfg.GridPath, err)
	}
	out := io.Writer(os.Stdout)
	if cfg.OutPath != "" && cfg.OutPath != "-" {
		f, err := os.Create(cfg.OutPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if cfg.Hdr {
		_, err := fmt.Fprintln(out, Header(g))
		return err
	}
	opt := Options{Procs: cfg.Procs, Replications: cfg.Reps, Rounds: cfg.Rounds}
	if cfg.Log != nil {
		cells := g.CellCount()
		reps := g.Replications
		if cfg.Reps > 0 {
			reps = cfg.Reps
		}
		fmt.Fprintf(cfg.Log, "sweep %s: %d cells x %d replications\n", g.Name, cells, reps)
		last := -1
		opt.Progress = func(done, total int) {
			pct := done * 10 / total
			if pct > last {
				last = pct
				fmt.Fprintf(cfg.Log, "sweep: %d/%d replications\n", done, total)
			}
		}
	}
	res, err := Run(g, opt)
	if err != nil {
		return err
	}
	if err := WriteCSV(out, res); err != nil {
		return err
	}
	if cfg.PlotPath != "" {
		f, err := os.Create(cfg.PlotPath)
		if err != nil {
			return err
		}
		if err := WriteSVG(f, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
