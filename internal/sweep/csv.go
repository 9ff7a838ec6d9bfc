package sweep

import (
	"io"
	"strings"

	"repro/internal/csvcol"
)

// The sweep CSV is long format: one row per (cell, metric) pair with
// the replication count, mean, sample stddev, and the 95% CI bounds.
// Axis coordinates get one column each so downstream tools can pivot
// without parsing the label. Field order, float formatting ('g', -1 —
// shortest round-trip), and row order (cells in canonical grid order,
// metrics in metricsFor order) are all fixed, so the bytes are a pure
// function of (grid spec, base seed).

// csvRow is one (cell, metric) row of the sweep CSV.
type csvRow struct {
	agg *Aggregate
	mi  int // metric index, in metricsFor order
}

// csvCols is g's CSV schema, documented in docs/SWEEP_FORMAT.md.
func csvCols(g *Grid) []csvcol.Col[csvRow] {
	ms := metricsFor(g)
	float := func(name string, get func(r *csvRow) float64) csvcol.Col[csvRow] {
		return csvcol.Float(name, 'g', -1, get)
	}
	cols := []csvcol.Col[csvRow]{
		csvcol.Int("cell", func(r *csvRow) int { return r.agg.Cell }),
		{Name: "label", Cell: func(r *csvRow) string { return r.agg.Label }},
	}
	for ai, ax := range g.Axes {
		cols = append(cols, float(ax.Param, func(r *csvRow) float64 { return r.agg.Values[ai] }))
	}
	return append(cols,
		csvcol.Col[csvRow]{Name: "metric", Cell: func(r *csvRow) string { return ms[r.mi].Name }},
		csvcol.Int("n", func(r *csvRow) int { return r.agg.N }),
		float("mean", func(r *csvRow) float64 { return r.agg.Mean[r.mi] }),
		float("std", func(r *csvRow) float64 { return r.agg.Std[r.mi] }),
		float("ci95_lo", func(r *csvRow) float64 { return r.agg.Mean[r.mi] - r.agg.CI95[r.mi] }),
		float("ci95_hi", func(r *csvRow) float64 { return r.agg.Mean[r.mi] + r.agg.CI95[r.mi] }),
	)
}

// Header returns the grid's CSV header line (no trailing newline) —
// what -hdr prints so scripts can learn the schema without running the
// sweep.
func Header(g *Grid) string {
	var b strings.Builder
	csvcol.Write(&b, csvCols(g), nil) // a strings.Builder never fails
	return strings.TrimSuffix(b.String(), "\n")
}

// WriteCSV writes the aggregated sweep as deterministic long-format
// CSV, header line included.
func WriteCSV(w io.Writer, res *Result) error {
	var rows []csvRow
	for ci := range res.Aggregates {
		for mi := range res.Aggregates[ci].Mean {
			rows = append(rows, csvRow{&res.Aggregates[ci], mi})
		}
	}
	return csvcol.Write(w, csvCols(res.Grid), rows)
}
