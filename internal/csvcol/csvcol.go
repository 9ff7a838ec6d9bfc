// Package csvcol writes a CSV table from one ordered list of columns,
// each a header name and the formatter of its cell, so a schema's
// header and every one of its rows are printed by the same code and
// each column name is written once.
package csvcol

import (
	"encoding/csv"
	"io"
	"strconv"
)

// Col is one column of a schema over rows of type R.
type Col[R any] struct {
	Name string
	Cell func(*R) string
}

// Write writes the column names as the header record, then one record
// per row, through encoding/csv: a field is quoted only where CSV needs
// it (a comma, quote or line break inside, or leading space).
func Write[R any](w io.Writer, cols []Col[R], rows []R) error {
	cw := csv.NewWriter(w)
	rec := make([]string, len(cols))
	for i, c := range cols {
		rec[i] = c.Name
	}
	err := cw.Write(rec)
	for i := 0; err == nil && i < len(rows); i++ {
		for j, c := range cols {
			rec[j] = c.Cell(&rows[i])
		}
		err = cw.Write(rec)
	}
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// Int is a column of integers in decimal.
func Int[R any](name string, get func(*R) int) Col[R] {
	return Col[R]{name, func(r *R) string { return strconv.Itoa(get(r)) }}
}

// Float is a column of floats in a strconv.FormatFloat format: 'f' with
// a precision gives fixed decimals, 'g' with -1 the shortest
// round-trip form.
func Float[R any](name string, format byte, prec int, get func(*R) float64) Col[R] {
	return Col[R]{name, func(r *R) string { return strconv.FormatFloat(get(r), format, prec, 64) }}
}

// Bool is a column of flags written as 1 or 0.
func Bool[R any](name string, get func(*R) bool) Col[R] {
	return Col[R]{name, func(r *R) string {
		if get(r) {
			return "1"
		}
		return "0"
	}}
}
