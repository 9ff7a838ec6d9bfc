package main

import (
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestHTTPServerBoundsHeaders holds the live gateway's server to a
// header deadline and a header size ceiling: with either left at zero,
// net/http waits on a slow client's headers forever or accepts 1 MiB
// of them.
func TestHTTPServerBoundsHeaders(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != quantum {
		t.Errorf("ReadHeaderTimeout = %v, want one quantum (%v)", hs.ReadHeaderTimeout, quantum)
	}
	if hs.MaxHeaderBytes != 16<<10 {
		t.Errorf("MaxHeaderBytes = %d, want 16 KiB", hs.MaxHeaderBytes)
	}
}

// TestLatencyHistBoundsInclusive puts a latency exactly on every
// printed bucket bound, at every bucket width, and expects it in that
// bound's row: le_s is inclusive, so each row counts one latency.
func TestLatencyHistBoundsInclusive(t *testing.T) {
	for _, width := range []float64{0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2, 5} {
		var lats []float64
		for k := 1; k <= 40; k++ {
			lat, _ := strconv.ParseFloat(strconv.FormatFloat(float64(k)*width, 'f', 3, 64), 64)
			lats = append(lats, lat)
		}
		var b strings.Builder
		if err := writeLatencyHistCSV(&b, lats); err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")[1:]
		if len(rows) != len(lats) {
			t.Fatalf("width %v: %d rows for %d latencies", width, len(rows), len(lats))
		}
		for k, row := range rows {
			if want := fmt.Sprintf("%.3f,1,%d", lats[k], k+1); row != want {
				t.Errorf("width %v: row %d = %q, want %q", width, k, row, want)
			}
		}
	}
}

// TestLatencyHistColumnsMatchDocs holds the histogram's header to the
// column table of docs/TRACE_FORMAT.md, name for name and in order.
func TestLatencyHistColumnsMatchDocs(t *testing.T) {
	var b strings.Builder
	if err := writeLatencyHistCSV(&b, nil); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(b.String(), "\n"), ",")
	data, err := os.ReadFile("../../docs/TRACE_FORMAT.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(data), "\n## Serving latency histogram\n")
	if !ok {
		t.Fatal("docs/TRACE_FORMAT.md has no histogram section")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var want []string
	for _, line := range strings.Split(sec, "\n") {
		if name, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ = strings.Cut(name, "`")
			want = append(want, name)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("histogram header %q, documented %q", got, want)
	}
}
