package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrendDropsSeriesMissingFromARecord pins the CI use: the committed
// baseline and a fresh run rarely carry the same benchmark set (series
// get renamed or deleted), so the trend figure must still render from
// the series both records share and leave the rest out.
func TestTrendDropsSeriesMissingFromARecord(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.txt", "BenchmarkShared-8 \t 10\t 100 ns/op\t 5 allocs/op\nBenchmarkRemoved-8 \t 10\t 300 ns/op\n")
	fresh := write("fresh.txt", "BenchmarkShared-8 \t 10\t 90 ns/op\t 5 allocs/op\nBenchmarkAdded-8 \t 10\t 200 ns/op\n")
	out := filepath.Join(dir, "trend.svg")
	if err := run([]string{base, fresh}, out, "trend", ""); err != nil {
		t.Fatal(err)
	}
	svg, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(svg); !strings.Contains(s, "Shared") || strings.Contains(s, "Removed") || strings.Contains(s, "Added") {
		t.Errorf("trend should plot only the shared series:\n%s", s)
	}

	disjoint := write("disjoint.txt", "BenchmarkAdded-8 \t 10\t 200 ns/op\n")
	if err := run([]string{base, disjoint}, out, "trend", ""); err == nil {
		t.Error("records sharing no series should be an error, not an empty figure")
	}
}
