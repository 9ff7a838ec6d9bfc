package powerdial_test

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/sweep"
)

var (
	urlRE    = regexp.MustCompile(`[a-z]+://\S+`)
	mdRefRE  = regexp.MustCompile(`[\w./-]*\w\.md\b`)
	mdLinkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)
)

// TestCitedDocsExist fails on a reference to a document that is not in
// the repo: every `….md` named in a .go or .md file, and every relative
// markdown link target, must resolve from the citing file's directory or
// from the repo root. The markdown notes at the repo root other than
// README.md are skipped: the changelog and the plans name files that are
// gone or not yet written on purpose, and the paper notes and snippets
// quote other repositories and their paths.
func TestCitedDocsExist(t *testing.T) {
	skipFile := func(path string) bool {
		return filepath.Ext(path) == ".md" && filepath.Dir(path) == "." && path != "README.md"
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" || path == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if (ext != ".go" && ext != ".md") || skipFile(path) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for line := 1; sc.Scan(); line++ {
			text := urlRE.ReplaceAllString(sc.Text(), "")
			refs := mdRefRE.FindAllString(text, -1)
			if ext == ".md" {
				for _, m := range mdLinkRE.FindAllStringSubmatch(text, -1) {
					if target, _, _ := strings.Cut(m[1], "#"); target != "" && !strings.HasPrefix(target, "mailto:") {
						refs = append(refs, target)
					}
				}
			}
			for _, ref := range refs {
				if !exists(filepath.Join(filepath.Dir(path), ref)) && !exists(ref) {
					t.Errorf("%s:%d: %s does not exist", path, line, ref)
				}
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestDocumentedColumnsMatchWriters holds every library CSV schema to
// its one prose copy: the header each exported writer emits must list
// exactly the documented columns, in order. The per-group replay rows
// (`g_<name>_…`) are expanded once per group, and the sweep's
// `<one column per axis param>` stands for the grid's axis.
func TestDocumentedColumnsMatchWriters(t *testing.T) {
	header := func(write func(w *bytes.Buffer) error) []string {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		rec, err := csv.NewReader(&b).Read()
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	check := func(schema string, got, want []string) {
		if !slices.Equal(got, want) {
			t.Errorf("%s: writer emits %q, docs list %q", schema, got, want)
		}
	}

	check("trace", header(func(b *bytes.Buffer) error { return fleet.WriteTraceCSV(b, nil) }),
		documentedColumns(t, "Event-time trace", nil))
	check("resilience", header(func(b *bytes.Buffer) error { return fleet.WriteResilienceCSV(b, nil) }),
		documentedColumns(t, "Resilience table", nil))
	point := fleet.ReplayPoint{
		Groups: []fleet.GroupReplayPoint{{Group: "web"}, {Group: "batch"}},
		Fault:  &fleet.ReplayFaultPoint{},
	}
	check("replay", header(func(b *bytes.Buffer) error { return fleet.WriteReplayCSV(b, []fleet.ReplayPoint{point}) }),
		documentedColumns(t, "Replay timeline", []string{"web", "batch"}))

	g, err := sweep.ParseGrid([]byte(`{"name": "docs", "rounds": 1, "base": {"machines": 1, "cores": 1,
		"groups": [{"name": "web", "instances": 1, "load": "constant", "rate": 1}]},
		"axes": [{"param": "web.rate", "values": [1, 2]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("docs/SWEEP_FORMAT.md")
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`(?m)^cell,label,.*$`).Find(doc)
	if line == nil {
		t.Fatal("docs/SWEEP_FORMAT.md has no header line")
	}
	want := strings.Split(strings.Replace(string(line), "<one column per axis param>", "web.rate", 1), ",")
	check("sweep", strings.Split(sweep.Header(g), ","), want)
}

// documentedColumns returns the first-column names of the `| Column |`
// tables under a heading of docs/TRACE_FORMAT.md, in order. A run of
// rows naming `g_<name>_…` columns is repeated once per group, with the
// group's name in place of <name>.
func documentedColumns(t *testing.T, heading string, groups []string) []string {
	t.Helper()
	data, err := os.ReadFile("docs/TRACE_FORMAT.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(data), "\n## "+heading+"\n")
	if !ok {
		t.Fatalf("docs/TRACE_FORMAT.md has no %q section", heading)
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var cols, perGroup []string
	flush := func() {
		for _, g := range groups {
			for _, c := range perGroup {
				cols = append(cols, strings.Replace(c, "<name>", g, 1))
			}
		}
		perGroup = nil
	}
	inTable := false
	for _, line := range strings.Split(sec, "\n") {
		switch {
		case strings.HasPrefix(line, "| Column |"):
			inTable = true
		case !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable && !strings.HasPrefix(line, "| ---"):
			name := strings.Trim(strings.TrimSpace(strings.Split(line, "|")[1]), "`")
			if strings.Contains(name, "<name>") {
				perGroup = append(perGroup, name)
				continue
			}
			flush()
			cols = append(cols, name)
		}
	}
	flush()
	return cols
}
