// Package analysistest runs an analyzer over a testdata package and
// checks its findings against `// want` comments, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract in miniature:
//
//	rand.Int() // want `global math/rand`
//
// Each want comment holds one or more backquoted or double-quoted
// regular expressions; the line must produce exactly one diagnostic
// matching each, and lines without a want comment must produce none.
// Suppression is part of the contract: a //fleetvet:allow directive in
// the testdata package suppresses findings exactly as it does under
// cmd/fleetvet, so the suppression semantics themselves are testable.
package analysistest

import (
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRe extracts the expectation patterns from a want comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run loads the package in dir, applies the analyzer (with allow
// suppression), and asserts the findings match the package's want
// comments. It returns the diagnostics for any further assertions.
func Run(t *testing.T, dir string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("testdata package %s does not type-check: %v", dir, terr)
	}
	diags, err := analysis.RunAnalyzer(a, pkg)
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, dir, err)
	}
	check(t, pkg, diags)
	return diags
}

// expectation is one want pattern at a file:line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(text[len("want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	sort.SliceStable(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, d := range diags {
		if !matchWant(wants, d) {
			t.Errorf("unexpected diagnostic: %v", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

func matchWant(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.file != d.Position.Filename || w.line != d.Position.Line {
			continue
		}
		if w.pattern.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
