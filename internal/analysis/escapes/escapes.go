// Package escapes is the static complement to the steady-state
// allocation guard (internal/fleet's TestSteadyStateRoundAllocs): an
// escape-analysis gate for the zero-alloc hot path. Functions marked
// with a `//fleetvet:noalloc` doc-comment directive — the shard
// serve/render path, the fluid drain, the event and request pools, the
// stats snapshot — have their compiler-reported heap escapes
// (`go build -gcflags=-m`) pinned in a committed baseline; a new escape
// relative to that baseline fails cmd/escapeguard, so a hot-path
// regression is caught at lint time from the compiler's own escape
// analysis, before any benchmark has to notice.
//
// The baseline records (function, message) pairs with multiplicities
// and no line numbers, so unrelated edits that only shift lines leave
// it untouched; messages come verbatim from the compiler, which makes
// the baseline toolchain-version-sensitive — regen with -update when
// the Go toolchain is bumped.
package escapes

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Func is one //fleetvet:noalloc-annotated function.
type Func struct {
	Key   string // importPath.(recv).name
	File  string // path relative to root, slash-separated
	Begin int    // first line of the declaration (doc comment included)
	End   int    // last line of the body
}

// Escape is one compiler-reported heap escape attributed to an
// annotated function.
type Escape struct {
	FuncKey string
	Message string // compiler message, position stripped
}

func (e Escape) String() string { return e.FuncKey + ": " + e.Message }

type listPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
}

// ScanNoalloc lists the packages matching patterns (relative to root),
// parses their sources, and returns every annotated function plus the
// set of packages that contain at least one — the packages Collect
// must compile.
func ScanNoalloc(root string, patterns ...string) ([]Func, []string, error) {
	args := append([]string{"list", "-json=Dir,ImportPath,GoFiles", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var funcs []Func
	var pkgs []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp listPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, nil, fmt.Errorf("escapes: go list -json decode: %w", err)
		}
		had := false
		fset := token.NewFileSet()
		for _, name := range lp.GoFiles {
			path := filepath.Join(lp.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, nil, fmt.Errorf("escapes: parse %s: %w", path, err)
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				rel = path
			}
			rel = filepath.ToSlash(rel)
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !isNoalloc(fn) {
					continue
				}
				begin := fset.Position(fn.Pos()).Line
				if fn.Doc != nil {
					begin = fset.Position(fn.Doc.Pos()).Line
				}
				funcs = append(funcs, Func{
					Key:   lp.ImportPath + "." + recvPrefix(fn) + fn.Name.Name,
					File:  rel,
					Begin: begin,
					End:   fset.Position(fn.End()).Line,
				})
				had = true
			}
		}
		if had {
			pkgs = append(pkgs, lp.ImportPath)
		}
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Key < funcs[j].Key })
	sort.Strings(pkgs)
	return funcs, pkgs, nil
}

// isNoalloc reports whether the function's doc comment carries the
// well-formed //fleetvet:noalloc directive.
func isNoalloc(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == "//fleetvet:noalloc" {
			return true
		}
	}
	return false
}

// recvPrefix renders a method's receiver type as "(T)." or "(*T).",
// empty for plain functions.
func recvPrefix(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	star := ""
	if se, ok := t.(*ast.StarExpr); ok {
		star = "*"
		t = se.X
	}
	// Strip generic type parameters: T[K] -> T.
	if ie, ok := t.(*ast.IndexExpr); ok {
		t = ie.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + star + id.Name + ")."
	}
	return "(?)."
}

// escapeLine matches one compiler diagnostic: file:line:col: message.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// Collect compiles pkgs with -gcflags=-m and attributes every
// heap-escape diagnostic landing inside an annotated function. The
// build cache replays diagnostics, so repeated runs are cheap.
func Collect(root string, pkgs []string, funcs []Func) ([]Escape, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	args := append([]string{"build", "-gcflags=-m=1", "--"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out.String())
	}
	var escapes []Escape
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := escapeLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := filepath.ToSlash(m[1])
		line, _ := strconv.Atoi(m[2])
		for i := range funcs {
			f := &funcs[i]
			if f.File == file && f.Begin <= line && line <= f.End {
				escapes = append(escapes, Escape{FuncKey: f.Key, Message: msg})
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(escapes, func(i, j int) bool {
		if escapes[i].FuncKey != escapes[j].FuncKey {
			return escapes[i].FuncKey < escapes[j].FuncKey
		}
		return escapes[i].Message < escapes[j].Message
	})
	return escapes, nil
}

// Baseline is a multiset of accepted escapes.
type Baseline map[Escape]int

// NewBaseline folds escapes into their multiset.
func NewBaseline(escapes []Escape) Baseline {
	b := Baseline{}
	for _, e := range escapes {
		b[e]++
	}
	return b
}

// Diff compares the current escape set against the accepted baseline:
// grown entries (new escapes, or higher multiplicity) fail the gate;
// shrunk entries are improvements the caller may fold in with -update.
func Diff(current []Escape, accepted Baseline) (grown, shrunk []string) {
	cur := NewBaseline(current)
	var keys []Escape
	for e := range cur {
		keys = append(keys, e)
	}
	for e := range accepted {
		if _, ok := cur[e]; !ok {
			keys = append(keys, e)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].FuncKey != keys[j].FuncKey {
			return keys[i].FuncKey < keys[j].FuncKey
		}
		return keys[i].Message < keys[j].Message
	})
	for _, e := range keys {
		c, a := cur[e], accepted[e]
		switch {
		case c > a:
			grown = append(grown, fmt.Sprintf("%s (%d, baseline %d)", e, c, a))
		case c < a:
			shrunk = append(shrunk, fmt.Sprintf("%s (%d, baseline %d)", e, c, a))
		}
	}
	return grown, shrunk
}

// WriteBaseline writes the escape multiset in the committed format:
// a comment header, then tab-separated "count<TAB>funcKey<TAB>message"
// lines in sorted order — the same golden-file convention as the
// engine's trace CSVs, regenerated with -update.
func WriteBaseline(path string, escapes []Escape) error {
	b := NewBaseline(escapes)
	var keys []Escape
	for e := range b {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].FuncKey != keys[j].FuncKey {
			return keys[i].FuncKey < keys[j].FuncKey
		}
		return keys[i].Message < keys[j].Message
	})
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# fleetvet:noalloc escape baseline — accepted heap escapes per annotated hot-path function.\n")
	fmt.Fprintf(&buf, "# Regenerate (current toolchain): go run ./cmd/escapeguard -update\n")
	for _, e := range keys {
		fmt.Fprintf(&buf, "%d\t%s\t%s\n", b[e], e.FuncKey, e.Message)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadBaseline parses a committed baseline file. A missing file is an
// empty baseline, so the first -update run bootstraps it.
func ReadBaseline(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Baseline{}, nil
		}
		return nil, err
	}
	b := Baseline{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("escapes: %s:%d: malformed baseline line %q", path, i+1, line)
		}
		n, err := strconv.Atoi(parts[0])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("escapes: %s:%d: bad count %q", path, i+1, parts[0])
		}
		b[Escape{FuncKey: parts[1], Message: parts[2]}] += n
	}
	return b, nil
}
