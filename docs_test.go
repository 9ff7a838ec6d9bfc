package powerdial_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
