package lintcheck

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureConfig mirrors DefaultConfig for the testdata module: det.Run and
// det.Spec.Hash are the determinism roots, ctxplumb is the context-contract
// package.
var fixtureConfig = Config{
	DeterminismRoots: []string{"fixtures/det.Run", "fixtures/det.Spec.Hash"},
	CtxPackages:      []string{"fixtures/ctxplumb"},
}

// expectation is one parsed `// want` comment: a regexp that must match a
// diagnostic's "[analyzer] message" at file:line.
type expectation struct {
	file string // module-relative, forward slashes
	line int
	re   *regexp.Regexp
	hit  bool
}

// wantRE matches `// want `regex“ (same line) and `// want+1 `regex“
// (next line) markers in fixture sources.
var wantRE = regexp.MustCompile("// want(\\+1)? `([^`]*)`")

// parseWants scans every .go file under dir for want markers.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRE.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(m[2])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want regexp %q: %w", rel, line, m[2], err)
				}
				at := line
				if m[1] == "+1" {
					at = line + 1
				}
				wants = append(wants, &expectation{file: rel, line: at, re: re})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatal("no want markers found; fixture scan is broken")
	}
	return wants
}

// TestFixtures runs all analyzers over the testdata module and checks the
// findings against the fixtures' want markers, both directions: every
// marker must fire, and nothing unexpected may fire.
func TestFixtures(t *testing.T) {
	dir := filepath.Join("testdata", "fixtures")
	mod, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if mod.Path != "fixtures" {
		t.Fatalf("fixture module path = %q, want fixtures", mod.Path)
	}
	diags := Run(mod, fixtureConfig)
	wants := parseWants(t, dir)

	for _, d := range diags {
		rendered := fmt.Sprintf("[%s] %s", d.Analyzer, d.Message)
		matched := false
		for _, w := range wants {
			if w.file == d.File && w.line == d.Line && w.re.MatchString(rendered) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q, got no matching diagnostic", w.file, w.line, w.re)
		}
	}
}

// TestDiagnosticsSorted: the driver's output order is part of its contract
// (byte-stable across runs, like every other output in this module).
func TestDiagnosticsSorted(t *testing.T) {
	dir := filepath.Join("testdata", "fixtures")
	mod, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(mod, fixtureConfig)
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("diagnostics out of order: %s before %s", a, b)
		}
	}
}

// TestRepoIsClean is the self-check: the module that ships the analyzers
// must satisfy them. TestSeededViolations (cmd/ivliw-vet) shows that a
// clean result is not an analyzer asleep.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	root := repoRoot(t)
	mod, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(mod, DefaultConfig(mod.Path))
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// repoRoot walks up from the package directory to the enclosing go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}
