package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ivliw/internal/lintcheck"
)

// asMainEnv, set to 1, makes this test binary run main() instead of the
// tests, so a test can start it as the ivliw-vet command.
const asMainEnv = "IVLIW_VET_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smokeLib carries one violation per analyzer that fires outside the
// module's own packages, and one unknown annotation verb.
const smokeLib = `package lib

import (
	"context"
	"encoding/json"
	"os"
)

type T struct{ A int }

func Bad(path string, data []byte) error {
	var t T
	if err := json.Unmarshal(data, &t); err != nil {
		return err
	}
	_ = context.Background()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	panic("boom")
}

//ivliw:bogus not a real verb
func Weird() {}
`

// TestSeededViolations runs ivliw-vet over a scratch module seeded with one
// violation per rule: it must exit 1 (not 0, an analyzer asleep; not 2, a
// broken loader) and report each expected finding, and -json must report
// the same findings. A clean repo (TestRepoIsClean) means something only
// while this holds.
func TestSeededViolations(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, data := range map[string]string{
		"go.mod":     "module vetsmoke\n\ngo 1.24\n",
		"lib/lib.go": smokeLib,
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vet := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command(exe, append([]string{"-dir", dir}, args...)...)
		cmd.Env = append(os.Environ(), asMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("ivliw-vet %s on the seeded module: %v, want exit status 1\n%s%s", strings.Join(args, " "), err, out, stderr.String())
		}
		return out
	}

	text := vet("./...")
	lines := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	for _, want := range []string{
		"[strictjson] json.Unmarshal",
		"[ctxplumb] context.Background",
		"[atomicwrite] os.WriteFile",
		"[nopanic] panic in library code",
		`[annotation] unknown annotation verb "bogus"`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("no finding contains %q:\n%s", want, text)
		}
	}
	if len(lines) != 5 {
		t.Errorf("%d findings, want the 5 seeded ones:\n%s", len(lines), text)
	}

	var diags []lintcheck.Diagnostic
	if err := json.Unmarshal(vet("-json", "./..."), &diags); err != nil {
		t.Fatal(err)
	}
	if len(diags) != len(lines) {
		t.Fatalf("-json reported %d findings, the text output %d", len(diags), len(lines))
	}
	for i, d := range diags {
		if d.String() != lines[i] {
			t.Errorf("-json finding %d is %q, the text output's %q", i, d, lines[i])
		}
	}
}
