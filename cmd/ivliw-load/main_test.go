package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ivliw/sweep"
	"ivliw/sweep/serve"
)

// asMainEnv, set to 1, makes this test binary run main() instead of the
// tests, so a test can check the client's exit status.
const asMainEnv = "IVLIW_LOAD_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startServer runs an in-process serve.Server over a temp dir behind a
// loopback listener and returns its base URL; cleanup drains it.
func startServer(t *testing.T, opts serve.Options) string {
	t.Helper()
	opts.Dir, opts.Log = t.TempDir(), t.Logf
	srv, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(ctx)
	}()
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		cancel()
		<-done
	})
	return hs.URL
}

// writeSpec writes a tiny two-row spec file and returns its path, the spec
// and its job ID.
func writeSpec(t *testing.T, name string) (string, sweep.Spec, string) {
	t.Helper()
	spec := sweep.Spec{
		Grid: sweep.Grid{Clusters: []int{2, 4}},
		Workloads: sweep.Workloads{Synth: []sweep.SynthSpec{{
			Name: name, Seed: 5, Kernels: 1, Iters: 64, FootprintBytes: 2048,
		}}},
		Compile: sweep.Compile{Heuristic: "IPBC", Unroll: "none"},
	}
	data, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, spec, hash
}

// runMain starts this test binary as ivliw-load and returns its exit
// status, stdout and stderr.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatal(err)
	return 0, "", ""
}

// TestOneShot: the first submission executes once and saves rows
// byte-identical to a direct sweep.Run; the second is a cached duplicate
// that leaves the execution counter alone.
func TestOneShot(t *testing.T) {
	c := &serve.Client{Base: startServer(t, serve.Options{})}
	specPath, spec, hash := writeSpec(t, "oneshot")
	var direct bytes.Buffer
	if _, err := sweep.Run(context.Background(), spec, sweep.JSONL(&direct)); err != nil {
		t.Fatal(err)
	}

	for i, want := range []string{
		fmt.Sprintf("job=%s state=done dedup=false cached=false rows=2 executions=1\n", hash),
		fmt.Sprintf("job=%s state=done dedup=true cached=true rows=2 executions=1\n", hash),
	} {
		rows := filepath.Join(t.TempDir(), "rows.jsonl")
		var out bytes.Buffer
		if err := oneShot(context.Background(), c, specPath, rows, &out); err != nil {
			t.Fatalf("submission %d: %v", i+1, err)
		}
		if out.String() != want {
			t.Errorf("submission %d printed %q, want %q", i+1, out.String(), want)
		}
		if got, err := os.ReadFile(rows); err != nil || !bytes.Equal(got, direct.Bytes()) {
			t.Errorf("submission %d: saved rows differ from the direct run (err %v)", i+1, err)
		}
	}
}

// TestExitStatus: a job that fails exits 1 after printing its line; an
// unknown flag and a missing -submit are usage errors (exit 2).
func TestExitStatus(t *testing.T) {
	failing := sweep.LaunchFunc(func(context.Context, sweep.ShardTask) error {
		return errors.New("injected fault")
	})
	addr := startServer(t, serve.Options{Launcher: failing, MaxAttempts: 1})
	specPath, _, hash := writeSpec(t, "failing")

	code, stdout, stderr := runMain(t, "-addr", addr, "-submit", specPath)
	if code != 1 || !strings.HasPrefix(stdout, "job="+hash+" state=failed ") || !strings.Contains(stderr, "injected fault") {
		t.Errorf("failed job: exit %d, stdout %q, stderr %q; want exit 1 with a state=failed line and the job's error", code, stdout, stderr)
	}
	for _, args := range [][]string{
		{"-addr", addr, "-submit", specPath, "-n", "10"},
		{"-addr", addr},
	} {
		if code, _, stderr := runMain(t, args...); code != 2 {
			t.Errorf("ivliw-load %s: exit %d, want 2; stderr:\n%s", strings.Join(args, " "), code, stderr)
		}
	}
}
