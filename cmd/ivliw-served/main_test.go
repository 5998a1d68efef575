package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ivliw/sweep/serve"
)

// asMainEnv, set to 1, makes this test binary run main() instead of the
// tests, so a test can start it as the daemon and check its exit status and
// messages.
const asMainEnv = "IVLIW_SERVED_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// parse runs parseFlags over args on a fresh flag set.
func parse(args ...string) (options, error) {
	fs := flag.NewFlagSet("ivliw-served", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// TestPoolFlagsNeedWorkerBin: a pool flag without -worker-bin stops the
// daemon with exit status 2 and names the flag, where it used to be dropped
// while shard attempts ran in-process with no hang detection. With
// -worker-bin the same flag is accepted and reaches the options.
func TestPoolFlagsNeedWorkerBin(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		flag, value string
		got         func(options) any
		want        any
	}{
		{"pool-workers", "3", func(o options) any { return o.poolWorkers }, 3},
		{"pool-slots", "2", func(o options) any { return o.poolSlots }, 2},
		{"pool-stale", "1s", func(o options) any { return o.poolStale }, time.Second},
	}
	for _, tc := range cases {
		// No -dir: a daemon that let the flag through stops at the missing
		// -dir with exit status 1 instead of listening.
		cmd := exec.Command(exe, "-"+tc.flag, tc.value)
		cmd.Env = append(os.Environ(), asMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("-%s without -worker-bin: got %v, want exit status 2; stderr:\n%s", tc.flag, err, stderr.String())
		}
		if want := "-" + tc.flag + " only applies with -worker-bin"; !strings.Contains(stderr.String(), want) {
			t.Errorf("-%s without -worker-bin: stderr lacks %q:\n%s", tc.flag, want, stderr.String())
		}

		o, err := parse("-"+tc.flag, tc.value, "-worker-bin", "x")
		if err != nil {
			t.Errorf("-%s with -worker-bin: %v", tc.flag, err)
			continue
		}
		if got := tc.got(o); got != tc.want {
			t.Errorf("-%s %s with -worker-bin parsed to %v, want %v", tc.flag, tc.value, got, tc.want)
		}
	}
}

// TestPoolWorkersBound: -pool-workers 0 with -worker-bin parses, and the
// launcher still refuses an empty pool.
func TestPoolWorkersBound(t *testing.T) {
	o, err := parse("-pool-workers", "0", "-worker-bin", "x")
	if err != nil {
		t.Fatal(err)
	}
	_, err = launcher(o)
	if err == nil || err.Error() != "-pool-workers must be >= 1, got 0" {
		t.Fatalf("launcher with -pool-workers 0: got %v, want the >= 1 error", err)
	}
}

// TestServedOverPool runs the daemon over a pool of ivliw-bench subprocesses
// (built into a temporary directory) and submits the committed default.json
// spec over HTTP. The job ID is `ivliw-bench -spec-hash` of the same file,
// and the served rows are the ones the CLI writes for it. A second
// submission is a cached duplicate that leaves the execution count alone,
// and SIGTERM drains the daemon, which exits 0.
func TestServedOverPool(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	bench := path("ivliw-bench")
	if out, err := exec.Command("go", "build", "-o", bench, "ivliw/cmd/ivliw-bench").CombinedOutput(); err != nil {
		t.Fatalf("building ivliw-bench: %v\n%s", err, out)
	}
	specPath := filepath.Join("..", "ivliw-bench", "testdata", "default.json")
	specJSON, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	benchOut := func(args ...string) []byte {
		t.Helper()
		out, err := exec.Command(bench, args...).Output()
		if err != nil {
			t.Fatalf("ivliw-bench %s: %v", strings.Join(args, " "), err)
		}
		return out
	}
	wantJob := string(bytes.TrimSpace(benchOut("-spec", specPath, "-spec-hash")))
	wantRows := benchOut("-spec", specPath, "-workers", "1", "-compile-cache", "0")

	daemon := exec.Command(exe, "-addr", "127.0.0.1:0", "-addr-file", path("addr"),
		"-dir", path("served"), "-executors", "2", "-worker-bin", bench)
	daemon.Env = append(os.Environ(), asMainEnv+"=1")
	var stderr bytes.Buffer
	daemon.Stderr = &stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	waited := false
	t.Cleanup(func() {
		if !waited {
			daemon.Process.Kill()
			<-exited
		}
	})
	var addr []byte
	for deadline := time.Now().Add(10 * time.Second); len(addr) == 0; {
		select {
		case err := <-exited:
			waited = true
			t.Fatalf("the daemon exited on startup (%v):\n%s", err, stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the daemon never wrote its address file")
		}
		addr, _ = os.ReadFile(path("addr")) // absent until the daemon listens
	}
	c := &serve.Client{Base: "http://" + string(bytes.TrimSpace(addr))}
	ctx := context.Background()

	// submit posts the spec, waits for the job and returns the submission,
	// the rows and the server's execution count.
	submit := func() (serve.SubmitResponse, []byte, int64) {
		t.Helper()
		sub, err := c.Submit(ctx, specJSON)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := c.Wait(ctx, sub.Job, 5*time.Millisecond); err != nil || st.State != serve.StateDone {
			t.Fatalf("job %s: state %q, error %q (%v)", sub.Job, st.State, st.Error, err)
		}
		var rows bytes.Buffer
		if _, err := c.Rows(ctx, sub.Job, &rows); err != nil {
			t.Fatal(err)
		}
		stats, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return sub, rows.Bytes(), stats.Executions
	}
	first, rows, executions := submit()
	if first.Job != wantJob || first.Dedup || first.Cached {
		t.Errorf("first submission: %+v, want job %s executed afresh", first, wantJob)
	}
	if !bytes.Equal(rows, wantRows) {
		t.Error("the served rows differ from the CLI's rows of the same spec file")
	}
	again, rows, executionsAgain := submit()
	if again.Job != wantJob || !again.Dedup || !again.Cached {
		t.Errorf("duplicate submission: %+v, want a cached dedup hit on job %s", again, wantJob)
	}
	if executionsAgain != executions {
		t.Errorf("the duplicate submission moved the execution count from %d to %d", executions, executionsAgain)
	}
	if !bytes.Equal(rows, wantRows) {
		t.Error("the cached rows differ from the CLI's rows")
	}

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = <-exited
	waited = true
	if err != nil {
		t.Fatalf("the daemon exited with %v on SIGTERM:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained") {
		t.Errorf("the daemon never reported the drain:\n%s", stderr.String())
	}
}
