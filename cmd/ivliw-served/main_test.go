package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// asMainEnv, set to 1, makes this test binary run main() instead of the
// tests, so a test can check the daemon's exit status and message.
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
