package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The tests in this file start this test binary as the ivliw-bench command
// (see TestMain) on the committed spec files in testdata, so each property
// is checked on the binary a user runs: flags, exit status, stdout, -out
// files and the log lines on stderr. They run in parallel, so the others
// overlap the seconds TestCoordinateSurvivesDeadWorkerAndHang waits for
// stale heartbeats.

// specFile is the path of a committed spec file in testdata.
func specFile(name string) string { return filepath.Join("testdata", name+".json") }

// cli starts this test binary as ivliw-bench with args, the fault plan at
// plan armed ("" arms none), and returns its exit status, stdout and
// stderr.
func cli(t *testing.T, plan string, args ...string) (int, []byte, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1", "IVLIW_FAULT_PLAN="+plan)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.Bytes(), stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stdout.Bytes(), stderr.String()
	}
	t.Fatalf("ivliw-bench %s: %v", strings.Join(args, " "), err)
	return 0, nil, ""
}

// mustCLI is cli for a run that must exit 0; it returns stdout and stderr.
func mustCLI(t *testing.T, plan string, args ...string) ([]byte, string) {
	t.Helper()
	code, stdout, stderr := cli(t, plan, args...)
	if code != 0 {
		t.Fatalf("ivliw-bench %s: exit status %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout, stderr
}

var (
	refMu sync.Mutex
	refs  = map[string][]byte{}
)

// reference returns the rows of the committed spec file name, run
// unsharded on one worker with the compile cache off: the bytes every other
// way of running the spec must reproduce. It runs once per spec and test
// binary.
func reference(t *testing.T, name string) []byte {
	t.Helper()
	refMu.Lock()
	defer refMu.Unlock()
	if ref, ok := refs[name]; ok {
		return ref
	}
	ref, _ := mustCLI(t, "", "-spec", specFile(name), "-workers", "1", "-compile-cache", "0")
	if len(ref) == 0 {
		t.Fatalf("%s: the reference run wrote no rows", name)
	}
	refs[name] = ref
	return ref
}

// sameRows reports an error when got differs from the reference rows of
// the spec file name.
func sameRows(t *testing.T, name, what string, got []byte) {
	t.Helper()
	if want := reference(t, name); !bytes.Equal(got, want) {
		t.Errorf("%s: %s differs from the reference run: %s", name, what, firstDiff(want, got))
	}
}

// readFile returns the contents of path, failing the test if it is missing.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writePlan writes a fault plan into dir and returns its path.
func writePlan(t *testing.T, dir, plan string) string {
	t.Helper()
	path := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantLog reports each line fragment the stderr of a run lacks.
func wantLog(t *testing.T, stderr string, fragments ...string) {
	t.Helper()
	for _, f := range fragments {
		if !strings.Contains(stderr, f) {
			t.Errorf("stderr lacks %q:\n%s", f, stderr)
		}
	}
}

// TestExpSectionsInFreshProcesses: each -exp section, run alone in a fresh
// process, equals its slice of the golden transcript. Inside `-exp all`,
// Figures 5 and 7 and the headlines read cells the earlier figures left in
// the process; alone they start cold, which TestExpAllMatchesGolden, whose
// process is warm, cannot show.
func TestExpSectionsInFreshProcesses(t *testing.T) {
	t.Parallel()
	rest := readFile(t, "testdata/exp_all.golden")
	for _, name := range experimentOrder {
		out, _ := mustCLI(t, "", "-exp", name)
		section := append(out, '\n') // -exp all ends each section with a blank line
		if !bytes.HasPrefix(rest, section) {
			t.Fatalf("-exp %s differs from its golden section: %s", name, firstDiff(rest[:min(len(section), len(rest))], section))
		}
		rest = rest[len(section):]
	}
	if len(rest) != 0 {
		t.Fatalf("golden transcript has %d bytes after the last section", len(rest))
	}
}

// TestSweepDeterminism: default.json writes the same rows at 1 and 8
// workers, with the compile cache on and off, and to stdout or to -out; the
// grid has at least 12 rows.
func TestSweepDeterminism(t *testing.T) {
	t.Parallel()
	ref := reference(t, "default")
	if rows := bytes.Count(ref, []byte("\n")); rows < 12 {
		t.Fatalf("default.json produced %d rows, want at least 12", rows)
	}
	for _, args := range [][]string{
		{"-workers", "8"},
		{"-workers", "1"},
		{"-workers", "8", "-compile-cache", "0"},
	} {
		out, _ := mustCLI(t, "", append([]string{"-spec", specFile("default")}, args...)...)
		sameRows(t, "default", strings.Join(args, " "), out)
	}
	path := filepath.Join(t.TempDir(), "rows.jsonl")
	if out, _ := mustCLI(t, "", "-spec", specFile("default"), "-workers", "8", "-out", path); len(out) != 0 {
		t.Errorf("-out also wrote %d bytes to stdout", len(out))
	}
	sameRows(t, "default", "-out", readFile(t, path))
}

// TestShardsAndWarmStore: three -shard slices over a fresh -artifact-dir
// concatenate to the reference rows, and a rerun over the then-warm store
// compiles nothing and writes the same rows.
func TestShardsAndWarmStore(t *testing.T) {
	t.Parallel()
	art := filepath.Join(t.TempDir(), "artifacts")
	var sharded []byte
	for i := 0; i < 3; i++ {
		out, _ := mustCLI(t, "", "-spec", specFile("default"), "-shard", fmt.Sprintf("%d/3", i), "-artifact-dir", art)
		sharded = append(sharded, out...)
	}
	sameRows(t, "default", "the concatenated shards", sharded)

	out, stderr := mustCLI(t, "", "-spec", specFile("default"), "-artifact-dir", art)
	sameRows(t, "default", "the warm-store run", out)
	if !regexp.MustCompile(`artifact store .*: \d+ hits, 0 compiles,`).MatchString(stderr) {
		t.Errorf("the warm-store run did not report 0 compiles from the artifact store:\n%s", stderr)
	}
}

// TestCoordinateThreeWorkers: `-coordinate 3` stitches the reference rows,
// and its manifest records the worker that served each task.
func TestCoordinateThreeWorkers(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	work, out := filepath.Join(dir, "work"), filepath.Join(dir, "rows.jsonl")
	mustCLI(t, "", "-spec", specFile("default"), "-coordinate", "3", "-coordinate-dir", work, "-out", out)
	sameRows(t, "default", "-coordinate 3", readFile(t, out))

	var m struct {
		Shards []struct {
			Index          int
			Status, Worker string
		}
	}
	if err := json.Unmarshal(readFile(t, filepath.Join(work, "manifest.json")), &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) == 0 {
		t.Fatal("the manifest records no tasks")
	}
	for _, s := range m.Shards {
		if s.Status != "done" || !regexp.MustCompile(`^w[0-2]$`).MatchString(s.Worker) {
			t.Errorf("task %d: status %q, worker %q; want done, served by one of w0-w2", s.Index, s.Status, s.Worker)
		}
	}
}

// TestCoordinateSurvivesDeadWorkerAndHang: on tri.json, which -coordinate 3
// cuts into three tasks, worker w1 dies on its first launch and task 2's
// first two attempts hang without heartbeating. The pool quarantines w1 and
// requeues its task, the stale-heartbeat monitor kills and retries the
// hung attempts, and the stitched rows still equal the reference. Two
// hanging attempts pin the hang: when task 2's first attempt is w1's first
// launch, it dies before it can hang, and its retry hangs instead.
func TestCoordinateSurvivesDeadWorkerAndHang(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	plan := writePlan(t, dir, `{"events":[{"op":"dead-worker","worker":"w1"},`+
		`{"op":"hang","shard":2,"attempt":1},{"op":"hang","shard":2,"attempt":2}]}`)
	out := filepath.Join(dir, "rows.jsonl")
	_, stderr := mustCLI(t, plan, "-spec", specFile("tri"), "-coordinate", "3", "-pool-stale", "1s",
		"-coordinate-attempts", "4", "-coordinate-dir", filepath.Join(dir, "work"), "-out", out)
	sameRows(t, "tri", "the faulted coordinated run", readFile(t, out))
	wantLog(t, stderr, "3 workers, 3 tasks", "worker w1 died", "quarantined", "heartbeat stale")
}

// TestSimBatchIdentity: batched simulation writes the batch-off rows and
// reports its batches, serially, on 8 workers and through the coordinator's
// worker pool: default.json at -sim-batch 8, whose AB axis gives each
// compile key two sibling cells, and mshr.json at -sim-batch 16, whose
// siblings form MSHR families that share one back half until their fill
// bound can bite.
func TestSimBatchIdentity(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	for _, tc := range []struct{ spec, batch string }{{"default", "8"}, {"mshr", "16"}} {
		base := []string{"-spec", specFile(tc.spec), "-sim-batch", tc.batch}
		for _, workers := range []string{"1", "8"} {
			out, stderr := mustCLI(t, "", append(base, "-workers", workers)...)
			sameRows(t, tc.spec, "-sim-batch "+tc.batch+" -workers "+workers, out)
			wantLog(t, stderr, "sim batches:")
		}
		out := filepath.Join(dir, tc.spec+".jsonl")
		_, stderr := mustCLI(t, "", append(base, "-coordinate", "3",
			"-coordinate-dir", filepath.Join(dir, tc.spec), "-out", out)...)
		sameRows(t, tc.spec, "-sim-batch "+tc.batch+" -coordinate 3", readFile(t, out))
		wantLog(t, stderr, "sim batches:")
	}
}

// TestCostBalancedChunks: on skew.json, the grid scripts/ci.sh times, a
// calibration written by -calibrate is loaded back by -coordinate 2, which
// stitches the reference rows; so does a run whose chunk 1 crashes on its
// first attempt, a run given a corrupt calibration, which degrades to the
// default cost model with a warning, and the serialized run the timing
// gate replays. The two count-balanced -shard i/2 halves that the gate
// times concatenate to the reference rows too.
func TestCostBalancedChunks(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	cal := path("calibration.json")
	_, stderr := mustCLI(t, "", "-spec", specFile("skew"), "-calibrate", cal)
	wantLog(t, stderr, "calibration written to "+cal)

	coordinate := func(name, plan, calibration string, args ...string) string {
		t.Helper()
		_, stderr := mustCLI(t, plan, append([]string{"-spec", specFile("skew"), "-coordinate", "2",
			"-coordinate-dir", path(name), "-out", path(name + ".jsonl"), "-coordinate-calibration", calibration}, args...)...)
		sameRows(t, "skew", name, readFile(t, path(name+".jsonl")))
		return stderr
	}
	wantLog(t, coordinate("calibrated", "", cal, "-pool-stale", "5s"), "calibration loaded from "+cal)

	crash := writePlan(t, dir, `{"events":[{"op":"crash","shard":1,"attempt":1}]}`)
	wantLog(t, coordinate("crash", crash, cal), "fault: crash (shard 1, attempt 1)", "1 retries")

	corrupt := path("corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"clusters": [], "broken`), 0o644); err != nil {
		t.Fatal(err)
	}
	wantLog(t, coordinate("corrupt", "", corrupt), "unusable", "using the default cost model")
	coordinate("timed", "", cal, "-workers", "1", "-coordinate-parallel", "1")

	var halves []byte
	for i := 0; i < 2; i++ {
		out, _ := mustCLI(t, "", "-spec", specFile("skew"), "-workers", "1", "-shard", fmt.Sprintf("%d/2", i))
		halves = append(halves, out...)
	}
	sameRows(t, "skew", "the count-balanced halves", halves)
}

// TestUsageErrors: every usage error ivliw-bench checks exits 2 with its
// message, and so do the removed flags; an unknown experiment exits 1.
func TestUsageErrors(t *testing.T) {
	t.Parallel()
	spec := specFile("default")
	cases := []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-workers", "-1"}, 2, "-workers must be >= 0, got -1"},
		{[]string{"-sim-batch", "-1"}, 2, "-sim-batch must be >= 0, got -1"},
		{[]string{"-compile-cache", "-1"}, 2, "-compile-cache must be >= 0, got -1"},
		{[]string{"-spec", spec, "-shard", "3/3"}, 2, "-shard index must be in [0, 3), got 3"},
		{[]string{"-spec", spec, "-shard", "-1/3"}, 2, "-shard index must be in [0, 3), got -1"},
		{[]string{"-spec", spec, "-shard", "x/3"}, 2, `-shard index "x": want an integer`},
		{[]string{"-spec", spec, "-shard", "1x3"}, 2, `-shard must be i/n (e.g. 0/3), got "1x3"`},
		{[]string{"-spec", spec, "-shard", "0/0"}, 2, "-shard count must be >= 1, got 0"},
		{[]string{"-spec", spec, "-claim", "4:2"}, 2, "-claim wants 0 <= lo < hi, got 4:2"},
		{[]string{"-coordinate", "2"}, 2, "-coordinate needs -spec"},
		{[]string{"-shard", "0/2"}, 2, "-shard needs -spec"},
		{[]string{"-spec-hash"}, 2, "-spec-hash needs -spec"},
		{[]string{"-spec", spec, "-exp", "all"}, 2, "-exp cannot be combined with -spec"},
		{[]string{"-spec", spec, "-coordinate", "-1"}, 2, "-coordinate must be >= 0, got -1"},
		{[]string{"-spec", spec, "-pool-stale", "1s"}, 2, "-pool-stale only applies with -coordinate n"},
		{[]string{"-spec", spec, "-coordinate", "2", "-shard", "0/2"}, 2, "-shard cannot be combined with -coordinate"},
		{[]string{"-spec", spec, "-coordinate", "2", "-claim", "0:1"}, 2, "-claim cannot be combined with -coordinate"},
		{[]string{"-spec", spec, "-coordinate", "2", "-coordinate-attempts", "0"}, 2, "-coordinate-attempts must be >= 1, got 0"},
		{[]string{"-spec", spec, "-coordinate", "2", "-coordinate-parallel", "-1"}, 2, "-coordinate-parallel must be >= 0, got -1"},
		{[]string{"-spec", spec, "-coordinate", "2", "-heartbeat", "hb"}, 2, "-heartbeat is a per-worker knob"},
		{[]string{"-spec", spec, "-heartbeat-interval", "1s"}, 2, "-heartbeat-interval needs -heartbeat"},
		{[]string{"-spec", spec, "-calibrate", "cal.json", "-out", "rows.jsonl"}, 2, "-out cannot be combined with -calibrate"},
		{[]string{"-spec", spec, "-calibrate", "cal.json", "-coordinate", "2"}, 2, "-calibrate cannot be combined with -coordinate"},
		{[]string{"-spec", spec, "-spec-hash", "-out", "rows.jsonl"}, 2, "-out cannot be combined with -spec-hash"},
		{[]string{"-sweep"}, 2, "flag provided but not defined: -sweep"},
		{[]string{"-spec-out", "spec.json"}, 2, "flag provided but not defined: -spec-out"},
		{[]string{"-spec", spec, "-coordinate", "2", "-coordinate-backoff", "1s"}, 2, "flag provided but not defined: -coordinate-backoff"},
		{[]string{"-exp", "bogus"}, 1, `unknown experiment "bogus"`},
	}
	for _, tc := range cases {
		code, stdout, stderr := cli(t, "", tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.msg) || len(stdout) != 0 {
			t.Errorf("ivliw-bench %s: exit %d, %d bytes on stdout, stderr:\n%s\nwant exit %d, nothing on stdout and %q",
				strings.Join(tc.args, " "), code, len(stdout), stderr, tc.code, tc.msg)
		}
	}
}
