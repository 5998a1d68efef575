package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// coordSpec is a 6-point grid over one benchmark = 6 rows, cheap enough to
// coordinate repeatedly. Cache capacity is a compile-key axis and AB size
// is not, so the grid has 3 compile-key atoms of 2 rows each and equal
// predicted cost: any run with >= 2 workers is cut into exactly tasks 0-2.
func coordSpec(t *testing.T) Spec {
	t.Helper()
	return Spec{
		Grid: Grid{
			Clusters:   []int{2},
			CacheBytes: []int{4 << 10, 8 << 10, 16 << 10},
			ABEntries:  []int{0, 16},
		},
		Workloads: Workloads{Bench: []string{"g721dec"}},
		Compile:   Compile{Heuristic: "IPBC", Unroll: "none"},
	}
}

// scriptedLauncher wraps an inner launcher with per-(shard, attempt)
// failure and hang injection, recording every launch.
type scriptedLauncher struct {
	inner Launcher

	mu       sync.Mutex
	fail     map[[2]int]bool // {shard, attempt} → fail immediately
	hang     map[[2]int]bool // {shard, attempt} → block until ctx is done
	launches [][2]int
	started  chan [2]int // non-nil: receives every launch as it starts
}

func (l *scriptedLauncher) Launch(ctx context.Context, task ShardTask) error {
	key := [2]int{task.Index, task.Attempt}
	l.mu.Lock()
	l.launches = append(l.launches, key)
	fail, hang := l.fail[key], l.hang[key]
	l.mu.Unlock()
	if l.started != nil {
		l.started <- key
	}
	switch {
	case hang:
		<-ctx.Done()
		return ctx.Err()
	case fail:
		return fmt.Errorf("injected failure for shard %d attempt %d", task.Index, task.Attempt)
	}
	return l.inner.Launch(ctx, task)
}

func (l *scriptedLauncher) launchCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.launches)
}

// TestCoordinateMatchesUnsharded: the acceptance criterion — the stitched
// output of a coordinated run is byte-identical to the unsharded run, for
// one worker (a single task) and for worker counts whose chunk budget
// exceeds the atom count (capped at one chunk per atom).
func TestCoordinateMatchesUnsharded(t *testing.T) {
	spec := coordSpec(t)
	ref := runJSONL(t, spec) // 6 rows, unsharded

	for _, shards := range []int{1, 3, 7} {
		wantTasks := min(shards, 3) // one per atom at most
		dir := t.TempDir()
		out := filepath.Join(dir, "out.jsonl")
		cs := spec
		cs.Output.Path = out
		st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
			Shards: shards,
			Dir:    filepath.Join(dir, "work"),
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("shards=%d: stitched output differs from the unsharded run", shards)
		}
		if st.Rows != 6 || st.Tasks != wantTasks || st.Launches != wantTasks || st.Resumed != 0 {
			t.Errorf("shards=%d: stats = %+v, want 6 rows over %d tasks, one launch each",
				shards, st, wantTasks)
		}
	}
}

// TestCoordinateRetriesInjectedFailures: failing attempts are retried up to
// the cap and the run converges with byte-identical output.
func TestCoordinateRetriesInjectedFailures(t *testing.T) {
	spec := coordSpec(t)
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	cs := spec
	cs.Output.Path = out
	l := &scriptedLauncher{
		inner: InProcess{},
		// Shard 0 fails twice (succeeds on its last allowed attempt),
		// shard 2 once.
		fail: map[[2]int]bool{{0, 1}: true, {0, 2}: true, {2, 1}: true},
	}
	st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
		Shards:      3,
		Dir:         filepath.Join(dir, "work"),
		Launcher:    l,
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries != 3 || st.Launches != 6 {
		t.Errorf("stats = %+v, want 3 retries over 6 launches", st)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, ref) {
		t.Error("output after retries differs from the unsharded run")
	}
}

// TestCoordinateExhaustsAttempts: a shard that always fails caps out, marks
// itself failed in the manifest, and surfaces its last error (not a bare
// context error from the sibling teardown).
func TestCoordinateExhaustsAttempts(t *testing.T) {
	dir := t.TempDir()
	cs := coordSpec(t)
	cs.Output.Path = filepath.Join(dir, "out.jsonl")
	l := &scriptedLauncher{
		inner: InProcess{},
		fail:  map[[2]int]bool{{1, 1}: true, {1, 2}: true},
	}
	work := filepath.Join(dir, "work")
	_, err := Coordinate(context.Background(), cs, CoordinatorOptions{
		Shards:      3,
		Dir:         work,
		Launcher:    l,
		MaxAttempts: 2,
	})
	if err == nil {
		t.Fatal("exhausted shard must fail the run")
	}
	for _, want := range []string{"shard 1", "after 2 attempts", "injected failure"} {
		if !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Errorf("err %q does not mention %q", err, want)
		}
	}
	if _, statErr := os.Stat(cs.Output.Path); statErr == nil {
		t.Error("failed run must not publish a stitched output")
	}
	data, rerr := os.ReadFile(filepath.Join(work, manifestName))
	if rerr != nil {
		t.Fatal(rerr)
	}
	var m manifest
	if jerr := json.Unmarshal(data, &m); jerr != nil {
		t.Fatal(jerr)
	}
	if m.Shards[1].Status != shardFailed || m.Shards[1].Attempts != 2 {
		t.Errorf("manifest shard 1 = %+v, want failed after 2 attempts", m.Shards[1])
	}
}

// TestCoordinateCancel: canceling the coordinator mid-run returns the
// context error, publishes no stitched output and leaves no staging temp
// files — and a rerun over the same directory resumes the shards that
// completed before the cancel.
func TestCoordinateCancel(t *testing.T) {
	spec := coordSpec(t)
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	work := filepath.Join(dir, "work")
	cs := spec
	cs.Output.Path = out

	l := &scriptedLauncher{
		inner:   InProcess{},
		hang:    map[[2]int]bool{{2, 1}: true},
		started: make(chan [2]int, 16),
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel once the hung shard 2 attempt is underway; shards 0 and 1
		// finish (InProcess is fast at 1-2 rows each) or are canceled —
		// either way the invariants below must hold.
		for key := range l.started {
			if key == [2]int{2, 1} {
				cancel()
				return
			}
		}
	}()
	_, err := Coordinate(ctx, cs, CoordinatorOptions{Shards: 3, Dir: work, Launcher: l})
	close(l.started)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Error("canceled run must not publish a stitched output")
	}
	for _, pattern := range []string{
		filepath.Join(dir, "*.tmp-*"),
		filepath.Join(work, "*.tmp-*"),
	} {
		if stray, _ := filepath.Glob(pattern); len(stray) != 0 {
			t.Errorf("cancellation left staging files behind: %v", stray)
		}
	}

	// Resume with a healthy launcher: completed shards are skipped, the
	// rest run, and the stitched bytes match the unsharded reference.
	st, err := Coordinate(context.Background(), cs, CoordinatorOptions{Shards: 3, Dir: work})
	if err != nil {
		t.Fatal(err)
	}
	if st.Resumed+st.Launches != 3 || st.Launches < 1 {
		t.Errorf("resume stats = %+v, want resumed+launches = 3 with at least shard 2 relaunched", st)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, ref) {
		t.Error("resumed run differs from the unsharded reference")
	}
}

// TestCoordinateResumeSkipsCompleted: after a run that fails one shard
// permanently, rerunning over the same directory resumes the completed
// shards for free and only relaunches the failed one.
func TestCoordinateResumeSkipsCompleted(t *testing.T) {
	spec := coordSpec(t)
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	work := filepath.Join(dir, "work")
	cs := spec
	cs.Output.Path = out

	l := &scriptedLauncher{
		inner: InProcess{},
		fail:  map[[2]int]bool{{2, 1}: true, {2, 2}: true},
	}
	if _, err := Coordinate(context.Background(), cs, CoordinatorOptions{
		Shards: 3, Dir: work, Launcher: l, MaxAttempts: 2,
	}); err == nil {
		t.Fatal("first run must fail (shard 2 exhausts its attempts)")
	}

	l2 := &scriptedLauncher{inner: InProcess{}}
	st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
		Shards: 3, Dir: work, Launcher: l2, MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Resumed != 2 || st.Launches != 1 {
		t.Errorf("resume stats = %+v, want 2 resumed and exactly 1 launch", st)
	}
	if got := l2.launches; len(got) != 1 || got[0] != [2]int{2, 1} {
		t.Errorf("resume launched %v, want only shard 2 attempt 1 (attempts reset)", got)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, ref) {
		t.Error("resumed output differs from the unsharded reference")
	}

	// resume reruns over the same directory and checks the stats and the
	// stitched bytes.
	resume := func(what string, resumed, launches int) {
		t.Helper()
		st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
			Shards: 3, Dir: work, Launcher: InProcess{}, MaxAttempts: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if st.Resumed != resumed || st.Launches != launches {
			t.Errorf("%s: stats = %+v, want %d resumed and %d launches", what, st, resumed, launches)
		}
		if got, _ := os.ReadFile(out); !bytes.Equal(got, ref) {
			t.Errorf("%s: output differs from the unsharded reference", what)
		}
	}
	// A finished run resumes whole: nothing launches.
	resume("full resume", 3, 0)

	// A done shard whose recorded output names another shard's file, while
	// its own file is gone, is relaunched: stitch reads the canonical file.
	mf := poolManifest(t, work)
	mf.path = filepath.Join(work, manifestName)
	mf.Shards[1].Output = shardFileName(0)
	if err := mf.save(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(work, shardFileName(1))); err != nil {
		t.Fatal(err)
	}
	resume("mismatched output", 2, 1)
	if got := poolManifest(t, work).Shards[1].Output; got != shardFileName(1) {
		t.Errorf("shard 1 records output %q after the relaunch, want %q", got, shardFileName(1))
	}
}

// TestCoordinateManifestSpecMismatch: a work directory holding a different
// spec's manifest is reset, never resumed — completed shards of another run
// must not leak into this one's stitch.
func TestCoordinateManifestSpecMismatch(t *testing.T) {
	dir := t.TempDir()
	work := filepath.Join(dir, "work")
	first := coordSpec(t)
	first.Output.Path = filepath.Join(dir, "a.jsonl")
	if _, err := Coordinate(context.Background(), first, CoordinatorOptions{Shards: 3, Dir: work}); err != nil {
		t.Fatal(err)
	}

	second := coordSpec(t)
	// A different simulate-only axis: a different hash over the very same
	// cuts, so only the hash check can reject the old manifest.
	second.Grid.ABEntries = []int{0, 8}
	second.Output.Path = filepath.Join(dir, "b.jsonl")
	ref := runJSONL(t, second)
	st, err := Coordinate(context.Background(), second, CoordinatorOptions{Shards: 3, Dir: work})
	if err != nil {
		t.Fatal(err)
	}
	if st.Resumed != 0 || st.Launches != 3 {
		t.Errorf("stats = %+v, want a full relaunch (0 resumed) for a changed spec", st)
	}
	if got, _ := os.ReadFile(second.Output.Path); !bytes.Equal(got, ref) {
		t.Error("post-reset output differs from the unsharded reference")
	}
}

// TestCoordinateRejectsPinnedShard: the coordinator owns sharding; a spec
// arriving with its own shard is a caller bug, not something to silently
// re-slice.
func TestCoordinateRejectsPinnedShard(t *testing.T) {
	spec := coordSpec(t)
	spec.Shard = Shard{Index: 1, Count: 3}
	if _, err := Coordinate(context.Background(), spec, CoordinatorOptions{Shards: 3}); err == nil {
		t.Error("pinned Spec.Shard must be rejected")
	}
	if _, err := Coordinate(context.Background(), coordSpec(t), CoordinatorOptions{Shards: 0}); err == nil {
		t.Error("Shards = 0 must be rejected")
	}
}

// TestExecLauncherWiring: a pool worker with a command prefix invokes it
// with the documented worker flags (-spec, -shard i/n, -out) appended to
// the argv prefix — the contract that makes ivliw-bench (or `ssh host
// ivliw-bench`) a worker with no extra protocol.
func TestExecLauncherWiring(t *testing.T) {
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("no sh on PATH")
	}
	dir := t.TempDir()
	script := filepath.Join(dir, "worker.sh")
	// The fake worker logs its argv and produces the output file the
	// coordinator demands.
	if err := os.WriteFile(script, []byte(`#!/bin/sh
echo "$@" >> "$(dirname "$0")/argv.log"
while [ $# -gt 1 ]; do [ "$1" = -out ] && : > "$2"; shift; done
`), 0o755); err != nil {
		t.Fatal(err)
	}
	task := ShardTask{
		Spec:     Spec{Shard: Shard{Index: 1, Count: 3}, Output: Output{Path: filepath.Join(dir, "s1.jsonl")}},
		SpecPath: filepath.Join(dir, "spec.json"),
		Index:    1,
		Attempt:  1,
	}
	if err := (&Pool{Workers: []Worker{{Command: []string{script}}}}).Launch(context.Background(), task); err != nil {
		t.Fatal(err)
	}
	argv, err := os.ReadFile(filepath.Join(dir, "argv.log"))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("-spec %s -shard 1/3 -out %s\n", task.SpecPath, task.Spec.Output.Path)
	if string(argv) != want {
		t.Errorf("worker argv = %q, want %q", argv, want)
	}
	if _, err := os.Stat(task.Spec.Output.Path); err != nil {
		t.Fatalf("fake worker produced no output: %v", err)
	}

	// A failing worker surfaces as an error.
	if err := (&Pool{Workers: []Worker{{Command: []string{"false"}}}}).Launch(context.Background(), task); err == nil {
		t.Error("a failing worker must surface its exit status")
	}
}

// TestCoordinateManifestWriteFailureNoHang: a manifest commit failing
// after an attempt (here: the work dir vanishes while the attempt runs, so
// recording its outcome cannot land) must surface an error, not hang or
// retry into a ledger that can no longer record anything.
func TestCoordinateManifestWriteFailureNoHang(t *testing.T) {
	dir := t.TempDir()
	work := filepath.Join(dir, "work")
	cs := coordSpec(t)
	cs.Output.Path = filepath.Join(dir, "out.jsonl")
	launches := 0
	l := LaunchFunc(func(ctx context.Context, task ShardTask) error {
		// Removal, not chmod: tests may run as root, which ignores
		// permission bits.
		launches++
		os.RemoveAll(work)
		return fmt.Errorf("injected failure for shard %d attempt %d", task.Index, task.Attempt)
	})
	done := make(chan error, 1)
	go func() {
		_, err := Coordinate(context.Background(), cs, CoordinatorOptions{
			Shards:      1,
			Dir:         work,
			Launcher:    l,
			MaxAttempts: 3,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "manifest") {
			t.Fatalf("err = %v, want the manifest write failure", err)
		}
		if launches != 1 {
			t.Errorf("%d launches, want 1: the run must stop at the failed write", launches)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator hung after a failed manifest write")
	}
}
