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
	"testing"
	"time"

	"ivliw/sweep/fault"
)

// poolManifest reads the coordinator manifest of a test run, rejecting
// fields the manifest type does not know, as openManifest does.
func poolManifest(t *testing.T, work string) *manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(work, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	m := new(manifest)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPoolCoordinateMatchesUnsharded: the pool as a drop-in launcher — a
// healthy 3-worker pool (heartbeats and checksum verification active)
// stitches byte-identically to the unsharded run, and the manifest records
// which worker served each shard.
func TestPoolCoordinateMatchesUnsharded(t *testing.T) {
	spec := coordSpec(t)
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	work := filepath.Join(dir, "work")
	cs := spec
	cs.Output.Path = filepath.Join(dir, "out.jsonl")
	pool := &Pool{
		Workers:    []Worker{{}, {}, {}}, // in-process, names default w0..w2
		StaleAfter: 2 * time.Second,
		Log:        t.Logf,
	}
	st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
		Shards: 3, Dir: work, Launcher: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cs.Output.Path); !bytes.Equal(got, ref) {
		t.Error("pool-coordinated output differs from the unsharded run")
	}
	if st.Launches != 3 {
		t.Errorf("stats = %+v, want 3 launches", st)
	}
	ps := pool.Stats()
	if ps.Launches != 3 || ps.StaleKills != 0 || ps.Quarantines != 0 || ps.ChecksumFailures != 0 {
		t.Errorf("pool stats = %+v, want 3 clean launches", ps)
	}
	for _, s := range poolManifest(t, work).Shards {
		if !strings.HasPrefix(s.Worker, "w") {
			t.Errorf("shard %d: manifest worker = %q, want a pool worker name", s.Index, s.Worker)
		}
		if len(s.History) != 1 || s.History[0].Worker != s.Worker || s.History[0].Error != "" {
			t.Errorf("shard %d: history = %+v, want one clean attempt on %s", s.Index, s.History, s.Worker)
		}
	}
}

// TestPoolDeadWorkerRequeues: a scripted dead-worker event takes a worker
// down mid-run; everything in flight on it fails at once, the coordinator
// requeues onto the healthy worker, and the stitched output stays
// byte-identical. The manifest's per-attempt history names the dead worker.
func TestPoolDeadWorkerRequeues(t *testing.T) {
	spec := coordSpec(t)
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	work := filepath.Join(dir, "work")
	cs := spec
	cs.Output.Path = filepath.Join(dir, "out.jsonl")
	pool := &Pool{
		Workers:           []Worker{{Name: "w0", Slots: 2}, {Name: "w1", Slots: 2}},
		QuarantineBackoff: 20 * time.Millisecond,
		Fault:             &fault.Plan{Events: []fault.Event{{Op: fault.DeadWorker, Worker: "w1"}}},
		Log:               t.Logf,
	}
	// The seam lingers before running so sibling attempts are genuinely in
	// flight when the death fires.
	pool.inproc = func(ctx context.Context, _ string, _ ShardTask, spec Spec) error {
		select {
		case <-time.After(30 * time.Millisecond):
		case <-ctx.Done():
			return context.Cause(ctx)
		}
		_, err := Run(ctx, spec, nil)
		return err
	}
	st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
		Shards: 4, Dir: work, Launcher: pool, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cs.Output.Path); !bytes.Equal(got, ref) {
		t.Error("output after a worker death differs from the unsharded run")
	}
	ps := pool.Stats()
	if ps.WorkerDeaths != 1 || ps.Quarantines < 1 {
		t.Errorf("pool stats = %+v, want exactly 1 worker death and >= 1 quarantine", ps)
	}
	if st.Retries < 1 {
		t.Errorf("stats = %+v, want >= 1 retry after the death", st)
	}
	found := false
	for _, s := range poolManifest(t, work).Shards {
		if s.Status != shardDone || s.Worker == "" {
			t.Errorf("shard %d: %s on worker %q, want done and attributed", s.Index, s.Status, s.Worker)
		}
		for _, rec := range s.History {
			if rec.Worker == "w1" && strings.Contains(rec.Error, "worker w1 down") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no manifest history record attributes a failure to the dead worker w1")
	}
}

// TestPoolStaleHeartbeatKill: an attempt that beats once and wedges is
// killed as soon as its heartbeat goes stale, and the retry converges
// without duplicate rows.
func TestPoolStaleHeartbeatKill(t *testing.T) {
	spec := coordSpec(t)
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	cs := spec
	cs.Output.Path = filepath.Join(dir, "out.jsonl")
	pool := &Pool{
		Workers:         []Worker{{Name: "w0"}, {Name: "w1"}},
		StaleAfter:      50 * time.Millisecond,
		QuarantineAfter: 10, // a single wedge must not quarantine here
		Log:             t.Logf,
	}
	pool.inproc = func(ctx context.Context, _ string, task ShardTask, spec Spec) error {
		if task.Index == 0 && task.Attempt == 1 {
			// One beat, then wedged-but-alive: exactly what the stale
			// monitor exists to catch.
			if err := WriteBeat(spec.Heartbeat.Path, Beat{Shard: 0, Seq: 1, Status: BeatRunning}); err != nil {
				return err
			}
			<-ctx.Done()
			return context.Cause(ctx)
		}
		_, err := Run(ctx, spec, nil)
		return err
	}
	st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
		Shards: 2, Dir: filepath.Join(dir, "work"), Launcher: pool, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cs.Output.Path); !bytes.Equal(got, ref) {
		t.Error("output after a stale-heartbeat kill differs from the unsharded run")
	}
	ps := pool.Stats()
	if ps.StaleKills != 1 {
		t.Errorf("pool stats = %+v, want exactly 1 stale kill", ps)
	}
	if st.Retries != 1 {
		t.Errorf("stats = %+v, want exactly 1 retry", st)
	}
}

// TestPoolQuarantineReadmission: a worker whose attempt fails is
// quarantined at the threshold, the pool waits out the backoff when no
// other worker exists, and the readmitted worker finishes the run.
func TestPoolQuarantineReadmission(t *testing.T) {
	spec := coordSpec(t)
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	cs := spec
	cs.Output.Path = filepath.Join(dir, "out.jsonl")
	pool := &Pool{
		Workers:           []Worker{{Name: "solo"}},
		QuarantineAfter:   1,
		QuarantineBackoff: 20 * time.Millisecond,
		Log:               t.Logf,
	}
	pool.inproc = func(ctx context.Context, _ string, task ShardTask, spec Spec) error {
		if task.Index == 0 && task.Attempt == 1 {
			return fmt.Errorf("injected failure")
		}
		_, err := Run(ctx, spec, nil)
		return err
	}
	_, err := Coordinate(context.Background(), cs, CoordinatorOptions{
		Shards: 2, Dir: filepath.Join(dir, "work"), Launcher: pool, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cs.Output.Path); !bytes.Equal(got, ref) {
		t.Error("output after quarantine/readmission differs from the unsharded run")
	}
	ps := pool.Stats()
	if ps.Quarantines != 1 || ps.Readmissions != 1 {
		t.Errorf("pool stats = %+v, want exactly 1 quarantine and 1 readmission", ps)
	}
}

// TestPoolCorruptOutputChecksum: an attempt whose committed output does not
// hash to the checksum in its final heartbeat fails verification and is
// retried; the retry's clean output wins.
func TestPoolCorruptOutputChecksum(t *testing.T) {
	spec := coordSpec(t)
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	cs := spec
	cs.Output.Path = filepath.Join(dir, "out.jsonl")
	pool := &Pool{
		Workers:         []Worker{{Name: "w0"}},
		StaleAfter:      2 * time.Second,
		QuarantineAfter: 10,
		Log:             t.Logf,
	}
	pool.inproc = func(ctx context.Context, _ string, task ShardTask, spec Spec) error {
		if _, err := Run(ctx, spec, nil); err != nil {
			return err
		}
		if task.Index == 1 && task.Attempt == 1 {
			// Corrupt the committed bytes after the final heartbeat sealed
			// their checksum — disk corruption between commit and stitch.
			data, err := os.ReadFile(spec.Output.Path)
			if err != nil || len(data) == 0 {
				return fmt.Errorf("corrupting: %v", err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(spec.Output.Path, data, 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
		Shards: 2, Dir: filepath.Join(dir, "work"), Launcher: pool, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cs.Output.Path); !bytes.Equal(got, ref) {
		t.Error("output after a checksum failure differs from the unsharded run")
	}
	if ps := pool.Stats(); ps.ChecksumFailures != 1 {
		t.Errorf("pool stats = %+v, want exactly 1 checksum failure", ps)
	}
	if st.Retries != 1 {
		t.Errorf("stats = %+v, want exactly 1 retry", st)
	}
}

// TestPoolRejectsEmptyAndDuplicate: configuration errors surface on the
// first Launch instead of scheduling into nothing.
func TestPoolRejectsEmptyAndDuplicate(t *testing.T) {
	task := ShardTask{Attempt: 1}
	if err := (&Pool{}).Launch(context.Background(), task); err == nil {
		t.Error("empty worker registry must fail")
	}
	p := &Pool{Workers: []Worker{{Name: "a"}, {Name: "a"}}}
	if err := p.Launch(context.Background(), task); err == nil {
		t.Error("duplicate worker names must fail")
	}
}

// TestRunHeartbeat: Run with a Heartbeat writes beats while executing and
// seals the committed output's row count and checksum into the final done
// beat — the protocol the pool's verification trusts.
func TestRunHeartbeat(t *testing.T) {
	dir := t.TempDir()
	spec := coordSpec(t)
	spec.Output.Path = filepath.Join(dir, "out.jsonl")
	spec.Heartbeat = Heartbeat{Path: filepath.Join(dir, "beat.json"), IntervalMS: 10}
	st, err := Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBeat(spec.Heartbeat.Path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Status != BeatDone || b.Rows != st.Rows || b.PID != os.Getpid() {
		t.Errorf("final beat = %+v, want done with %d rows from this process", b, st.Rows)
	}
	sum, err := fileSHA256(spec.Output.Path)
	if err != nil {
		t.Fatal(err)
	}
	if b.OutputSHA256 != sum {
		t.Errorf("final beat checksum %q does not match the committed output (%q)", b.OutputSHA256, sum)
	}

	// A canceled run halts the beater without a done beat: the last beat
	// keeps saying running, the truth a monitor needs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec.Output.Path = filepath.Join(dir, "out2.jsonl")
	spec.Heartbeat.Path = filepath.Join(dir, "beat2.json")
	if _, err := Run(ctx, spec, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if b, err := ReadBeat(spec.Heartbeat.Path); err != nil || b.Status != BeatRunning {
		t.Errorf("canceled run's last beat = %+v, %v; want a running beat", b, err)
	}
}

// TestReadBeatRejectsMalformed: a beat whose checksum is not a full
// lowercase hex sha256, or which carries bytes after its object, is
// refused instead of trusted.
func TestReadBeatRejectsMalformed(t *testing.T) {
	sum := strings.Repeat("0123456789abcdef", 4)
	dir := t.TempDir()
	for i, tc := range []struct {
		data string
		ok   bool
	}{
		{`{"pid":1,"shard":0,"seq":2,"unix_nano":3,"status":"done","rows":4,"output_sha256":"` + sum + `"}` + "\n", true},
		{`{"pid":1,"shard":0,"seq":1,"unix_nano":3,"status":"running"}`, true},
		{`{"status":"done","output_sha256":"abc"}`, false},
		{`{"status":"done","output_sha256":"` + strings.ToUpper(sum) + `"}`, false},
		{`{"status":"done","output_sha256":"` + sum[:63] + `g"}`, false},
		{`{"status":"done","output_sha256":"` + sum + `0"}`, false},
		{`{"status":"running"} {"status":"done"}`, false},
		{`{"status":"running"}x`, false},
		{`{"status":"running","extra":1}`, false},
	} {
		path := filepath.Join(dir, fmt.Sprintf("beat%d.json", i))
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBeat(path); (err == nil) != tc.ok {
			t.Errorf("ReadBeat(%s) err = %v, want ok = %v", tc.data, err, tc.ok)
		}
	}
}

// TestPoolMalformedDoneBeat: a done beat whose checksum is too short to be
// a sha256 fails the attempt, which is retried, instead of taking the
// coordinator down while the mismatch is reported.
func TestPoolMalformedDoneBeat(t *testing.T) {
	spec := coordSpec(t)
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	cs := spec
	cs.Output.Path = filepath.Join(dir, "out.jsonl")
	pool := &Pool{
		Workers:         []Worker{{Name: "w0"}},
		StaleAfter:      2 * time.Second,
		QuarantineAfter: 10,
		Log:             t.Logf,
	}
	pool.inproc = func(ctx context.Context, _ string, task ShardTask, spec Spec) error {
		if _, err := Run(ctx, spec, nil); err != nil {
			return err
		}
		if task.Index == 0 && task.Attempt == 1 {
			return os.WriteFile(spec.Heartbeat.Path,
				[]byte(`{"pid":1,"shard":0,"seq":9,"unix_nano":1,"status":"done","output_sha256":"abc"}`), 0o644)
		}
		return nil
	}
	st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
		Shards: 2, Dir: filepath.Join(dir, "work"), Launcher: pool, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cs.Output.Path); !bytes.Equal(got, ref) {
		t.Error("output after a malformed done beat differs from the unsharded run")
	}
	if st.Retries != 1 {
		t.Errorf("stats = %+v, want exactly 1 retry", st)
	}
}

// FuzzReadBeat: no input panics the beat decoder, and an accepted beat
// encodes to bytes that decode to the same beat and encode identically.
func FuzzReadBeat(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBeat(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := decodeBeat(enc)
		if err != nil {
			t.Fatalf("decoding the encoded beat %s: %v", enc, err)
		}
		enc2, err := json.Marshal(b2)
		if err != nil {
			t.Fatal(err)
		}
		if b2 != b || !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the beat: %+v (%s) -> %+v (%s)", b, enc, b2, enc2)
		}
	})
}

// TestBackoffDelay: the shared backoff schedule is deterministic, jittered
// into [d/2, d], capped at 32x the base, and disabled by a zero base.
func TestBackoffDelay(t *testing.T) {
	if d := backoffDelay(0, 5, 1); d != 0 {
		t.Errorf("zero base: delay = %v, want 0", d)
	}
	if a, b := backoffDelay(100*time.Millisecond, 3, 42), backoffDelay(100*time.Millisecond, 3, 42); a != b {
		t.Errorf("same inputs gave different delays: %v vs %v", a, b)
	}
	for n := 0; n < 9; n++ {
		for seed := uint64(0); seed < 16; seed++ {
			base, max := 100*time.Millisecond, 3200*time.Millisecond
			full := base << n
			if full > max {
				full = max
			}
			d := backoffDelay(base, n, seed)
			if d < full/2 || d > full {
				t.Fatalf("n=%d seed=%d: delay %v outside [%v, %v]", n, seed, d, full/2, full)
			}
		}
	}
}

// TestExecSIGTERMGrace: canceling a subprocess attempt sends SIGTERM (not
// an instant SIGKILL) so the worker runs its signal-clean teardown within
// the grace period before exiting.
func TestExecSIGTERMGrace(t *testing.T) {
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("no sh on PATH")
	}
	dir := t.TempDir()
	script := filepath.Join(dir, "worker.sh")
	started := filepath.Join(dir, "started")
	marker := filepath.Join(dir, "teardown")
	if err := os.WriteFile(script, []byte(`#!/bin/sh
trap 'echo clean > "`+marker+`"; exit 130' TERM
: > "`+started+`"
sleep 10 &
wait $!
`), 0o755); err != nil {
		t.Fatal(err)
	}
	task := ShardTask{
		Spec:    Spec{Shard: Shard{Index: 0, Count: 1}, Output: Output{Path: filepath.Join(dir, "o.jsonl")}},
		Attempt: 1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- (&Pool{Workers: []Worker{{Command: []string{script}}}}).Launch(ctx, task)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(started); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled worker never reaped")
	}
	if _, err := os.Stat(marker); err != nil {
		t.Errorf("worker was killed without running its TERM teardown: %v", err)
	}
}

// TestExecStderrTail: a failing worker's last stderr lines ride the
// returned error, so the manifest's post-mortem says why, not just the
// exit code.
func TestExecStderrTail(t *testing.T) {
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("no sh on PATH")
	}
	dir := t.TempDir()
	script := filepath.Join(dir, "worker.sh")
	if err := os.WriteFile(script, []byte(`#!/bin/sh
echo "boom: disk on fire" >&2
exit 3
`), 0o755); err != nil {
		t.Fatal(err)
	}
	task := ShardTask{Spec: Spec{Shard: Shard{Index: 0, Count: 1}}, Attempt: 2}
	err := (&Pool{Workers: []Worker{{Command: []string{script}}}}).Launch(context.Background(), task)
	if err == nil {
		t.Fatal("exit 3 must surface as an error")
	}
	for _, want := range []string{"boom: disk on fire", "exit status 3", "attempt 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err %q does not mention %q", err, want)
		}
	}
}

// TestTailBuffer: the stderr ring keeps exactly the last max bytes.
func TestTailBuffer(t *testing.T) {
	tb := &tailBuffer{max: 8}
	tb.Write([]byte("abc"))
	if got := tb.tail(); got != "abc" {
		t.Errorf("tail = %q, want abc", got)
	}
	tb.Write([]byte("defghij")) // 10 total, keep last 8
	if got := tb.tail(); got != "...cdefghij" {
		t.Errorf("tail = %q, want ...cdefghij", got)
	}
	tb2 := &tailBuffer{max: 4}
	tb2.Write([]byte("this is far longer than the ring"))
	if got := tb2.tail(); got != "...ring" {
		t.Errorf("tail = %q, want ...ring", got)
	}
}
