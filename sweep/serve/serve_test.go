package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivliw/sweep"
)

// testSpec is a tiny one-point sweep over one synthetic benchmark —
// distinct in (name, seed), cheap enough that tests run it many times.
func testSpec(name string, seed uint64) sweep.Spec {
	return sweep.Spec{
		Grid: sweep.Grid{Clusters: []int{2}},
		Workloads: sweep.Workloads{Synth: []sweep.SynthSpec{{
			Name: name, Seed: seed, Kernels: 1, Iters: 64, FootprintBytes: 2048,
		}}},
		Compile: sweep.Compile{Heuristic: "IPBC", Unroll: "none"},
	}
}

func encode(t *testing.T, s sweep.Spec) []byte {
	t.Helper()
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// directRows runs the spec unsharded through sweep.Run and returns the
// committed output bytes — the byte-identity reference for served rows.
func directRows(t *testing.T, s sweep.Spec) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "direct.jsonl")
	s.Output = sweep.Output{Path: out}
	if _, err := sweep.Run(context.Background(), s, nil); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// countingLauncher wraps InProcess, counting launches and optionally
// holding every launch at a gate until it is closed.
type countingLauncher struct {
	launches atomic.Int64
	gate     chan struct{} // nil = never block
}

func (c *countingLauncher) Launch(ctx context.Context, task sweep.ShardTask) error {
	c.launches.Add(1)
	if c.gate != nil {
		select {
		case <-c.gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return sweep.InProcess{}.Launch(ctx, task)
}

// startServer builds a Server over its own temp dir, runs it, and returns
// it with a client; cleanup cancels Run and waits for the drain.
func startServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Log == nil {
		opts.Log = t.Logf
	}
	srv, err := New(opts)
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
	return srv, &Client{Base: hs.URL, HTTP: hs.Client()}
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, c *Client, job, want string) StatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Status(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (want %s): %s", job, st.State, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSingleFlight is the headline dedup property: N concurrent identical
// submissions execute exactly once. The launcher gate holds the one
// execution open until every submission has been answered, so no
// submission can sneak in after completion (that is the cached path,
// tested separately).
func TestSingleFlight(t *testing.T) {
	launcher := &countingLauncher{gate: make(chan struct{})}
	_, c := startServer(t, Options{Launcher: launcher})
	spec := encode(t, testSpec("sf", 1))

	const n = 16
	var wg sync.WaitGroup
	subs := make([]SubmitResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			subs[i], errs[i] = c.Submit(context.Background(), spec)
		}(i)
	}
	wg.Wait()
	close(launcher.gate)

	var created, attached int
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if subs[i].Job != subs[0].Job {
			t.Fatalf("submission %d got job %s, want %s (identical specs must share a job)",
				i, subs[i].Job, subs[0].Job)
		}
		if subs[i].Cached {
			t.Fatalf("submission %d reported cached while the execution was still gated", i)
		}
		if subs[i].Dedup {
			attached++
		} else {
			created++
		}
	}
	if created != 1 || attached != n-1 {
		t.Fatalf("created=%d attached=%d, want 1 and %d", created, attached, n-1)
	}
	waitState(t, c, subs[0].Job, StateDone)
	if got := launcher.launches.Load(); got != 1 {
		t.Fatalf("%d concurrent identical submissions launched %d times, want exactly 1", n, got)
	}
}

// TestResubmitServedFromStore: a duplicate of a completed job is a cache
// hit — zero new executions — and the served rows are byte-identical to
// the unsharded CLI run of the same spec.
func TestResubmitServedFromStore(t *testing.T) {
	launcher := &countingLauncher{}
	_, c := startServer(t, Options{Launcher: launcher})
	spec := testSpec("cached", 2)
	body := encode(t, spec)

	sub, err := c.Submit(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Dedup || sub.Cached {
		t.Fatalf("first submission reported dedup=%t cached=%t", sub.Dedup, sub.Cached)
	}
	st := waitState(t, c, sub.Job, StateDone)
	launchesAfterFirst := launcher.launches.Load()

	re, err := c.Submit(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Dedup || !re.Cached || re.State != StateDone || re.Job != sub.Job {
		t.Fatalf("resubmission = %+v, want dedup+cached done job %s", re, sub.Job)
	}
	if got := launcher.launches.Load(); got != launchesAfterFirst {
		t.Fatalf("resubmission launched: %d -> %d launches", launchesAfterFirst, got)
	}

	var served bytes.Buffer
	if _, err := c.Rows(context.Background(), sub.Job, &served); err != nil {
		t.Fatal(err)
	}
	want := directRows(t, spec)
	if !bytes.Equal(served.Bytes(), want) {
		t.Fatalf("served rows differ from the direct CLI run (%d vs %d bytes)",
			served.Len(), len(want))
	}
	if st.Rows == 0 || !strings.Contains(served.String(), "\n") {
		t.Fatalf("suspicious result: %d rows, %d bytes", st.Rows, served.Len())
	}

	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.DedupCached != 1 || stats.Executions != 1 {
		t.Fatalf("stats = %+v, want dedup_cached 1 and executions 1", stats)
	}
}

// TestDrainAndResume: cancel mid-job (the SIGTERM path), check the job is
// persisted back to queued, then restart a daemon over the same directory
// and check it resumes the coordinator manifest — the completed shard is
// not re-run — and commits rows byte-identical to the direct run.
func TestDrainAndResume(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("resume", 3)
	// Two grid points on two compile keys, so the two workers get one
	// task each and the blocking launcher is reached for task 1.
	spec.Grid.Clusters = []int{2, 4}
	body := encode(t, spec)

	// Shard 1 blocks until shutdown; shard 0 completes and lands in the
	// coordinator manifest. launched tells the test shard 1 is in flight.
	launched := make(chan struct{}, 1)
	blocking := sweep.LaunchFunc(func(ctx context.Context, task sweep.ShardTask) error {
		if task.Index == 1 {
			launched <- struct{}{}
			<-ctx.Done()
			return ctx.Err()
		}
		return sweep.InProcess{}.Launch(ctx, task)
	})
	srv, err := New(Options{Dir: dir, Shards: 2, Launcher: blocking, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		srv.Run(ctx)
	}()
	hs := httptest.NewServer(srv)
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	sub, err := c.Submit(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel only once the coordinator has recorded shard 0 done: a
	// launch returning is not yet a committed manifest entry, and a shard
	// cancelled before its entry lands is rightly relaunched on resume.
	<-launched
	waitShardDone(t, filepath.Join(dir, "jobs", sub.Job, coordDirName, "manifest.json"), 0)
	cancel()
	<-runDone
	hs.Close()

	// The drained daemon must have persisted the job back to queued.
	var jf jobFile
	data, err := os.ReadFile(filepath.Join(dir, "jobs", sub.Job, jobFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &jf); err != nil {
		t.Fatal(err)
	}
	if jf.State != StateQueued {
		t.Fatalf("after drain the job is %q on disk, want queued", jf.State)
	}

	// A fresh daemon over the same dir resumes: shard 0 comes from the
	// manifest, only shard 1 is launched.
	var relaunches atomic.Int64
	counting := sweep.LaunchFunc(func(ctx context.Context, task sweep.ShardTask) error {
		relaunches.Add(1)
		if task.Index == 0 {
			t.Error("shard 0 relaunched; the manifest resume should have kept it")
		}
		return sweep.InProcess{}.Launch(ctx, task)
	})
	_, c2 := startServer(t, Options{Dir: dir, Shards: 2, Launcher: counting})
	st := waitState(t, c2, sub.Job, StateDone)
	if st.Stats == nil || st.Stats.Resumed != 1 {
		t.Fatalf("restart stats = %+v, want 1 resumed shard", st.Stats)
	}
	if got := relaunches.Load(); got != 1 {
		t.Fatalf("restart launched %d shards, want 1 (the interrupted one)", got)
	}

	var served bytes.Buffer
	if _, err := c2.Rows(context.Background(), sub.Job, &served); err != nil {
		t.Fatal(err)
	}
	if want := directRows(t, spec); !bytes.Equal(served.Bytes(), want) {
		t.Fatalf("resumed rows differ from the direct run (%d vs %d bytes)", served.Len(), len(want))
	}
}

// waitShardDone polls a coordinator manifest until it records shard index
// as done.
func waitShardDone(t *testing.T, manifestPath string, index int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var m struct {
			Shards []struct {
				Index  int    `json:"index"`
				Status string `json:"status"`
			} `json:"shards"`
		}
		// The manifest is replaced by rename, so a read sees either the
		// old or the new file; a missing file means the coordinator has
		// not opened it yet.
		if data, err := os.ReadFile(manifestPath); err == nil {
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			for _, sh := range m.Shards {
				if sh.Index == index && sh.Status == "done" {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d never recorded done in %s", index, manifestPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOutputPathCollision: two different specs declaring one Output.Path
// are rejected at the submission edge; the same spec resubmitted with its
// path is fine (same job), and a path-less spec never collides.
func TestOutputPathCollision(t *testing.T) {
	launcher := &countingLauncher{gate: make(chan struct{})}
	defer close(launcher.gate)
	_, c := startServer(t, Options{Launcher: launcher})

	a := testSpec("col-a", 4)
	a.Output = sweep.Output{Path: "shared.jsonl"}
	b := testSpec("col-b", 5)
	b.Output = sweep.Output{Path: "shared.jsonl"}

	if _, err := c.Submit(context.Background(), encode(t, a)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(context.Background(), encode(t, b))
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusConflict {
		t.Fatalf("colliding output path: got %v, want a 409", err)
	}
	// Identical spec, identical path: dedup, not collision.
	re, err := c.Submit(context.Background(), encode(t, a))
	if err != nil || !re.Dedup {
		t.Fatalf("resubmission of the declaring spec: %+v, %v", re, err)
	}
	// Distinct specs without declared outputs coexist.
	nb := testSpec("col-b", 5)
	if _, err := c.Submit(context.Background(), encode(t, nb)); err != nil {
		t.Fatalf("path-less distinct spec rejected: %v", err)
	}
}

// TestQueueFullBackpressure: a full bounded queue answers 503 with a
// Retry-After hint instead of buffering without bound, and the rejected
// spec can be resubmitted successfully once the queue drains.
func TestQueueFullBackpressure(t *testing.T) {
	launcher := &countingLauncher{gate: make(chan struct{})}
	_, c := startServer(t, Options{Executors: 1, Queue: 1, Launcher: launcher})

	// First job occupies the lone executor...
	subA, err := c.Submit(context.Background(), encode(t, testSpec("bp-a", 6)))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, subA.Job, StateRunning)
	// ...second fills the queue...
	subB, err := c.Submit(context.Background(), encode(t, testSpec("bp-b", 7)))
	if err != nil {
		t.Fatal(err)
	}
	// ...third bounces.
	_, err = c.Submit(context.Background(), encode(t, testSpec("bp-c", 8)))
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusServiceUnavailable || !apiErr.Retryable() {
		t.Fatalf("overflow submission: got %v, want a retryable 503", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("503 without a Retry-After hint: %+v", apiErr)
	}
	// The bounced job left no residue: once the queue drains it submits
	// cleanly as a brand-new job.
	close(launcher.gate)
	waitState(t, c, subA.Job, StateDone)
	waitState(t, c, subB.Job, StateDone)
	sub, err := c.Submit(context.Background(), encode(t, testSpec("bp-c", 8)))
	if err != nil {
		t.Fatalf("resubmission after drain: %v", err)
	}
	if sub.Dedup {
		t.Fatalf("resubmission after a 503 reported dedup; the rejected attempt should have left no job")
	}
	waitState(t, c, sub.Job, StateDone)
}

// TestSubmitValidation covers the 4xx edges of the submission endpoint.
func TestSubmitValidation(t *testing.T) {
	_, c := startServer(t, Options{MaxBody: 4096})
	ctx := context.Background()

	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed JSON", `{"grid":`, http.StatusBadRequest},
		{"unknown field", `{"grdi": {}}`, http.StatusBadRequest},
		{"no workloads", `{"grid": {"clusters": [2]}}`, http.StatusBadRequest},
		{"too many synthetic loops", `{"workloads": {"synth_count": 1000000}}`, http.StatusBadRequest},
		{"synthetic depth past the limit", `{"workloads": {"synth": [{"Name": "d", "DepthMax": 65}]}}`, http.StatusBadRequest},
		{"synthetic iters past the limit", `{"workloads": {"synth": [{"Name": "i", "Iters": 1025}]}}`, http.StatusBadRequest},
		{"synthetic footprint past the limit", `{"workloads": {"synth": [{"Name": "f", "FootprintBytes": 262145}]}}`, http.StatusBadRequest},
		{"grid rows past the limit", `{"grid": {"clusters": [1,2,3,4,5,6,7,8,9,10], "interleave": [1,2,3,4,5,6,7,8,9,10],
			"assoc": [1,2,3,4,5,6,7,8,9,10], "mshrs": [1,2,3,4,5,6,7,8,9,10]}, "workloads": {"bench": ["gsmdec"]}}`, http.StatusBadRequest},
		{"cache_bytes of 2^40", `{"grid": {"cache_bytes": [1099511627776]}, "workloads": {"bench": ["gsmdec"]}}`, http.StatusBadRequest},
		{"ab_entries of 2^40", `{"grid": {"ab_entries": [1099511627776]}, "workloads": {"bench": ["gsmdec"]}}`, http.StatusBadRequest},
		{"pinned shard", string(encode(t, func() sweep.Spec {
			s := testSpec("pin", 9)
			s.Shard = sweep.Shard{Index: 0, Count: 2}
			return s
		}())), http.StatusBadRequest},
		{"oversized body", `{"pad": "` + strings.Repeat("x", 8192) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		_, err := c.Submit(ctx, []byte(tc.body))
		apiErr, ok := err.(*APIError)
		if !ok || apiErr.Status != tc.code {
			t.Errorf("%s: got %v, want HTTP %d", tc.name, err, tc.code)
		}
	}

	// Each grid bound on the wire: a value at the limit is queued (on a
	// server whose launcher never starts a job), one past it is a 400.
	_, queued := startServer(t, Options{Launcher: &countingLauncher{gate: make(chan struct{})}})
	for _, b := range []struct {
		grid  string
		limit int
	}{
		{`"clusters": [%d]`, 64}, {`"interleave": [%d]`, 64}, {`"cache_bytes": [%d]`, 1 << 20},
		{`"assoc": [%d]`, 64}, {`"ab_entries": [%d]`, 256}, {`"bus_cycle_ratio": [%d]`, 16},
		{`"next_level_latency": [%d]`, 100}, {`"fus": [[1, %d, 1]]`, 16}, {`"reg_buses": [%d]`, 16},
		{`"mshrs": [%d]`, 64}, {`"ab_entries": [16], "ab_hint_k": [%d]`, 256},
	} {
		body := func(v int) []byte {
			return []byte(`{"grid": {` + fmt.Sprintf(b.grid, v) + `}, "workloads": {"bench": ["gsmdec"]}}`)
		}
		if _, err := queued.Submit(ctx, body(b.limit)); err != nil {
			t.Errorf("%s at the limit: %v", fmt.Sprintf(b.grid, b.limit), err)
		}
		_, err := queued.Submit(ctx, body(b.limit+1))
		if apiErr, ok := err.(*APIError); !ok || apiErr.Status != http.StatusBadRequest {
			t.Errorf("%s past the limit: got %v, want HTTP 400", fmt.Sprintf(b.grid, b.limit+1), err)
		}
	}

	if _, err := c.Status(ctx, "nonexistent"); func() bool {
		apiErr, ok := err.(*APIError)
		return !ok || apiErr.Status != http.StatusNotFound
	}() {
		t.Errorf("unknown job status: got %v, want a 404", err)
	}
	var sink bytes.Buffer
	if _, err := c.Rows(ctx, "nonexistent", &sink); func() bool {
		apiErr, ok := err.(*APIError)
		return !ok || apiErr.Status != http.StatusNotFound
	}() {
		t.Errorf("unknown job rows: got %v, want a 404", err)
	}
}

// TestRowsBeforeDone: streaming a job that has not committed is a 409,
// not an empty 200.
func TestRowsBeforeDone(t *testing.T) {
	launcher := &countingLauncher{gate: make(chan struct{})}
	_, c := startServer(t, Options{Launcher: launcher})
	sub, err := c.Submit(context.Background(), encode(t, testSpec("early", 10)))
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	_, err = c.Rows(context.Background(), sub.Job, &sink)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusConflict {
		t.Fatalf("rows before done: got %v, want a 409", err)
	}
	close(launcher.gate)
	waitState(t, c, sub.Job, StateDone)
	if _, err := c.Rows(context.Background(), sub.Job, &sink); err != nil {
		t.Fatalf("rows after done: %v", err)
	}
}

// TestFailedJobResubmitRetries: a failed job is requeued by resubmitting
// its spec, and succeeds when the fault clears.
func TestFailedJobResubmitRetries(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	flaky := sweep.LaunchFunc(func(ctx context.Context, task sweep.ShardTask) error {
		if fail.Load() {
			return fmt.Errorf("injected fault")
		}
		return sweep.InProcess{}.Launch(ctx, task)
	})
	_, c := startServer(t, Options{Launcher: flaky, MaxAttempts: 1})

	body := encode(t, testSpec("flaky", 11))
	sub, err := c.Submit(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, c, sub.Job, StateFailed)
	if st.Error == "" {
		t.Fatal("failed job carries no error message")
	}

	fail.Store(false)
	re, err := c.Submit(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	if re.Job != sub.Job || re.State != StateQueued {
		t.Fatalf("resubmission of a failed job = %+v, want the same job requeued", re)
	}
	waitState(t, c, sub.Job, StateDone)
}

// TestStatusCarriesAttempts: once a job has run, its status surfaces the
// coordinator manifest (shard states and attempt history) verbatim.
func TestStatusCarriesAttempts(t *testing.T) {
	_, c := startServer(t, Options{Shards: 2})
	spec := testSpec("att", 12)
	spec.Grid.Clusters = []int{2, 4} // one row per shard
	sub, err := c.Submit(context.Background(), encode(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, c, sub.Job, StateDone)
	if len(st.Attempts) == 0 {
		t.Fatal("done job status carries no attempt manifest")
	}
	var m struct {
		Shards []struct {
			Status string `json:"status"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(st.Attempts, &m); err != nil {
		t.Fatalf("attempts is not the coordinator manifest: %v", err)
	}
	if len(m.Shards) != 2 {
		t.Fatalf("manifest records %d shards, want 2", len(m.Shards))
	}
	for i, sh := range m.Shards {
		if sh.Status != "done" {
			t.Errorf("shard %d status %q, want done", i, sh.Status)
		}
	}
	if st.Stats == nil || st.Stats.Shards != 2 || st.Stats.Rows != st.Rows {
		t.Fatalf("stats = %+v, rows = %d: stats and row count disagree", st.Stats, st.Rows)
	}
}
