package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ivliw/sweep"
)

// post sends body to POST /v1/jobs through the handler, with no socket.
func post(s *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	return rec
}

// get sends GET path through the handler, with no socket.
func get(s *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// submitted decodes a 2xx submission answer.
func submitted(t testing.TB, rec *httptest.ResponseRecorder) SubmitResponse {
	t.Helper()
	var sub SubmitResponse
	if err := decodeStrict(rec.Body.Bytes(), &sub); err != nil {
		t.Fatalf("submission answered %d %q: %v", rec.Code, rec.Body.String(), err)
	}
	return sub
}

// stateServer returns a server whose Run never starts, holding one job for
// spec in the given state. Submission answers depend only on the state, so
// done and failed are reached by transition rather than by executing.
func stateServer(t *testing.T, spec sweep.Spec, state string) *Server {
	t.Helper()
	srv, err := New(Options{Dir: t.TempDir(), Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rec := post(srv, encode(t, spec))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("creating the job: %d %s", rec.Code, rec.Body.String())
	}
	j := srv.lookup(submitted(t, rec).Job)
	if state != StateQueued {
		<-srv.queue // as an executor would have taken it
	}
	switch state {
	case StateQueued:
	case StateRunning:
		err = j.transition(StateRunning, nil)
	case StateDone:
		err = j.transition(StateDone, func(j *job) {
			j.rows, j.stats = 1, &JobStats{Shards: 1, Launches: 1, Rows: 1}
		})
	case StateFailed:
		err = j.transition(StateFailed, func(j *job) { j.err = "injected fault" })
	}
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// sameAnswer fails unless the two recorded answers and the two servers'
// counters are identical.
func sameAnswer(t *testing.T, what string, a, b *httptest.ResponseRecorder, sa, sb *Server) {
	t.Helper()
	if a.Code != b.Code || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Errorf("%s: answered %d %q, the full path %d %q", what, a.Code, a.Body.String(), b.Code, b.Body.String())
	}
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if a.Header().Get(h) != b.Header().Get(h) {
			t.Errorf("%s: %s %q, the full path %q", what, h, a.Header().Get(h), b.Header().Get(h))
		}
	}
	if x, y := sa.Stats(), sb.Stats(); x != y {
		t.Errorf("%s: counters %+v, the full path %+v", what, x, y)
	}
}

// TestSubmitFastPathMatchesFullPath: a body that is a known job's canonical
// encoding skips parsing, validation and hashing, and must still get the
// full path's answer. The full path's answer to a body is taken from its
// twin with one trailing space: ParseSpec ignores the space, but the twin's
// digest is no job ID, so it always takes the full path. Each (state, body)
// pair runs on two fresh servers holding the same job in the same state.
func TestSubmitFastPathMatchesFullPath(t *testing.T) {
	spec := testSpec("fast", 21)
	canonical := encode(t, spec)
	reindented, err := json.MarshalIndent(spec, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	with := func(mut func(*sweep.Spec)) []byte {
		s := testSpec("fast", 21)
		mut(&s)
		return encode(t, s)
	}
	bodies := []struct {
		name string
		body []byte
	}{
		{"canonical", canonical},
		{"reindented", reindented},
		{"workers", with(func(s *sweep.Spec) { s.Workers = 3 })},
		{"store.dir", with(func(s *sweep.Spec) { s.Store.Dir = "store" })},
		{"output.path", with(func(s *sweep.Spec) { s.Output.Path = "rows.jsonl" })},
		{"shard", with(func(s *sweep.Spec) { s.Shard = sweep.Shard{Index: 1, Count: 2} })},
		{"trailing", append(append([]byte{}, canonical...), "{}"...)},
		{"unknown field", bytes.Replace(canonical, []byte("{\n"), []byte("{\n  \"grdi\": {},\n"), 1)},
	}
	for _, state := range []string{StateDone, StateQueued, StateRunning, StateFailed} {
		for _, b := range bodies {
			fast, full := stateServer(t, spec, state), stateServer(t, spec, state)
			a := post(fast, b.body)
			twin := post(full, append(append([]byte{}, b.body...), ' '))
			sameAnswer(t, state+" job, "+b.name+" body", a, twin, fast, full)
		}
	}

	// The answers themselves: a canonical duplicate of a done job is a
	// cached dedup hit, and of a failed job a requeue.
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	done := stateServer(t, spec, StateDone)
	if sub := submitted(t, post(done, canonical)); sub != (SubmitResponse{Job: hash, State: StateDone, Dedup: true, Cached: true}) {
		t.Errorf("canonical duplicate of a done job = %+v, want a cached dedup hit", sub)
	}
	failed := stateServer(t, spec, StateFailed)
	rec := post(failed, canonical)
	if rec.Code != http.StatusAccepted || submitted(t, rec) != (SubmitResponse{Job: hash, State: StateQueued}) {
		t.Errorf("canonical resubmission of a failed job = %d %s, want 202 requeued", rec.Code, rec.Body.String())
	}
	if st := failed.Stats(); st.Queued != 1 || st.Failed != 0 {
		t.Errorf("after the requeue: %+v, want the job queued", st)
	}

	// A draining server still dedups a done job's canonical body and turns
	// away new work and requeues alike.
	drained := func(state string) *Server {
		srv := stateServer(t, spec, state)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		srv.Run(ctx)
		return srv
	}
	for _, state := range []string{StateDone, StateFailed} {
		fast, full := drained(state), drained(state)
		sameAnswer(t, "draining, "+state+" job, canonical body", post(fast, canonical), post(full, append(append([]byte{}, canonical...), ' ')), fast, full)
	}
	srv := drained(StateDone)
	if sub := submitted(t, post(srv, canonical)); !sub.Cached {
		t.Errorf("draining server: canonical duplicate of a done job = %+v, want a cached dedup hit", sub)
	}
	if rec := post(srv, encode(t, testSpec("new", 22))); rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("draining server: new work answered %d (Retry-After %q), want 503 with a hint", rec.Code, rec.Header().Get("Retry-After"))
	}
}

// TestSubmitRecoveredInvalidSpec: a recovered job whose stored spec no
// longer validates (the build changed under it) is not answered from the
// table — its canonical body gets the full path's 400, as before.
func TestSubmitRecoveredInvalidSpec(t *testing.T) {
	spec := testSpec("stale", 23)
	spec.Workloads = sweep.Workloads{Bench: []string{"retired-benchmark"}}
	if spec.Validate() == nil {
		t.Fatal("the stored spec validates; the test needs one that does not")
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	body := encode(t, spec)
	newServer := func() *Server {
		dir := t.TempDir()
		jobDir := filepath.Join(dir, "jobs", hash)
		rec, err := json.Marshal(jobFile{Hash: hash, State: StateDone, Rows: 1, SubmittedNS: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(jobDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{specFileName: body, jobFileName: rec, resultFileName: []byte("{}\n")} {
			if err := os.WriteFile(filepath.Join(jobDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := New(Options{Dir: dir, Log: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		j := srv.lookup(hash)
		if j == nil {
			t.Fatal("the hand-written job was not recovered")
		}
		if state, _, _, _ := j.snapshot(); state != StateDone {
			t.Fatalf("the hand-written job was recovered %s, want done", state)
		}
		return srv
	}
	fast, full := newServer(), newServer()
	a := post(fast, body)
	sameAnswer(t, "recovered job with an invalid spec", a, post(full, append(append([]byte{}, body...), ' ')), fast, full)
	if a.Code != http.StatusBadRequest {
		t.Errorf("canonical body of an invalid recovered job answered %d %s, want 400", a.Code, a.Body.String())
	}
}

// pollUntil polls GET /v1/jobs/{job} through the handler until the job
// reports the wanted state.
func pollUntil(t *testing.T, s *Server, job, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := get(s, "/v1/jobs/"+job)
		var st StatusResponse
		if err := decodeStrict(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("status answered %d %q: %v", rec.Code, rec.Body.String(), err)
		}
		if st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (want %s)", job, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// finish waits until j is done or failed and returns that state.
func finish(tb testing.TB, j *job) string {
	tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		state, _, _, _ := j.snapshot()
		if state == StateDone || state == StateFailed {
			return state
		}
		if time.Now().After(deadline) {
			tb.Fatalf("job %s stuck in %s", shortHash(j.hash), state)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDoneStatusRenderedOnce: a done job's status is rendered on its first
// poll and sent unchanged afterwards; queued and running jobs are rendered
// on every poll, so each state shows before done.
func TestDoneStatusRenderedOnce(t *testing.T) {
	launcher := &countingLauncher{gate: make(chan struct{})}
	srv, err := New(Options{Dir: t.TempDir(), Shards: 2, Launcher: launcher, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("once", 24)
	spec.Grid.Clusters = []int{2, 4} // one row per shard
	job := submitted(t, post(srv, encode(t, spec))).Job
	j := srv.lookup(job)

	// Run has not started: the job is queued, and a queued answer is
	// never kept.
	pollUntil(t, srv, job, StateQueued)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		srv.Run(ctx)
	}()
	defer func() {
		cancel()
		<-runDone
	}()
	// The gated launcher holds the job running.
	pollUntil(t, srv, job, StateRunning)
	j.mu.Lock()
	kept := j.doneStatus
	j.mu.Unlock()
	if kept != nil {
		t.Fatal("a running job's status was kept")
	}
	close(launcher.gate)
	if state := finish(t, j); state != StateDone {
		t.Fatalf("job ended %s", state)
	}

	// The first polls after done race to render; every one must get the
	// same bytes.
	const polls = 8
	bodies := make([][]byte, polls)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = get(srv, "/v1/jobs/"+job).Body.Bytes()
		}()
	}
	wg.Wait()
	first := bodies[0]
	for i, b := range bodies {
		if !bytes.Equal(b, first) {
			t.Fatalf("concurrent poll %d differs:\n%s\nvs\n%s", i, b, first)
		}
	}
	j.mu.Lock()
	kept = j.doneStatus
	j.mu.Unlock()
	if !bytes.Equal(kept, first) {
		t.Fatalf("the kept answer differs from the one sent:\n%s\nvs\n%s", kept, first)
	}
	fresh := httptest.NewRecorder()
	srv.writeJSON(fresh, http.StatusOK, srv.status(j, true))
	if !bytes.Equal(fresh.Body.Bytes(), first) {
		t.Fatalf("the kept answer differs from a fresh render:\n%s\nvs\n%s", first, fresh.Body.Bytes())
	}
	var st StatusResponse
	if err := decodeStrict(first, &st); err != nil || len(st.Attempts) == 0 || st.Stats == nil {
		t.Fatalf("done status %s lacks attempts or stats (%v)", first, err)
	}

	// Later polls send the kept bytes: removing the manifest changes a
	// fresh render but not the answer.
	if err := os.Remove(j.manifestPath()); err != nil {
		t.Fatal(err)
	}
	if again := get(srv, "/v1/jobs/"+job).Body.Bytes(); !bytes.Equal(again, first) {
		t.Fatalf("poll after the manifest was removed:\n%s\nwant the kept\n%s", again, first)
	}
	fresh = httptest.NewRecorder()
	srv.writeJSON(fresh, http.StatusOK, srv.status(j, true))
	if bytes.Equal(fresh.Body.Bytes(), first) {
		t.Fatal("removing the manifest did not change a fresh render; the check above proves nothing")
	}
}

// BenchmarkDuplicateSubmission times the served replay's common case: a
// canonical duplicate of a done job, submitted and then polled once,
// through the handler with no socket.
func BenchmarkDuplicateSubmission(b *testing.B) {
	srv, err := New(Options{Dir: b.TempDir(), Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		srv.Run(ctx)
	}()
	defer func() {
		cancel()
		<-runDone
	}()
	spec := testSpec("bench", 25)
	spec.Grid.ABEntries = []int{0, 16}
	body, err := spec.Encode()
	if err != nil {
		b.Fatal(err)
	}
	job := submitted(b, post(srv, body)).Job
	if state := finish(b, srv.lookup(job)); state != StateDone {
		b.Fatalf("the benchmark job ended %s", state)
	}
	status := "/v1/jobs/" + job
	b.ReportAllocs()
	for b.Loop() {
		if rec := post(srv, body); rec.Code != http.StatusOK {
			b.Fatalf("duplicate answered %d", rec.Code)
		}
		if rec := get(srv, status); rec.Code != http.StatusOK {
			b.Fatalf("status answered %d", rec.Code)
		}
	}
}

// FuzzSubmitBody POSTs each input to a fresh server whose Run never
// starts, so nothing executes: no input panics the handler, the status is
// one the API documents, a 2xx answer names the parsed spec's hash, and the
// same body again is a dedup hit on the same job.
func FuzzSubmitBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, parseErr := sweep.ParseSpec(body)
		srv, err := New(Options{Dir: t.TempDir(), MaxBody: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		rec := post(srv, body)
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusConflict, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("answered %d %s", rec.Code, rec.Body.String())
		}
		if rec.Code/100 != 2 {
			return
		}
		if parseErr != nil {
			t.Fatalf("accepted a body ParseSpec rejects (%v): %s", parseErr, rec.Body.String())
		}
		hash, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		sub := submitted(t, rec)
		if sub.Job != hash {
			t.Fatalf("answered job %s, want the spec's hash %s", sub.Job, hash)
		}
		again := post(srv, body)
		if again.Code != http.StatusOK {
			t.Fatalf("the same body again answered %d %s, want 200", again.Code, again.Body.String())
		}
		if re := submitted(t, again); !re.Dedup || re.Job != sub.Job {
			t.Fatalf("the same body again = %+v, want a dedup hit on %s", re, sub.Job)
		}
	})
}
