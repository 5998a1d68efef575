// Package serve turns the sweep engine into a long-running service: an
// HTTP/JSON daemon that accepts sweep.Spec submissions, executes them
// through sweep.Coordinate, and makes two identical submissions cost one
// execution.
//
// Identity is semantic, not textual: a submission's job ID is its spec's
// semantic hash (sweep.Spec.Hash — the fingerprint over grid, workloads and
// compile options that per-process knobs never perturb), so clients can
// predict dedup keys offline (`ivliw-bench -spec-hash`) and the server
// single-flights at the job level the way pipeline.Cache single-flights at
// the artifact level: a concurrent duplicate submission attaches to the
// in-flight job, and a duplicate of a completed job is served from the
// durable results directory with zero executions.
//
// Every job owns one directory under <Dir>/jobs named by its hash: the
// canonical spec, an atomically rewritten state record, the committed
// result rows (temp+rename, byte-identical to the unsharded CLI run of the
// same spec), and the coordinator's own crash-safe work directory. A
// restarted daemon rebuilds its job table from those directories; jobs
// interrupted mid-run re-enter the queue and resume from the coordinator
// manifest instead of recomputing completed shards. Jobs share one
// content-addressed artifact store under <Dir>/artifacts, so distinct specs
// with overlapping compile keys still compile each artifact once.
//
// Duplicates are answered from the job table. A body whose sha256 is a known
// job ID is that job's canonical encoding, so it goes straight to the dedup
// answer without being parsed, validated or hashed; every other body takes
// the full path to the same answer. A done job's status is rendered once and
// the stored bytes are sent to every later poll: done is final in a running
// server, and an out-of-band edit of the job's coordinator manifest after
// that first poll is not reflected.
//
// The HTTP surface (all JSON; see Client for a typed wrapper):
//
//	POST /v1/jobs            submit a spec (strict-parsed, body-bounded);
//	                         202 for a new or requeued job, 200 for a
//	                         dedup hit, 409 for an output-path collision,
//	                         503 + Retry-After when the queue is full or
//	                         the server is draining
//	GET  /v1/jobs            list jobs
//	GET  /v1/jobs/{job}      job status: state, rows, coordinator stats,
//	                         per-shard attempt history from the manifest
//	GET  /v1/jobs/{job}/rows stream the result rows as JSONL (done jobs)
//	GET  /v1/stats           server counters (also /v1/healthz)
//
// Shutdown is graceful by construction: cancel the context passed to Run
// (the daemon wires SIGTERM to it) and running jobs tear down through the
// sweep package's existing cancellation path — staged outputs are
// discarded, the coordinator manifest keeps its completed shards, and the
// jobs are persisted back to queued so the next daemon resumes them.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ivliw/internal/atomicio"
	"ivliw/sweep"
)

// Options configures a Server. Dir is required; every other field has a
// serviceable default.
type Options struct {
	// Dir is the durable service root: per-job directories live under
	// <Dir>/jobs and the shared artifact store under <Dir>/artifacts.
	// Reusing a Dir across daemon restarts is the resume path.
	Dir string
	// Executors bounds the number of jobs running concurrently (default 2).
	Executors int
	// Queue bounds the submission backlog beyond the running jobs; a full
	// queue rejects new work with 503 + Retry-After instead of buffering
	// without bound (default 64).
	Queue int
	// MaxBody bounds a submitted spec body in bytes (default 1 MiB).
	MaxBody int64
	// Shards is the coordinator worker count each job is executed with
	// (default 1, a single task). Any value produces byte-identical rows;
	// more workers let one job's cost-ordered chunks spread across the
	// launcher.
	Shards int
	// MaxAttempts caps launch attempts per shard (0 = the coordinator
	// default).
	MaxAttempts int
	// Launcher runs shard attempts (nil = sweep.InProcess). A sweep.Pool
	// of subprocess workers turns the daemon into a multi-process or
	// multi-host service.
	Launcher sweep.Launcher
	// Workers and SimBatch, when positive, override every job spec's
	// per-process throughput knobs — server policy, invisible to job
	// identity (both are excluded from the semantic hash).
	Workers  int
	SimBatch int
	// RetryAfter is the hint clients get with a 503 (default 1s).
	RetryAfter time.Duration
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
}

// ServerStats is the counter snapshot behind GET /v1/stats.
type ServerStats struct {
	Jobs    int `json:"jobs"`
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`

	Submissions   int64 `json:"submissions"`
	DedupAttached int64 `json:"dedup_attached"`
	DedupCached   int64 `json:"dedup_cached"`
	DedupHits     int64 `json:"dedup_hits"`
	Executions    int64 `json:"executions"`
	Rejected      int64 `json:"rejected"`

	Draining bool `json:"draining"`
}

// SubmitResponse answers POST /v1/jobs. Dedup reports that the submission
// matched an existing job (in-flight or completed); Cached additionally
// reports that the job was already done, so the rows are served from the
// results store with no execution at all.
type SubmitResponse struct {
	Job    string `json:"job"`
	State  string `json:"state"`
	Dedup  bool   `json:"dedup"`
	Cached bool   `json:"cached"`
}

// StatusResponse answers GET /v1/jobs/{job}. Attempts is the coordinator
// manifest verbatim (per-shard status, worker attribution and attempt
// history), present once the job has started executing.
type StatusResponse struct {
	Job      string          `json:"job"`
	State    string          `json:"state"`
	Error    string          `json:"error,omitempty"`
	Rows     int             `json:"rows"`
	Stats    *JobStats       `json:"stats,omitempty"`
	Attempts json.RawMessage `json:"attempts,omitempty"`
}

// ListResponse answers GET /v1/jobs, oldest submission first.
type ListResponse struct {
	Jobs []StatusResponse `json:"jobs"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Server is the sweep-as-a-service daemon core: an http.Handler for the
// API plus a Run loop that drains the job queue into sweep.Coordinate.
// Construct with New, serve the handler, and call Run with the process
// lifetime context.
type Server struct {
	opts         Options
	jobsDir      string
	artifactsDir string
	mux          *http.ServeMux

	mu      sync.Mutex
	jobs    map[string]*job
	outputs map[string]string // declared Output.Path -> owning job hash
	backlog []*job            // recovered queued jobs, fed to the queue by Run

	queue   chan *job
	drain   atomic.Bool
	started atomic.Bool

	submissions, dedupAttached, dedupCached atomic.Int64
	executions, rejected                    atomic.Int64
}

// New builds a Server over the durable root opts.Dir, creating the
// directory layout if missing and recovering any jobs a previous daemon
// left behind (see the package comment for the recovery rules).
func New(opts Options) (*Server, error) {
	if opts.Dir == "" {
		return nil, errors.New("serve: Options.Dir is required")
	}
	if opts.Executors <= 0 {
		opts.Executors = 2
	}
	if opts.Queue <= 0 {
		opts.Queue = 64
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = 1 << 20
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.Launcher == nil {
		opts.Launcher = sweep.InProcess{}
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	s := &Server{
		opts:         opts,
		jobsDir:      filepath.Join(opts.Dir, "jobs"),
		artifactsDir: filepath.Join(opts.Dir, "artifacts"),
		outputs:      make(map[string]string),
		queue:        make(chan *job, opts.Queue),
	}
	for _, dir := range []string{s.jobsDir, s.artifactsDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	jobs, backlog, err := recoverJobs(s.jobsDir, opts.Log)
	if err != nil {
		return nil, err
	}
	s.jobs, s.backlog = jobs, backlog
	for hash, j := range jobs {
		if j.output == "" {
			continue
		}
		if prev, ok := s.outputs[j.output]; ok {
			opts.Log("serve: recovered jobs %s and %s both declare output %q; keeping the first",
				shortHash(prev), shortHash(hash), j.output)
			continue
		}
		s.outputs[j.output] = hash
	}
	if len(jobs) > 0 {
		opts.Log("serve: recovered %d jobs from %s (%d requeued)", len(jobs), s.jobsDir, len(backlog))
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{job}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{job}/rows", s.handleRows)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleStats)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Run drains the job queue into sweep.Coordinate with Executors concurrent
// jobs until ctx is canceled, then drains gracefully: running jobs are torn
// down through the sweep package's cancellation path (their staged outputs
// discarded, their coordinator manifests intact) and persisted back to
// queued, and submissions that would enqueue new work are answered 503 with
// Retry-After. Run returns once every executor has stopped. It may be
// called once per Server.
func (s *Server) Run(ctx context.Context) error {
	if s.started.Swap(true) {
		return errors.New("serve: Run called twice")
	}
	// Recovered queued jobs re-enter the queue in submission order. The
	// feeder blocks when the backlog exceeds the queue bound — executors
	// drain it — and gives up at cancellation (the jobs stay queued on
	// disk for the next daemon).
	go func() {
		for _, j := range s.backlog {
			select {
			case s.queue <- j:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < s.opts.Executors; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case j := <-s.queue:
					s.execute(ctx, j)
				}
			}
		}()
	}
	<-ctx.Done()
	s.drain.Store(true)
	wg.Wait()
	return nil
}

// execute runs one job to a terminal state (or back to queued when the
// server is shutting down).
func (s *Server) execute(ctx context.Context, j *job) {
	if err := j.transition(StateRunning, nil); err != nil {
		s.opts.Log("serve: job %s: %v", shortHash(j.hash), err)
	}
	s.executions.Add(1)
	start := time.Now()
	st, err := sweep.Coordinate(ctx, s.runSpec(j), sweep.CoordinatorOptions{
		Shards:      s.opts.Shards,
		Launcher:    s.opts.Launcher,
		Dir:         filepath.Join(j.dir, coordDirName),
		MaxAttempts: s.opts.MaxAttempts,
		Log: func(format string, args ...any) {
			s.opts.Log("serve: job "+shortHash(j.hash)+": "+format, args...)
		},
	})
	wall := time.Since(start)
	switch {
	case err == nil:
		stats := &JobStats{
			Shards: st.Shards, Resumed: st.Resumed,
			Launches: st.Launches, Retries: st.Retries,
			Rows: st.Rows, WallMS: wall.Milliseconds(),
		}
		terr := j.transition(StateDone, func(j *job) {
			j.err, j.rows, j.stats = "", st.Rows, stats
		})
		if terr != nil {
			// The rows are committed but the durable record is not: fail the
			// job rather than serve a result a restart would forget.
			s.opts.Log("serve: job %s computed but not persisted: %v", shortHash(j.hash), terr)
			_ = j.transition(StateFailed, func(j *job) { j.err = terr.Error() })
			return
		}
		s.opts.Log("serve: job %s done: %d rows in %dms (%d launches, %d resumed)",
			shortHash(j.hash), st.Rows, wall.Milliseconds(), st.Launches, st.Resumed)
	case ctx.Err() != nil:
		// Shutdown, not failure: the coordinator already tore its attempts
		// down cleanly; the manifest keeps completed shards for the resume.
		if terr := j.transition(StateQueued, nil); terr != nil {
			s.opts.Log("serve: job %s: %v", shortHash(j.hash), terr)
		}
		s.opts.Log("serve: job %s interrupted by shutdown after %dms; requeued for resume",
			shortHash(j.hash), wall.Milliseconds())
	default:
		msg := err.Error()
		if terr := j.transition(StateFailed, func(j *job) { j.err = msg }); terr != nil {
			s.opts.Log("serve: job %s: %v", shortHash(j.hash), terr)
		}
		s.opts.Log("serve: job %s failed after %dms: %v", shortHash(j.hash), wall.Milliseconds(), err)
	}
}

// runSpec normalizes a submitted spec for execution: results land in the
// per-job directory (never at the client-declared Output.Path — see the
// collision check in handleSubmit), compilations resolve through the shared
// artifact store, sharding belongs to the coordinator, heartbeats to the
// launcher, and the server's throughput policy overrides the spec's. None
// of these fields participate in the semantic hash, so normalization never
// changes a job's identity.
func (s *Server) runSpec(j *job) sweep.Spec {
	run := j.spec
	run.Shard = sweep.Shard{}
	run.Output = sweep.Output{Path: j.resultPath()}
	run.Store.Dir = s.artifactsDir
	run.Heartbeat = sweep.Heartbeat{}
	if s.opts.Workers > 0 {
		run.Workers = s.opts.Workers
	}
	if s.opts.SimBatch > 0 {
		run.SimBatch = s.opts.SimBatch
	}
	return run
}

// handleSubmit implements POST /v1/jobs: strict-parse, validate, hash, then
// single-flight on the hash — attach to an existing job when one exists,
// otherwise persist a new job directory and enqueue it. A body that is a
// known job's canonical encoding skips straight to the single-flight step.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.submissions.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.httpError(w, http.StatusRequestEntityTooLarge,
				"spec body exceeds the %d-byte limit", mbe.Limit)
			return
		}
		s.httpError(w, http.StatusBadRequest, "reading spec body: %v", err)
		return
	}
	// A job ID is the sha256 of the canonical encoding of its spec with the
	// per-process fields cleared (sweep.Spec.Hash). A body with a known ID
	// as its digest is therefore, barring a sha256 collision, exactly that
	// encoding: it parses to a spec with no shard and no output path that
	// validates (when the job's own spec does) and hashes to this job, so
	// the full path below would reach the same dedup answer.
	sum := sha256.Sum256(body)
	var id [2 * sha256.Size]byte
	hex.Encode(id[:], sum[:])
	s.mu.Lock()
	if j, ok := s.jobs[string(id[:])]; ok && j.valid {
		s.dedupLocked(w, j)
		return
	}
	s.mu.Unlock()

	spec, err := sweep.ParseSpec(body)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.Shard != (sweep.Shard{}) {
		s.httpError(w, http.StatusBadRequest,
			"the server owns sharding; clear the spec's shard section")
		return
	}
	if err := spec.Validate(); err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hash, err := spec.Hash()
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	s.mu.Lock()
	if j, ok := s.jobs[hash]; ok {
		s.dedupLocked(w, j)
		return
	}
	if s.drain.Load() {
		s.rejectLocked(w)
		return
	}
	// The collision check (see job.output): results are stored per job, so
	// two specs can never overwrite each other on disk — but two *different*
	// specs declaring one Output.Path would have last-writer-won under plain
	// coordinator semantics, and that is almost always a client bug worth
	// rejecting loudly at the submission edge.
	if out := spec.Output.Path; out != "" {
		if prev, ok := s.outputs[out]; ok && prev != hash {
			s.mu.Unlock()
			s.httpError(w, http.StatusConflict,
				"output path %q is already declared by job %s; results are stored per job — drop output.path or make it distinct",
				out, prev)
			return
		}
	}
	j, err := s.createJob(hash, spec)
	if err != nil {
		s.mu.Unlock()
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	select {
	case s.queue <- j:
		s.jobs[hash] = j
		if j.output != "" {
			s.outputs[j.output] = hash
		}
		s.mu.Unlock()
		s.opts.Log("serve: job %s queued", shortHash(hash))
		s.writeJSON(w, http.StatusAccepted, SubmitResponse{Job: hash, State: StateQueued})
	default:
		os.RemoveAll(j.dir)
		s.rejectLocked(w)
	}
}

// dedupLocked answers a submission of job j's spec: a done job is served
// from the results store, a queued or running one is attached to, and a
// failed one is requeued. Callers hold s.mu; it is released here on every
// path.
func (s *Server) dedupLocked(w http.ResponseWriter, j *job) {
	state, _, _, _ := j.snapshot()
	switch state {
	case StateDone:
		s.dedupCached.Add(1)
		s.mu.Unlock()
		s.writeJSON(w, http.StatusOK, SubmitResponse{Job: j.hash, State: state, Dedup: true, Cached: true})
	case StateQueued, StateRunning:
		s.dedupAttached.Add(1)
		s.mu.Unlock()
		s.writeJSON(w, http.StatusOK, SubmitResponse{Job: j.hash, State: state, Dedup: true})
	default: // failed: resubmission is the retry path
		s.requeueLocked(w, j)
	}
}

// requeueLocked re-enqueues a failed job on resubmission. Callers hold s.mu;
// it is released here on every path.
func (s *Server) requeueLocked(w http.ResponseWriter, j *job) {
	if s.drain.Load() {
		s.rejectLocked(w)
		return
	}
	_, prevErr, _, _ := j.snapshot()
	if err := j.transition(StateQueued, func(j *job) { j.err = "" }); err != nil {
		s.mu.Unlock()
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
		s.opts.Log("serve: job %s requeued after failure", shortHash(j.hash))
		s.writeJSON(w, http.StatusAccepted, SubmitResponse{Job: j.hash, State: StateQueued})
	default:
		_ = j.transition(StateFailed, func(j *job) { j.err = prevErr })
		s.rejectLocked(w)
	}
}

// rejectLocked answers 503 + Retry-After and releases s.mu.
func (s *Server) rejectLocked(w http.ResponseWriter) {
	s.rejected.Add(1)
	s.mu.Unlock()
	w.Header().Set("Retry-After", strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
	if s.drain.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining; retry against the restarted daemon"})
		return
	}
	s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "job queue is full; retry later"})
}

// createJob persists a fresh job directory (canonical spec + queued state
// record). Callers hold s.mu.
func (s *Server) createJob(hash string, spec sweep.Spec) (*job, error) {
	dir := filepath.Join(s.jobsDir, hash)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := spec.Encode()
	if err != nil {
		return nil, err
	}
	if err := atomicio.WriteFile(filepath.Join(dir, specFileName), data); err != nil {
		return nil, err
	}
	j := &job{
		hash: hash, dir: dir, spec: spec, valid: true,
		output:    spec.Output.Path,
		submitted: time.Now().UnixNano(),
		state:     StateQueued,
	}
	j.mu.Lock()
	err = j.persistLocked()
	j.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return j, nil
}

// lookup resolves a job by hash.
func (s *Server) lookup(hash string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[hash]
}

// status renders a job's StatusResponse, including the coordinator
// manifest when one exists.
func (s *Server) status(j *job, withAttempts bool) StatusResponse {
	state, errMsg, rows, stats := j.snapshot()
	resp := StatusResponse{Job: j.hash, State: state, Error: errMsg, Rows: rows, Stats: stats}
	if withAttempts {
		if m, err := os.ReadFile(j.manifestPath()); err == nil && json.Valid(m) {
			resp.Attempts = m
		}
	}
	return resp
}

// handleStatus implements GET /v1/jobs/{job}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("job"))
	if j == nil {
		s.httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("job"))
		return
	}
	writeBody(w, http.StatusOK, s.statusBody(j))
}

// statusBody renders a job's GET /v1/jobs/{job} answer. A done job's
// answer is rendered on its first poll and kept on the job (see
// job.doneStatus); every other state is rendered afresh on each poll.
func (s *Server) statusBody(j *job) []byte {
	j.mu.Lock()
	body := j.doneStatus
	j.mu.Unlock()
	if body != nil {
		return body
	}
	st := s.status(j, true)
	body = renderJSON(st)
	if st.State == StateDone {
		j.mu.Lock()
		if j.state == StateDone {
			j.doneStatus = body
		}
		j.mu.Unlock()
	}
	return body
}

// handleRows implements GET /v1/jobs/{job}/rows: the committed result file
// streamed verbatim — byte-identical to the unsharded CLI run of the same
// spec, because it is the coordinator's stitched output.
func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("job"))
	if j == nil {
		s.httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("job"))
		return
	}
	state, errMsg, _, _ := j.snapshot()
	if state != StateDone {
		msg := fmt.Sprintf("job %s is %s, not done", shortHash(j.hash), state)
		if errMsg != "" {
			msg += ": " + errMsg
		}
		s.httpError(w, http.StatusConflict, "%s", msg)
		return
	}
	f, err := os.Open(j.resultPath())
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "opening result: %v", err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if fi, err := f.Stat(); err == nil {
		w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	}
	io.Copy(w, f)
}

// handleList implements GET /v1/jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].submitted != jobs[b].submitted {
			return jobs[a].submitted < jobs[b].submitted
		}
		return jobs[a].hash < jobs[b].hash
	})
	resp := ListResponse{Jobs: make([]StatusResponse, 0, len(jobs))}
	for _, j := range jobs {
		resp.Jobs = append(resp.Jobs, s.status(j, false))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Submissions:   s.submissions.Load(),
		DedupAttached: s.dedupAttached.Load(),
		DedupCached:   s.dedupCached.Load(),
		Executions:    s.executions.Load(),
		Rejected:      s.rejected.Load(),
		Draining:      s.drain.Load(),
	}
	st.DedupHits = st.DedupAttached + st.DedupCached
	s.mu.Lock()
	st.Jobs = len(s.jobs)
	for _, j := range s.jobs {
		switch state, _, _, _ := j.snapshot(); state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		}
	}
	s.mu.Unlock()
	return st
}

// handleStats implements GET /v1/stats and /v1/healthz.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// writeJSON encodes and sends one response body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	writeBody(w, code, renderJSON(v))
}

// renderJSON encodes one response body: indented JSON with a trailing
// newline.
func renderJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return b.Bytes()
}

// writeBody sends a rendered response body.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// httpError answers a non-2xx status with a JSON error body.
func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}
