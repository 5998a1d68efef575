package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ivliw/internal/atomicio"
	"ivliw/sweep"
)

// Job states exposed by the API. A job is born queued, runs at most once at
// a time, and ends done or failed; a failed job may be requeued by
// resubmitting its spec, and a daemon restart requeues every job that was
// queued or running when the previous process stopped (the coordinator
// manifest inside the job directory makes the rerun a resume, not a redo).
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job-directory file names. Each job owns one directory under <Dir>/jobs,
// named by its spec hash: the canonical spec, the durable state record, the
// committed result rows, and the coordinator's work directory (manifest +
// shard outputs) all live there, so one directory is one job's whole truth.
const (
	specFileName   = "spec.json"
	jobFileName    = "job.json"
	resultFileName = "result.jsonl"
	coordDirName   = "coord"
)

// JobStats summarizes one completed execution for the status API: the
// coordinator's launch/retry accounting plus the server-measured wall time.
type JobStats struct {
	Shards   int   `json:"shards"`
	Resumed  int   `json:"resumed"`
	Launches int   `json:"launches"`
	Retries  int   `json:"retries"`
	Rows     int   `json:"rows"`
	WallMS   int64 `json:"wall_ms"`
}

// job is the server's in-memory record of one submitted spec. Identity is
// the spec's semantic hash (sweep.Spec.Hash): everything that changes row
// bytes is in the hash, everything that doesn't (workers, stores, output
// naming) is normalized away, so two submissions with equal hashes are the
// same job by construction — the single-flight key.
type job struct {
	hash string
	dir  string
	spec sweep.Spec
	// output is the submitted spec's Output.Path, kept only as a collision
	// key: results always land in the per-job directory, never at the
	// client-named path, but two *different* specs claiming one path is
	// almost always a client bug that silent last-writer-wins semantics
	// would hide (see Server.handleSubmit).
	output string
	// submitted orders restart recovery (unix nanoseconds at submission).
	submitted int64
	// valid records that spec passes Validate in this build: always for a
	// job created by a submission, and for a recovered job only when its
	// stored spec still does. Only then may a canonical body skip the full
	// submission path (see Server.handleSubmit).
	valid bool

	mu    sync.Mutex
	state string
	err   string
	rows  int
	stats *JobStats
	// doneStatus is the rendered GET /v1/jobs/{job} answer of a done job,
	// kept by the first poll after the job finished. Done is final in a
	// running server and nothing rewrites the job's coordinator manifest
	// after it, so later polls send these bytes as they are. transition
	// clears them, so they only exist while the job is done.
	doneStatus []byte
}

// jobFile is the durable on-disk form of a job's mutable state, rewritten
// atomically on every transition — the serving layer's manifest. A daemon
// killed at any instant restarts from the last committed record.
type jobFile struct {
	Hash        string    `json:"hash"`
	State       string    `json:"state"`
	Error       string    `json:"error,omitempty"`
	Rows        int       `json:"rows,omitempty"`
	Output      string    `json:"output,omitempty"`
	SubmittedNS int64     `json:"submitted_ns"`
	Stats       *JobStats `json:"stats,omitempty"`
}

// snapshot returns a consistent copy of the mutable state.
func (j *job) snapshot() (state, errMsg string, rows int, stats *JobStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.err, j.rows, j.stats
}

// transition applies mut (which may adjust err/rows/stats) and the new
// state under the job lock, then persists the record atomically — one
// transition, one durable write, mirroring the coordinator manifest.
func (j *job) transition(state string, mut func(*job)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	prevState, prevErr := j.state, j.err
	j.state, j.doneStatus = state, nil
	if mut != nil {
		mut(j)
	}
	if err := j.persistLocked(); err != nil {
		j.state, j.err = prevState, prevErr
		return err
	}
	return nil
}

// persistLocked writes job.json; callers hold j.mu.
func (j *job) persistLocked() error {
	b, err := json.MarshalIndent(jobFile{
		Hash:        j.hash,
		State:       j.state,
		Error:       j.err,
		Rows:        j.rows,
		Output:      j.output,
		SubmittedNS: j.submitted,
		Stats:       j.stats,
	}, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(filepath.Join(j.dir, jobFileName), append(b, '\n'))
}

// resultPath is the committed JSONL rows file inside the job directory.
func (j *job) resultPath() string { return filepath.Join(j.dir, resultFileName) }

// manifestPath is the coordinator manifest inside the job directory — the
// per-shard attempt history the status API surfaces.
func (j *job) manifestPath() string { return filepath.Join(j.dir, coordDirName, "manifest.json") }

// recoverJobs rebuilds the job table from the jobs directory after a
// restart. Done jobs whose result file survives stay done (their rows are
// served from disk with no execution); done jobs missing their result,
// running jobs (the previous daemon died or drained mid-execution) and
// queued jobs all come back queued — re-running them lands on the
// coordinator manifest in the job directory, so completed shards are
// resumed rather than recomputed. Failed jobs stay failed until a client
// resubmits. Unreadable or inconsistent job directories are skipped with a
// warning, never deleted: they may be somebody's evidence.
func recoverJobs(jobsDir string, logf func(string, ...any)) (map[string]*job, []*job, error) {
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: reading jobs dir: %w", err)
	}
	jobs := make(map[string]*job)
	var backlog []*job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(jobsDir, e.Name())
		removeStaleTemps(dir)
		// Strict decode: job.json is this daemon's own durable record; a
		// record with unknown fields was written by a different build and
		// is treated like any other unreadable state — skipped, not
		// guessed at.
		var jf jobFile
		data, err := os.ReadFile(filepath.Join(dir, jobFileName))
		if err == nil {
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			err = dec.Decode(&jf)
		}
		if err != nil {
			logf("serve: skipping job dir %s: unreadable state: %v", e.Name(), err)
			continue
		}
		spec, err := sweep.LoadSpec(filepath.Join(dir, specFileName))
		if err != nil {
			logf("serve: skipping job dir %s: %v", e.Name(), err)
			continue
		}
		hash, err := spec.Hash()
		if err != nil || hash != e.Name() || jf.Hash != hash {
			logf("serve: skipping job dir %s: spec hash mismatch (stored spec hashes to %q)", e.Name(), hash)
			continue
		}
		j := &job{
			hash: hash, dir: dir, spec: spec, valid: spec.Validate() == nil,
			output: jf.Output, submitted: jf.SubmittedNS,
			state: jf.State, err: jf.Error, rows: jf.Rows, stats: jf.Stats,
		}
		switch jf.State {
		case StateDone:
			if _, err := os.Stat(j.resultPath()); err != nil {
				logf("serve: job %s recorded done but its result is missing; requeued", shortHash(hash))
				j.state, j.err = StateQueued, ""
			}
		case StateRunning:
			logf("serve: job %s was running at shutdown; requeued (coordinator manifest resumes)", shortHash(hash))
			j.state = StateQueued
		case StateQueued, StateFailed:
			// Kept as recorded.
		default:
			logf("serve: skipping job dir %s: unknown state %q", e.Name(), jf.State)
			continue
		}
		if j.state != jf.State {
			if err := j.transition(j.state, nil); err != nil {
				logf("serve: job %s: persisting recovered state: %v", shortHash(hash), err)
			}
		}
		jobs[hash] = j
		if j.state == StateQueued {
			backlog = append(backlog, j)
		}
	}
	sort.Slice(backlog, func(a, b int) bool { return backlog[a].submitted < backlog[b].submitted })
	return jobs, backlog, nil
}

// shortHash abbreviates a job hash for log lines.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// removeStaleTemps sweeps up never-renamed staging files a killed writer
// left in a job directory; committed files are untouched.
func removeStaleTemps(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	for _, m := range matches {
		os.Remove(m)
	}
}
