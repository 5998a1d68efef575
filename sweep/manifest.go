package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ivliw/internal/atomicio"
)

// manifestName is the coordinator's durable state file within its work
// directory.
const manifestName = "manifest.json"

// Shard statuses recorded in the manifest. Only shardDone survives a
// coordinator restart; pending/running/failed shards are relaunched from
// scratch (their attempt counters reset), since a crashed coordinator
// cannot know how far a non-done shard got — and does not need to: shard
// outputs are all-or-nothing files.
const (
	shardPending = "pending"
	shardRunning = "running"
	shardDone    = "done"
	shardFailed  = "failed"
)

// attemptRecord is the post-mortem trail of one launch: which worker the
// attempt was assigned to (when the launcher reports one — the pool does),
// how it failed if it did, and how long it ran. The winning attempt has an
// empty Error; its WallMS/Rows/CellsPerSec are the measured throughput
// that future calibrations and slow-worker post-mortems read.
type attemptRecord struct {
	Attempt int    `json:"attempt"`
	Worker  string `json:"worker,omitempty"`
	Error   string `json:"error,omitempty"`
	// WallMS is the attempt's wall time as the coordinator saw it (launch
	// to completion, either outcome); Rows and CellsPerSec are filled for
	// winning attempts only (a failed attempt produced no rows).
	WallMS      int64   `json:"wall_ms,omitempty"`
	Rows        int     `json:"rows,omitempty"`
	CellsPerSec float64 `json:"cells_per_s,omitempty"`
}

// shardState is one shard's durable record: where its output lands
// (relative to the coordinator directory), which row range it covers, how
// far it has come, how many attempts it has consumed, which worker served
// the winning attempt, and the per-attempt history for post-mortem.
type shardState struct {
	Index  int    `json:"index"`
	Output string `json:"output"`
	// Lo and Hi are the half-open row range this shard covers. They are
	// recorded explicitly because cost-balanced cuts depend on the
	// calibration, which may change between a run and its resume — a done
	// shard is only trusted when its recorded range still matches the
	// planned cut.
	Lo       int             `json:"lo"`
	Hi       int             `json:"hi"`
	Status   string          `json:"status"`
	Attempts int             `json:"attempts"`
	Worker   string          `json:"worker,omitempty"`
	History  []attemptRecord `json:"history,omitempty"`
}

// record returns the history entry for the given attempt number, creating
// it if absent. Callers hold the manifest lock (via update).
func (s *shardState) record(attempt int) *attemptRecord {
	for i := range s.History {
		if s.History[i].Attempt == attempt {
			return &s.History[i]
		}
	}
	s.History = append(s.History, attemptRecord{Attempt: attempt})
	return &s.History[len(s.History)-1]
}

// manifest is the coordinator's crash-safe ledger: the spec fingerprint it
// belongs to plus every shard's state, rewritten atomically (temp+rename)
// on each transition. A coordinator killed at any instant restarts from the
// last committed ledger; shards recorded done — whose output files exist —
// are resumed for free.
type manifest struct {
	SpecHash string       `json:"spec_hash"`
	Shards   []shardState `json:"shards"`

	mu   sync.Mutex
	path string
}

// shardFileName is the canonical per-shard output name inside the
// coordinator directory.
func shardFileName(i int) string { return fmt.Sprintf("shard_%d.jsonl", i) }

// specHash fingerprints the semantic content of a spec — the grid, the
// workload selection and the compiler configuration, the inputs that
// determine row bytes. Per-process knobs (shard, output, store, workers,
// sim batching) are cleared first: they change where and how fast rows are
// produced, never what they contain, so a resume across a moved artifact
// directory or a different worker count still trusts completed shard
// outputs.
func specHash(s Spec) (string, error) {
	s.Shard, s.Output, s.Store, s.Workers, s.SimBatch, s.Heartbeat = Shard{}, Output{}, Store{}, 0, 0, Heartbeat{}
	b, err := s.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// openManifest loads the manifest from dir, or initializes a fresh one when
// none exists or the existing one describes a different run (spec hash or
// shard count mismatch) or is unreadable. Non-done states are reset to
// pending with zeroed attempts; done shards whose output file has vanished,
// that record an output other than their canonical shardFileName (the
// only file stitch reads), or whose recorded row range no longer matches
// the planned cut (cuts move when the calibration or the worker count
// changes between runs) are demoted back to pending. Every shard's output
// is normalized to its canonical name. The normalized manifest is persisted
// before returning, and the number of shards resumed as done is reported.
func openManifest(dir, hash string, cuts []rowRange) (*manifest, int, error) {
	path := filepath.Join(dir, manifestName)
	shards := len(cuts)
	fresh := func() *manifest {
		m := &manifest{SpecHash: hash, path: path}
		for i := 0; i < shards; i++ {
			m.Shards = append(m.Shards, shardState{
				Index: i, Output: shardFileName(i),
				Lo: cuts[i].lo, Hi: cuts[i].hi,
				Status: shardPending,
			})
		}
		return m
	}
	m := fresh()
	if data, err := os.ReadFile(path); err == nil {
		// Strict decode: a manifest with fields this build does not know
		// was written by a different build and cannot be trusted as resume
		// state — treat it like a spec-hash mismatch and start fresh.
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var prev manifest
		if dec.Decode(&prev) == nil && prev.SpecHash == hash && len(prev.Shards) == shards {
			prev.path = path
			for i := range prev.Shards {
				s := &prev.Shards[i]
				// stitch reads the canonical file, so a done shard that
				// names another one is relaunched.
				canonical := s.Output == "" || s.Output == shardFileName(i)
				s.Index, s.Output = i, shardFileName(i)
				if canonical && s.Status == shardDone && s.Lo == cuts[i].lo && s.Hi == cuts[i].hi {
					if _, err := os.Stat(filepath.Join(dir, s.Output)); err == nil {
						continue
					}
				}
				s.Lo, s.Hi = cuts[i].lo, cuts[i].hi
				s.Status, s.Attempts = shardPending, 0
				s.Worker, s.History = "", nil
			}
			m = &prev
		}
	}
	if err := m.save(); err != nil {
		return nil, 0, err
	}
	done := 0
	for _, s := range m.Shards {
		if s.Status == shardDone {
			done++
		}
	}
	return m, done, nil
}

// save persists the manifest atomically. Callers serialize through update;
// save itself assumes the caller holds the lock (or exclusive access during
// openManifest).
func (m *manifest) save() error {
	b, err := json.MarshalIndent(struct {
		SpecHash string       `json:"spec_hash"`
		Shards   []shardState `json:"shards"`
	}{m.SpecHash, m.Shards}, "", "  ")
	if err != nil {
		return err
	}
	if err := atomicio.WriteFile(m.path, append(b, '\n')); err != nil {
		return fmt.Errorf("sweep: manifest: %w", err)
	}
	return nil
}

// update applies fn to shard i's state and persists the manifest atomically
// — one transition, one durable ledger write.
func (m *manifest) update(i int, fn func(*shardState)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	fn(&m.Shards[i])
	return m.save()
}

// state returns a copy of shard i's current record.
func (m *manifest) state(i int) shardState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Shards[i]
}
