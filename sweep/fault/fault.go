// Package fault scripts deterministic failures for coordinated sweeps: a
// JSON fault plan names exactly which shard attempts crash, hang, stop
// heartbeating or corrupt their output, and which workers die — so tests
// (TestCoordinateSurvivesDeadWorkerAndHang and TestCostBalancedChunks in
// cmd/ivliw-bench, TestPoolDeadWorkerRequeues in sweep) can drill every
// recovery path of the coordinator and the worker pool reproducibly, with
// no timing races and no marker files.
//
// A plan is a list of events. Shard-scoped events (crash, hang,
// stale-heartbeat, corrupt-output) match one attempt of one shard: the
// worker process identifies its shard from the spec it runs and its
// attempt number from the IVLIW_ATTEMPT environment variable that
// sweep.Pool exports to every worker subprocess, so "crash shard 1,
// attempt 1" fires on the first attempt and never on the retry. Worker-scoped events (dead-worker)
// match a launch ordinal on a named pool worker and are applied by the
// pool itself: the worker dies, taking every in-flight attempt on it down
// at once.
//
// Plans are armed through the environment (EnvPlan names the plan file),
// which flows from the coordinator to every worker subprocess for free.
// Unset, everything in this package is a no-op: all matching methods
// accept a nil *Plan.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Environment variables of the fault protocol. EnvPlan is set by the
// operator (or a test) and inherited by every subprocess; EnvAttempt and
// EnvWorker are exported by sweep.Pool so a worker process can match
// shard-scoped events deterministically.
const (
	// EnvPlan names the JSON fault-plan file. Unset means no faults.
	EnvPlan = "IVLIW_FAULT_PLAN"
	// EnvAttempt carries the 1-based attempt number of a worker
	// subprocess (set by sweep.Pool).
	EnvAttempt = "IVLIW_ATTEMPT"
	// EnvWorker carries the pool worker name an attempt was scheduled
	// onto (set by sweep.Pool; informational).
	EnvWorker = "IVLIW_WORKER"
)

// Op is a fault kind.
type Op string

const (
	// Crash exits the worker process with a failure before any cell runs.
	Crash Op = "crash"
	// Hang blocks the worker process forever (until killed) before any
	// cell runs and before any heartbeat is written.
	Hang Op = "hang"
	// StaleHeartbeat writes exactly one heartbeat, then blocks forever —
	// the "process alive but wedged" failure a stale-heartbeat monitor
	// exists to catch.
	StaleHeartbeat Op = "stale-heartbeat"
	// CorruptOutput lets the attempt run to a successful commit, then
	// flips a bit of the committed output file — disk corruption between
	// commit and stitch, caught by the pool's checksum verification.
	CorruptOutput Op = "corrupt-output"
	// DeadWorker kills a named pool worker as its Launch-th attempt
	// starts: the attempt and everything else in flight on that worker
	// fail at once, and the worker is quarantined.
	DeadWorker Op = "dead-worker"
)

// Event is one scripted fault. Shard-scoped ops use Shard/Attempt;
// DeadWorker uses Worker/Launch.
type Event struct {
	Op Op `json:"op"`
	// Shard is the shard index the event targets (shard-scoped ops).
	Shard int `json:"shard,omitempty"`
	// Attempt is the 1-based attempt number the event fires on; 0 means
	// every attempt at the shard (shard-scoped ops).
	Attempt int `json:"attempt,omitempty"`
	// Worker names the pool worker that dies (DeadWorker).
	Worker string `json:"worker,omitempty"`
	// Launch is the 1-based launch ordinal on the worker at which it
	// dies; 0 means its first launch (DeadWorker).
	Launch int `json:"launch,omitempty"`
}

// Plan is a scripted set of fault events.
type Plan struct {
	Events []Event `json:"events"`
}

// Parse decodes a plan strictly: unknown fields, trailing data and
// malformed events are errors — a typo in a fault plan would otherwise
// silently drill nothing.
func Parse(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: parse plan: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, fmt.Errorf("fault: parse plan: trailing data after the plan object")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and parses a plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: load plan: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// FromEnv loads the plan named by EnvPlan, or (nil, nil) when the
// environment is unarmed — the normal production case.
func FromEnv() (*Plan, error) {
	path := os.Getenv(EnvPlan)
	if path == "" {
		return nil, nil
	}
	return Load(path)
}

// Validate reports the first malformed event: an unknown op, a DeadWorker
// event without a worker name, a shard-scoped event carrying worker
// fields, or negative ordinals.
func (p *Plan) Validate() error {
	for i, e := range p.Events {
		switch e.Op {
		case Crash, Hang, StaleHeartbeat, CorruptOutput:
			if e.Worker != "" || e.Launch != 0 {
				return fmt.Errorf("fault: event %d (%s): worker/launch only apply to %q", i, e.Op, DeadWorker)
			}
			if e.Shard < 0 || e.Attempt < 0 {
				return fmt.Errorf("fault: event %d (%s): shard and attempt must be >= 0", i, e.Op)
			}
		case DeadWorker:
			if e.Worker == "" {
				return fmt.Errorf("fault: event %d: %q needs a worker name", i, DeadWorker)
			}
			if e.Shard != 0 || e.Attempt != 0 {
				return fmt.Errorf("fault: event %d (%s): shard/attempt do not apply to %q", i, e.Op, DeadWorker)
			}
			if e.Launch < 0 {
				return fmt.Errorf("fault: event %d (%s): launch must be >= 0", i, e.Op)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown op %q (want %s, %s, %s, %s or %s)",
				i, e.Op, Crash, Hang, StaleHeartbeat, CorruptOutput, DeadWorker)
		}
	}
	return nil
}

// ForAttempt returns the first shard-scoped event matching this shard and
// 1-based attempt, or nil. A nil plan matches nothing.
func (p *Plan) ForAttempt(shard, attempt int) *Event {
	if p == nil {
		return nil
	}
	for i := range p.Events {
		e := &p.Events[i]
		if e.Op == DeadWorker || e.Shard != shard {
			continue
		}
		if e.Attempt == 0 || e.Attempt == attempt {
			return e
		}
	}
	return nil
}

// ForLaunch returns the DeadWorker event firing as the named worker's
// launch-th attempt (1-based) starts, or nil. A nil plan matches nothing.
func (p *Plan) ForLaunch(worker string, launch int) *Event {
	if p == nil {
		return nil
	}
	for i := range p.Events {
		e := &p.Events[i]
		if e.Op != DeadWorker || e.Worker != worker {
			continue
		}
		at := e.Launch
		if at == 0 {
			at = 1
		}
		if at == launch {
			return e
		}
	}
	return nil
}

// Environ assembles the environment of one worker-subprocess attempt: the
// parent's environment (which forwards EnvPlan for free when armed), the
// caller's extra entries (the pool passes WorkerEnv), and the EnvAttempt
// export that lets the worker match shard-scoped events. sweep.Pool, the
// one launcher that starts worker subprocesses, builds every attempt's
// environment here, so the fault protocol's env contract lives in exactly
// one place.
func Environ(extra []string, attempt int) []string {
	env := append(os.Environ(), extra...)
	return append(env, AttemptEnv(attempt))
}

// AttemptEnv renders the EnvAttempt entry for a 1-based attempt number.
func AttemptEnv(attempt int) string { return EnvAttempt + "=" + strconv.Itoa(attempt) }

// WorkerEnv renders the EnvWorker entry naming the pool worker an attempt
// was scheduled onto.
func WorkerEnv(name string) string { return EnvWorker + "=" + name }

// AttemptFromEnv reads this process's attempt number from EnvAttempt.
// A standalone run (no launcher exported the variable) is its own first
// attempt, so unset or unparsable values return 1.
func AttemptFromEnv() int {
	n, err := strconv.Atoi(os.Getenv(EnvAttempt))
	if err != nil || n < 1 {
		return 1
	}
	return n
}
