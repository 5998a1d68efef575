// Worker-pool demonstrates the health-checked pool launcher against the
// public sweep and sweep/fault packages alone: a Coordinate call runs a
// sharded sweep over a registry of named workers while a deterministic
// fault plan kills one worker mid-run. The pool detects the death,
// quarantines the worker, requeues its in-flight shard onto the survivors,
// and the stitched output still reproduces the unsharded run byte for
// byte — the invariant every recovery path in this repo is held to.
//
// Along the way the pool exercises its full health loop even on healthy
// workers: each attempt writes heartbeat files (the liveness signal the
// pool kills hung attempts by) whose final beat carries a sha256 of the
// committed shard output, re-verified before the shard counts as done.
// The manifest in the work directory records which worker served each
// shard and the per-attempt post-mortem trail, printed at the end.
//
// The in-process workers (empty Command) keep the example self-contained;
// giving each Worker a command prefix like []string{"ssh", "hostN",
// "ivliw-bench"} over a shared filesystem is the multi-host deployment.
// `ivliw-bench -coordinate n` wraps the same pool as a CLI, with n local
// subprocess workers (arm the same fault plan via the IVLIW_FAULT_PLAN env
// var).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"ivliw/sweep"
	"ivliw/sweep/fault"
)

func main() {
	log.SetFlags(0)

	dir, err := os.MkdirTemp("", "worker-pool-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// An 8-point grid over one paper benchmark and one synthetic workload.
	// Its 4 compile keys (clusters × cache capacity) become 4 chunks for
	// the pool's 3 workers, so the pool has more chunks than workers.
	spec := sweep.Spec{
		Grid: sweep.Grid{
			Clusters:   []int{2, 4},
			CacheBytes: []int{8 << 10, 16 << 10},
			ABEntries:  []int{0, 16},
		},
		Workloads: sweep.Workloads{
			Bench: []string{"gsmdec"},
			Synth: []sweep.SynthSpec{{Name: "stream-heavy", Seed: 3, Kernels: 2, Gran: 4}},
		},
		Compile: sweep.Compile{Heuristic: "IPBC", Unroll: "selective"},
		Store:   sweep.Store{Dir: filepath.Join(dir, "artifacts")},
		Output:  sweep.Output{Path: filepath.Join(dir, "sweep.jsonl")},
	}

	// The unsharded reference the pool-coordinated run must reproduce.
	var ref bytes.Buffer
	refSpec := spec
	refSpec.Output = sweep.Output{}
	if _, err := sweep.Run(context.Background(), refSpec, sweep.JSONL(&ref)); err != nil {
		log.Fatal(err)
	}

	// The fault plan: worker "w0" dies on its first launch. (w0 because the
	// scheduler assigns the first launch to the lowest-index idle worker, so
	// the event fires deterministically even when in-process shards run too
	// fast to overlap.) The plan is scripted data, not a code seam — the
	// same JSON armed through IVLIW_FAULT_PLAN drives subprocess pools in
	// scripts/ci.sh step 7.
	plan := &fault.Plan{Events: []fault.Event{
		{Op: fault.DeadWorker, Worker: "w0"},
	}}
	if err := plan.Validate(); err != nil {
		log.Fatal(err)
	}

	// Three in-process workers with one attempt slot each. A short
	// quarantine backoff lets the killed worker earn readmission while the
	// requeued work is still draining.
	pool := &sweep.Pool{
		Workers: []sweep.Worker{
			{Name: "w0"},
			{Name: "w1"},
			{Name: "w2"},
		},
		StaleAfter:        2 * time.Second,
		QuarantineAfter:   1,
		QuarantineBackoff: 50 * time.Millisecond,
		Seed:              7,
		Fault:             plan,
		Log:               log.Printf,
	}

	work := filepath.Join(dir, "work")
	st, err := sweep.Coordinate(context.Background(), spec, sweep.CoordinatorOptions{
		Shards:   3,
		Dir:      work,
		Launcher: pool,
		Log:      log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	stitched, err := os.ReadFile(spec.Output.Path)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(stitched, ref.Bytes()) {
		log.Fatal("BUG: pool-coordinated output differs from the unsharded run")
	}
	fmt.Printf("\nstitched %d rows byte-identical to the unsharded run (despite the dead worker)\n", st.Rows)

	ps := pool.Stats()
	fmt.Printf("pool: %d launches, %d worker deaths, %d quarantines (%d readmissions), %d stale kills, %d checksum failures\n",
		ps.Launches, ps.WorkerDeaths, ps.Quarantines, ps.Readmissions, ps.StaleKills, ps.ChecksumFailures)
	if ps.WorkerDeaths != 1 || ps.Quarantines < 1 {
		log.Fatalf("BUG: expected the planned w0 death and a quarantine, got %+v", ps)
	}

	// The manifest is the post-mortem record: per shard, the worker that
	// served the winning attempt plus every attempt's worker and error.
	data, err := os.ReadFile(filepath.Join(work, "manifest.json"))
	if err != nil {
		log.Fatal(err)
	}
	// The full manifest shape, decoded strictly: if the coordinator's
	// ledger format drifts, this example fails loudly instead of silently
	// printing a subset of a file it no longer understands.
	var mf struct {
		SpecHash string `json:"spec_hash"`
		Shards   []struct {
			Index    int    `json:"index"`
			Output   string `json:"output"`
			Lo       int    `json:"lo"`
			Hi       int    `json:"hi"`
			Status   string `json:"status"`
			Attempts int    `json:"attempts"`
			Worker   string `json:"worker"`
			History  []struct {
				Attempt     int     `json:"attempt"`
				Worker      string  `json:"worker"`
				Error       string  `json:"error"`
				WallMS      int64   `json:"wall_ms"`
				Rows        int     `json:"rows"`
				CellsPerSec float64 `json:"cells_per_s"`
			} `json:"history"`
		} `json:"shards"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmanifest attribution:")
	for _, s := range mf.Shards {
		fmt.Printf("  shard %d: %s on %s\n", s.Index, s.Status, s.Worker)
		for _, h := range s.History {
			if h.Error != "" {
				fmt.Printf("    attempt %d on %s failed: %s\n", h.Attempt, h.Worker, h.Error)
			}
		}
		if s.Status != "done" || s.Worker == "" {
			log.Fatalf("BUG: shard %d not done or unattributed: %+v", s.Index, s)
		}
	}

	fmt.Println("\nEquivalent CLI:")
	fmt.Println("  IVLIW_FAULT_PLAN=plan.json ivliw-bench -spec run.json \\")
	fmt.Println("      -coordinate 3 -pool-stale 2s -coordinate-dir work -out sweep.jsonl")
}
