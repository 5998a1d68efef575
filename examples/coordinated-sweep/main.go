// Coordinated-sweep demonstrates the distributed sweep coordinator against
// the public sweep package alone: one Coordinate call cuts a declarative
// Spec's grid into chunks for its workers, launches them, retries an
// injected failure, stitches the chunk outputs byte-identically to the
// unsharded run, and — rerun over the same work directory — resumes every
// completed chunk from the manifest without recomputing anything.
//
// Three invariants are checked live:
//
//   - stitching: the coordinator's output file equals the unsharded run
//     byte for byte, even though one chunk failed once and was retried;
//   - crash-safety: chunk outputs and the manifest only ever appear via
//     atomic renames, so the work directory is always a valid resume point;
//   - resume: a second Coordinate over the same directory launches zero
//     chunks and still reproduces the identical output.
//
// The in-process launcher keeps the example self-contained; substituting a
// sweep.Pool whose Workers carry Command []string{"ivliw-bench"} (or
// []string{"ssh", "host", "ivliw-bench"} over a shared filesystem) is the
// multi-process/multi-host deployment, which `ivliw-bench -coordinate n`
// wraps as a CLI.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"ivliw/sweep"
)

// flakyLauncher fails the first attempt of one shard, then delegates — the
// transient worker crash every long-running coordinator eventually meets.
type flakyLauncher struct {
	inner      sweep.Launcher
	flakyShard int

	mu     sync.Mutex
	failed bool
}

func (l *flakyLauncher) Launch(ctx context.Context, task sweep.ShardTask) error {
	l.mu.Lock()
	inject := task.Index == l.flakyShard && !l.failed
	if inject {
		l.failed = true
	}
	l.mu.Unlock()
	if inject {
		return fmt.Errorf("injected transient failure (shard %d, attempt %d)", task.Index, task.Attempt)
	}
	return l.inner.Launch(ctx, task)
}

func main() {
	log.SetFlags(0)

	dir, err := os.MkdirTemp("", "coordinated-sweep-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The run: a 8-point grid over one paper benchmark and one synthetic
	// workload, shards sharing a persistent artifact store, final output
	// pinned to a file the coordinator commits atomically.
	spec := sweep.Spec{
		Grid: sweep.Grid{
			Clusters:  []int{2, 4},
			ABEntries: []int{0, 16},
			MSHRs:     []int{0, 4},
		},
		Workloads: sweep.Workloads{
			Bench: []string{"gsmdec"},
			Synth: []sweep.SynthSpec{{Name: "stream-heavy", Seed: 3, Kernels: 2, Gran: 4}},
		},
		Compile: sweep.Compile{Heuristic: "IPBC", Unroll: "selective"},
		Store:   sweep.Store{Dir: filepath.Join(dir, "artifacts")},
		Output:  sweep.Output{Path: filepath.Join(dir, "sweep.jsonl")},
	}

	// The unsharded reference the coordinator must reproduce byte for byte.
	var ref bytes.Buffer
	refSpec := spec
	refSpec.Output = sweep.Output{}
	if _, err := sweep.Run(context.Background(), refSpec, sweep.JSONL(&ref)); err != nil {
		log.Fatal(err)
	}

	// First coordinated run: 3 workers share the grid's 2 compile-key
	// chunks, and chunk 1 fails its first attempt and is retried. The work
	// dir keeps the manifest and per-chunk outputs.
	work := filepath.Join(dir, "work")
	opts := sweep.CoordinatorOptions{
		Shards:   3,
		Dir:      work,
		Launcher: &flakyLauncher{inner: sweep.InProcess{}, flakyShard: 1},
		Log:      log.Printf,
	}
	st, err := sweep.Coordinate(context.Background(), spec, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinated: %d workers, %d tasks, %d launches (%d retries), %d rows\n",
		st.Shards, st.Tasks, st.Launches, st.Retries, st.Rows)

	stitched, err := os.ReadFile(spec.Output.Path)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(stitched, ref.Bytes()) {
		log.Fatal("BUG: stitched output differs from the unsharded run")
	}
	fmt.Printf("stitched %d rows byte-identical to the unsharded run (despite the injected failure)\n", st.Rows)

	// Second run over the same work dir: the manifest says every chunk is
	// done, so nothing launches — the "killed coordinator, rerun the same
	// command" recovery path, here exercised on the happy case.
	opts.Launcher = sweep.InProcess{}
	st2, err := sweep.Coordinate(context.Background(), spec, opts)
	if err != nil {
		log.Fatal(err)
	}
	if st2.Launches != 0 || st2.Resumed != st2.Tasks {
		log.Fatalf("BUG: resume launched %d chunks (resumed %d)", st2.Launches, st2.Resumed)
	}
	restitched, err := os.ReadFile(spec.Output.Path)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(restitched, ref.Bytes()) {
		log.Fatal("BUG: resumed stitch differs from the unsharded run")
	}
	fmt.Printf("resume: %d/%d chunks restored from the manifest, 0 launches, identical bytes\n",
		st2.Resumed, st2.Tasks)
	fmt.Println("\nEquivalent CLI:")
	fmt.Println("  ivliw-bench -spec run.json -coordinate 3 -coordinate-dir work \\")
	fmt.Println("              -artifact-dir artifacts -out sweep.jsonl")
}
