// Package sweep is the public design-space sweep surface of the ivliw
// module: declarative, serializable run descriptions executed by one
// composable entry point. Where the figure drivers reproduce the paper's
// single Table 2 point, a sweep explores the space around it — cluster
// count, interleaving factor, cache geometry, functional-unit mix, register
// buses, Attraction Buffer size and hint budget, MSHR depth, bus and memory
// latencies — against paper benchmarks and synthetic workload populations,
// one (point × benchmark) cell per row.
//
// The four orthogonal pieces:
//
//   - Spec: a JSON-serializable description of the whole run (grid axes,
//     workload selection including synthetic specs, compiler options,
//     shard, artifact store, output) with Validate() and byte-stable
//     round-trip encoding, so a run is a reproducible file;
//   - artifact stores: stage-1 compilations resolve through a bounded
//     in-memory LRU, optionally layered over a persistent content-addressed
//     on-disk store (Spec.Store.Dir), so repeated runs start warm;
//   - Shard{Index, Count}: contiguous row-index partitioning of the grid —
//     the concatenation of all shards' JSONL outputs is byte-identical to
//     the unsharded run, enabling multi-process and multi-host sweeps over
//     one shared spec file and artifact directory;
//   - Sink: the row consumer (JSONL writer, in-memory Collector, Func
//     callback).
//
// Execution is the two-stage streaming pipeline of internal/pipeline:
// distinct compile keys compile once into the store, every cell simulates
// against its shared read-only artifact, and rows are emitted in grid order
// as cells complete behind a bounded reorder window — row memory stays
// bounded by the window and the store capacity rather than the row count,
// so 10^5+ cell grids stream in constant space (the expanded machine-point
// list, rows ÷ workloads, is the one grid-proportional allocation). Output
// is byte-identical for any worker count, any store configuration, and any
// sharding (TestSweepDeterminism and TestShardsAndWarmStore in
// cmd/ivliw-bench).
package sweep

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"time"

	"ivliw/internal/atomicio"
	"ivliw/internal/experiments"
	"ivliw/internal/pipeline"
)

// Stats summarizes one run: the rows this shard emitted and the artifact
// store's effectiveness. Memory counters cover the in-memory LRU tier,
// Disk counters the on-disk store (zero when Spec.Store.Dir is unset).
// DiskWriteErrors counts artifacts that could not be persisted (the sweep
// still completes; only the warm start is lost).
type Stats struct {
	Rows int

	MemHits, MemMisses, MemEvictions                  int64
	DiskHits, DiskMisses, DiskWrites, DiskWriteErrors int64

	// SimCells and SimBatches describe the batched-simulation path when
	// Spec.SimBatch enables it: cells evaluated as lanes of sibling
	// batches and the number of batches computed (mean lane width is
	// SimCells/SimBatches). Both zero when batching is off.
	SimCells, SimBatches int64
}

// Run executes the spec's shard of the sweep, streaming rows in grid order
// to the sink. A nil sink writes JSONL to the spec's Output.Path (stdout
// when that is empty too); the file lands atomically — rows accumulate in a
// temp file beside the destination and are renamed into place only when the
// shard completes, so an interrupted or failing run never leaves a
// truncated output behind (what the coordinator's stitcher relies on). A
// failing cell — an invalid machine point, a compile error — yields a row
// with Error set instead of aborting the sweep, so one bad point costs one
// cell, not the run. Canceling ctx stops the dispatch of new cells
// promptly, discards the staged output and returns ctx.Err(); a nil ctx
// means context.Background(). The returned error is otherwise reserved for
// invalid specs, store setup failures and sink errors; on a sink error the
// returned Stats still reflect the rows actually emitted.
func Run(ctx context.Context, spec Spec, sink Sink) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// resolve is Validate plus the materialized run inputs, in one pass:
	// validating separately first would synthesize every synthetic workload
	// population twice.
	opt, benches, err := spec.resolve()
	if err != nil {
		return Stats{}, err
	}
	points := spec.Grid.points(opt)

	// Open the store before any cell runs, so a missing or unwritable
	// artifact directory fails fast instead of mid-sweep.
	mem, disk, err := spec.Store.open()
	if err != nil {
		return Stats{}, err
	}

	// Liveness: beats start before the first cell (so monitors see the
	// attempt alive during store warmup) and stop on every exit path. Only
	// a successful commit writes the final BeatDone beat — see below.
	var hb *beater
	if spec.Heartbeat.Path != "" {
		interval := DefaultHeartbeatInterval
		if spec.Heartbeat.IntervalMS > 0 {
			interval = time.Duration(spec.Heartbeat.IntervalMS) * time.Millisecond
		}
		hb = startBeater(spec.Heartbeat.Path, interval, spec.Shard.Index)
		defer hb.halt()
	}

	// The output stages an all-or-nothing write: rows accumulate in a
	// staging file in the destination's directory and land via an atomic
	// rename on commit, so a crashed, canceled or failing run leaves no
	// truncated file for a later stitch to silently fold in.
	var out *atomicio.File
	var flush *bufio.Writer
	var hasher hash.Hash
	if sink == nil {
		var w io.Writer = os.Stdout
		if spec.Output.Path != "" {
			if out, err = atomicio.Create(spec.Output.Path); err != nil {
				return Stats{}, fmt.Errorf("sweep: output: %w", err)
			}
			w = out
			if hb != nil {
				// Tee the output bytes through a hasher so the final beat
				// can certify the committed file without re-reading it.
				hasher = sha256.New()
				w = io.MultiWriter(out, hasher)
			}
		}
		flush = bufio.NewWriter(w)
		sink = JSONL(flush)
	}

	nb := len(benches)
	n := len(points) * nb
	lo, hi := spec.Shard.Range(n)
	emitted := 0
	// With SimBatch >= 2, sibling cells (same benchmark, same compile key)
	// share one batched simulation pass: the cell function resolves through
	// the plan, which computes a whole batch the first time any of its
	// cells is dispatched. Cell indices, dispatch order and the reorder
	// window are untouched, so rows stream in the identical order and with
	// identical bytes either way.
	var plan *batchPlan
	if spec.SimBatch > 1 {
		// Price rows under the built-in default model so the plan can
		// order help-stealing heaviest-first — relative order is all that
		// matters inside one process, so no calibration file is needed.
		gc := newCostModel(DefaultCalibration()).gridCosts(points, benches, spec.SimBatch)
		plan = planBatches(points, benches, lo, hi, spec.SimBatch, gc.rows)
	}
	err = experiments.StreamCells(ctx, hi-lo, spec.Workers,
		func(i int) (Row, error) {
			if plan != nil {
				return plan.row(i, mem), nil
			}
			c := lo + i
			return cell(points[c/nb], benches[c%nb], mem), nil
		},
		func(_ int, row Row) error {
			if err := sink.Row(row); err != nil {
				return err
			}
			emitted++
			return nil
		})
	if flush != nil && err == nil {
		// Only a completed shard flushes: after a failure or cancellation,
		// pushing the buffered tail out would grow the partial stdout
		// stream (the file path discards its staging temp regardless).
		err = flush.Flush()
	}
	if out != nil {
		// All-or-nothing: the destination only appears on success (an empty
		// shard commits a valid empty file); any failure or cancellation
		// discards the temp file.
		if err == nil {
			if cerr := out.Commit(); cerr != nil {
				err = fmt.Errorf("sweep: output: %w", cerr)
			}
		} else {
			out.Abort()
		}
	}
	if hb != nil && err == nil {
		sum := ""
		if hasher != nil {
			sum = hex.EncodeToString(hasher.Sum(nil))
		}
		hb.finish(emitted, sum)
	}

	st := Stats{Rows: emitted}
	if plan != nil {
		st.SimBatches = plan.batches.Load()
		st.SimCells = plan.laneCells.Load()
	}
	ms := mem.Stats()
	st.MemHits, st.MemMisses, st.MemEvictions = ms.Hits, ms.Misses, ms.Evictions
	if disk != nil {
		ds := disk.Stats()
		st.DiskHits, st.DiskMisses = ds.Hits, ds.Misses
		st.DiskWrites, st.DiskWriteErrors = ds.Writes, ds.WriteErrors
	}
	if err != nil {
		return st, err
	}
	return st, nil
}

// open builds the configured store stack: an in-memory single-flight LRU,
// layered over a content-addressed disk store when Dir is set. The memory
// tier is always present as the composition root (a negative Memory turns
// it into a counting pass-through), so every run shares one code path.
func (s Store) open() (*pipeline.Cache, *pipeline.DiskStore, error) {
	var disk *pipeline.DiskStore
	var next pipeline.Store
	if s.Dir != "" {
		var err error
		if disk, err = pipeline.NewDiskStore(s.Dir); err != nil {
			return nil, nil, err
		}
		next = disk
	}
	capacity := s.Memory
	if capacity == 0 {
		capacity = pipeline.DefaultCacheSize
	} else if capacity < 0 {
		capacity = 0
	}
	return pipeline.NewCacheOver(capacity, next), disk, nil
}

// SetWorkers fixes the default worker-pool size used when Spec.Workers is
// zero (n <= 0 restores the GOMAXPROCS default). It mirrors the
// `ivliw-bench -workers` flag for library callers.
func SetWorkers(n int) { experiments.SetWorkers(n) }
