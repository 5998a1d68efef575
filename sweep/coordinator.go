package sweep

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ivliw/internal/atomicio"
)

// CoordinatorOptions parameterizes Coordinate: how many workers share the
// grid, how to launch their tasks, where the coordinator keeps its durable
// state, and how failures are handled.
type CoordinatorOptions struct {
	// Shards is the worker count (required, >= 1): the number of tasks
	// that may run at once, unless Parallel lowers it. With more than one
	// worker the grid is cut into up to chunksPerWorker×Shards cost-ordered
	// chunks that idle workers claim; with one it runs as a single task.
	Shards int
	// Launcher runs task attempts; nil selects InProcess, which has no
	// hang detection. A Pool of workers with a Command turns the
	// coordinator into a multi-process (or, prefixed with ssh, a
	// multi-host) run with heartbeat-based hang detection.
	Launcher Launcher
	// Dir is the coordinator's work directory: the shared base spec file,
	// the per-task output files and the manifest live there. Reusing a Dir
	// resumes: tasks the manifest records as done (and whose output files
	// exist) are not relaunched. Empty means a fresh temp directory,
	// removed when Coordinate returns — correct but resume-less. Exactly
	// one coordinator may use a Dir at a time.
	Dir string
	// MaxAttempts caps the launches per task — the first try plus retries
	// after failures (0 = 3).
	MaxAttempts int
	// Parallel bounds the number of concurrently running tasks
	// (0 = Shards).
	Parallel int
	// RetryBackoff delays the relaunch after a failed attempt: retry k of
	// a task waits min(RetryBackoff<<k-1, 32×RetryBackoff), jittered
	// deterministically by Seed into [d/2, d], instead of hammering a
	// struggling worker immediately. 0 retries at once.
	RetryBackoff time.Duration
	// Seed feeds the retry jitter; identical (Seed, task, attempt)
	// triples always wait identically, keeping runs reproducible.
	Seed uint64
	// Calibration, when non-empty, names a calibration JSON file (see
	// Calibrate/SaveCalibration) loaded for the cost model that sizes and
	// orders the chunks. A missing or corrupt file degrades to the
	// built-in DefaultCalibration with a logged warning, never a failure.
	Calibration string
	// Log receives progress lines (retries, resume notes); nil discards
	// them.
	Log func(format string, args ...any)
}

// chunksPerWorker is how many chunks per worker a multi-worker run is cut
// into: enough that a worker stuck on a heavy chunk leaves the rest of the
// queue to its idle peers, few enough that launches stay cheap.
const chunksPerWorker = 4

// CoordinatorStats summarizes a coordinated run.
type CoordinatorStats struct {
	// Shards is the configured worker count; Tasks is the number of
	// range tasks the grid was cut into, and Resumed counts tasks restored
	// from the manifest without relaunching.
	Shards, Tasks, Resumed int
	// Launches counts task attempts started this run; Retries of them
	// followed a failed attempt.
	Launches, Retries int
	// Rows is the row count of the stitched output.
	Rows int
	// SlowestTask identifies the winning attempt with the longest wall
	// time this run — the skew post-mortem in one line. Zero-valued when
	// nothing was launched (a pure resume).
	SlowestTask        int
	SlowestWall        time.Duration
	SlowestCellsPerSec float64
}

// Coordinate runs spec as cooperating range tasks and stitches their
// outputs into the spec's Output.Path (stdout when empty), byte-identical
// to the unsharded run. With one worker the grid is one task. With more,
// it is cut into up to chunksPerWorker×Shards never-empty chunks of
// near-equal predicted cost under the (optionally calibrated) cost model,
// only ever on compile-key atom boundaries, and idle workers claim them
// heaviest first. Byte-identity holds by construction: rows stay keyed by
// grid index and the stitcher emits ranges in index order regardless of
// who computed them. A failed attempt is retried within the per-task
// attempt cap, one attempt in flight at a time; detecting a hung attempt
// is the launcher's job (Pool.StaleAfter). Every task-state transition is
// committed to an atomically rewritten manifest in the work directory, so
// a coordinator killed at any point — including mid-write, since task
// outputs only appear via whole-file renames — restarts with Coordinate
// over the same Dir and resumes completed tasks for free. Pointing
// Spec.Store.Dir at a shared artifact directory additionally lets tasks
// share stage-1 compilations. Canceling ctx stops launching promptly,
// tears running attempts down and returns ctx.Err() with no stitched
// output.
func Coordinate(ctx context.Context, spec Spec, opts CoordinatorOptions) (CoordinatorStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Shards < 1 {
		return CoordinatorStats{}, fmt.Errorf("sweep: coordinator needs >= 1 shards, got %d", opts.Shards)
	}
	if spec.Shard.Count > 1 || spec.Shard.Index != 0 || spec.Shard.Hi > spec.Shard.Lo {
		return CoordinatorStats{}, fmt.Errorf("sweep: the coordinator owns sharding; clear Spec.Shard (got %d/%d [%d:%d))",
			spec.Shard.Index, spec.Shard.Count, spec.Shard.Lo, spec.Shard.Hi)
	}
	// Resolving (rather than just validating) exposes the row grid the cut
	// planner prices.
	opt, benches, err := spec.resolve()
	if err != nil {
		return CoordinatorStats{}, err
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.Parallel <= 0 {
		opts.Parallel = opts.Shards
	}
	if opts.Launcher == nil {
		opts.Launcher = InProcess{}
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}

	// Cut the grid into range tasks: price every row under the (possibly
	// calibrated) model and cut at equal predicted cost, only ever on
	// compile-key atom boundaries so no artifact is compiled by two tasks.
	cal := DefaultCalibration()
	if opts.Calibration != "" {
		if loaded, lerr := LoadCalibration(opts.Calibration); lerr != nil {
			opts.Log("coordinator: calibration %s unusable (%v); using the default cost model", opts.Calibration, lerr)
		} else {
			cal = loaded
			opts.Log("coordinator: calibration loaded from %s", opts.Calibration)
		}
	}
	points := spec.Grid.points(opt)
	gc := newCostModel(cal).gridCosts(points, benches, spec.SimBatch)
	k := 1
	if opts.Shards > 1 {
		k = min(chunksPerWorker*opts.Shards, len(gc.atoms))
	}
	tasks := costCuts(gc, len(points)*len(benches), k)
	taskCost := make([]float64, len(tasks))
	for i, t := range tasks {
		for c := t.lo; c < t.hi; c++ {
			taskCost[i] += gc.rows[c]
		}
	}

	dir := opts.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ivliw-coordinate-*")
		if err != nil {
			return CoordinatorStats{}, fmt.Errorf("sweep: coordinator: %w", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return CoordinatorStats{}, fmt.Errorf("sweep: coordinator: %w", err)
	}

	// The base spec every worker loads: sharding, output and heartbeat are
	// per-attempt flags, so they are cleared from the shared file.
	base := spec
	base.Shard, base.Output, base.Heartbeat = Shard{}, Output{}, Heartbeat{}
	hash, err := specHash(base)
	if err != nil {
		return CoordinatorStats{}, err
	}
	data, err := base.Encode()
	if err != nil {
		return CoordinatorStats{}, err
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := writeFileAtomic(specPath, data); err != nil {
		return CoordinatorStats{}, fmt.Errorf("sweep: coordinator: %w", err)
	}

	// Sweep up staging leftovers of a killed predecessor: temp files never
	// renamed into place. Committed task outputs and the manifest are left
	// alone — they are the resume state.
	removeStaleTemps(dir, "shard_*.jsonl")
	removeStaleTemps(dir, manifestName)
	removeStaleTemps(dir, "spec.json")
	if spec.Output.Path != "" {
		removeStaleTemps(filepath.Dir(spec.Output.Path), filepath.Base(spec.Output.Path))
	}

	mf, resumed, err := openManifest(dir, hash, tasks)
	if err != nil {
		return CoordinatorStats{}, err
	}
	if resumed > 0 {
		opts.Log("coordinator: resuming %d/%d completed tasks from %s", resumed, len(tasks), dir)
	}

	c := &coordinator{spec: spec, opts: opts, dir: dir, specPath: specPath, mf: mf,
		tasks: tasks, taskCost: taskCost}
	c.stats.Shards = opts.Shards
	c.stats.Tasks = len(tasks)
	c.stats.Resumed = resumed

	if err := c.runAll(ctx); err != nil {
		return c.stats, err
	}
	rows, err := c.stitch()
	if err != nil {
		return c.stats, err
	}
	c.stats.Rows = rows
	return c.stats, nil
}

// coordinator carries the per-run state shared by the task goroutines.
type coordinator struct {
	spec     Spec
	opts     CoordinatorOptions
	dir      string
	specPath string
	mf       *manifest
	// tasks are the planned row ranges, one per manifest entry; taskCost
	// prices them and orders the claim queue.
	tasks    []rowRange
	taskCost []float64

	mu    sync.Mutex
	stats CoordinatorStats
}

// count mutates the shared stats under the lock.
func (c *coordinator) count(fn func(*CoordinatorStats)) {
	c.mu.Lock()
	fn(&c.stats)
	c.mu.Unlock()
}

// shardSpec derives task i's spec: the base run, pinned to its explicit
// row range (which the Pool forwards to worker subprocesses as -claim)
// and to its canonical output file in the coordinator directory.
func (c *coordinator) shardSpec(i int) Spec {
	s := c.spec
	s.Shard = Shard{Index: i, Count: len(c.tasks), Lo: c.tasks[i].lo, Hi: c.tasks[i].hi}
	s.Output = Output{Path: filepath.Join(c.dir, shardFileName(i))}
	// Heartbeats are per-attempt: a health-checking launcher (the pool)
	// assigns its own beat files; a plain launcher runs without them.
	s.Heartbeat = Heartbeat{}
	return s
}

// runAll drives every non-resumed task to done: pending tasks form a
// shared queue ordered heaviest-first, and opts.Parallel worker slots claim
// the next task as each goes idle. That claim loop is the work-stealing
// half of cost-aware scheduling: a slot stuck on a heavy chunk keeps it
// while idle slots drain the rest of the queue, so a slow range delays the
// run by at most its own length. A task that exhausts its attempts fails
// the run, but deliberately does not cancel its siblings: every task that
// still completes commits its output to the manifest, so the retry of a
// partially-failed run (same Dir, perhaps after fixing a bad host) resumes
// everything but the broken range. Only a canceled ctx tears the whole run
// down.
func (c *coordinator) runAll(ctx context.Context) error {
	var order []int
	for i := range c.tasks {
		if c.mf.state(i).Status != shardDone {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return c.taskCost[order[a]] > c.taskCost[order[b]]
	})
	workers := min(c.opts.Parallel, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				if err := c.runShard(ctx, order[k]); err != nil {
					mu.Lock()
					// Keep the most informative error: a task's real
					// failure beats the context errors a cancellation
					// causes in its siblings.
					if firstErr == nil || (errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// runShard drives one task through launch and retry, one attempt at a
// time, until an attempt produces the output file or the attempt cap is
// hit. Each attempt is recorded running, launched, checked for its output,
// and recorded done or failed; a failure backs off and retries.
func (c *coordinator) runShard(ctx context.Context, idx int) error {
	task := ShardTask{Spec: c.shardSpec(idx), SpecPath: c.specPath, Index: idx}
	rows := c.tasks[idx].hi - c.tasks[idx].lo
	for attempt := 1; ; attempt++ {
		if err := c.mf.update(idx, func(s *shardState) {
			s.Status = shardRunning
			s.Attempts = attempt
			s.record(attempt)
		}); err != nil {
			return err
		}
		c.count(func(st *CoordinatorStats) { st.Launches++ })
		t := task
		t.Attempt = attempt
		// Placement-aware launchers report the worker through Assigned;
		// the manifest write is best-effort attribution, never a failure.
		t.Assigned = func(worker string) {
			_ = c.mf.update(idx, func(s *shardState) { s.record(attempt).Worker = worker })
		}
		start := time.Now()
		err := c.opts.Launcher.Launch(ctx, t)
		wall := time.Since(start)
		if err == nil {
			// Trust, but verify: a launcher reporting success without the
			// output file present is an attempt failure, not a stitch-time
			// surprise.
			if _, serr := os.Stat(task.Spec.Output.Path); serr != nil {
				err = fmt.Errorf("sweep: shard %d reported success without output: %w", idx, serr)
			}
		}
		if err == nil {
			// The winner's worker (if a placement-aware launcher reported
			// one) is promoted to the task record, and the attempt's
			// measured wall time and throughput land in its history — the
			// raw data calibrations and slow-worker post-mortems read.
			cps := 0.0
			if wall > 0 {
				cps = math.Round(float64(rows)/wall.Seconds()*10) / 10
			}
			c.count(func(st *CoordinatorStats) {
				if wall > st.SlowestWall {
					st.SlowestTask, st.SlowestWall, st.SlowestCellsPerSec = idx, wall, cps
				}
			})
			return c.mf.update(idx, func(s *shardState) {
				s.Status = shardDone
				r := s.record(attempt)
				r.WallMS, r.Rows, r.CellsPerSec = wall.Milliseconds(), rows, cps
				s.Worker = r.Worker
			})
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// The failure goes into the attempt's post-mortem record
		// (bounded: error strings can carry long stderr tails).
		msg := err.Error()
		if len(msg) > 300 {
			msg = msg[:297] + "..."
		}
		if merr := c.mf.update(idx, func(s *shardState) {
			r := s.record(attempt)
			r.Error, r.WallMS = msg, wall.Milliseconds()
		}); merr != nil {
			return merr
		}
		if attempt >= c.opts.MaxAttempts {
			if merr := c.mf.update(idx, func(s *shardState) { s.Status = shardFailed }); merr != nil {
				return merr
			}
			return fmt.Errorf("sweep: shard %d/%d failed after %d attempts: %w",
				idx, len(c.tasks), attempt, err)
		}
		d := backoffDelay(c.opts.RetryBackoff, attempt-1,
			splitmix64(c.opts.Seed^uint64(idx)<<20^uint64(attempt)))
		c.opts.Log("coordinator: shard %d attempt %d/%d failed (%v); retrying in %v",
			idx, attempt, c.opts.MaxAttempts, err, d.Round(time.Millisecond))
		if d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		c.count(func(st *CoordinatorStats) { st.Retries++ })
	}
}

// stitch concatenates the shard outputs, in shard order, into the final
// output — Output.Path via the same all-or-nothing temp+rename write the
// shards use, stdout otherwise. Every shard file it reads was produced by
// an atomic rename, so truncated attempts are unreachable by construction;
// the concatenation is byte-identical to the unsharded run.
func (c *coordinator) stitch() (int, error) {
	var w io.Writer = os.Stdout
	var out *atomicio.File
	if c.spec.Output.Path != "" {
		var err error
		if out, err = atomicio.Create(c.spec.Output.Path); err != nil {
			return 0, fmt.Errorf("sweep: output: %w", err)
		}
		w = out
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	rows := 0
	var err error
	buf := make([]byte, 1<<16)
	for i := 0; i < len(c.tasks) && err == nil; i++ {
		rows, err = appendFile(bw, filepath.Join(c.dir, shardFileName(i)), buf, rows)
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if out != nil {
		if err == nil {
			if cerr := out.Commit(); cerr != nil {
				err = fmt.Errorf("sweep: output: %w", cerr)
			}
		} else {
			out.Abort()
		}
	}
	if err != nil {
		return 0, err
	}
	return rows, nil
}

// appendFile streams path into w, counting rows (newlines) as it goes.
func appendFile(w io.Writer, path string, buf []byte, rows int) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return rows, fmt.Errorf("sweep: stitch: %w", err)
	}
	defer f.Close()
	for {
		n, rerr := f.Read(buf)
		rows += bytes.Count(buf[:n], []byte{'\n'})
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return rows, fmt.Errorf("sweep: stitch: %w", werr)
			}
		}
		if rerr == io.EOF {
			return rows, nil
		}
		if rerr != nil {
			return rows, fmt.Errorf("sweep: stitch: %w", rerr)
		}
	}
}

// removeStaleTemps deletes never-committed staging files (base.tmp-*) in
// dir — the only residue a killed writer can leave, since all committed
// writes are renames.
func removeStaleTemps(dir, base string) {
	matches, _ := filepath.Glob(filepath.Join(dir, base+".tmp-*"))
	for _, m := range matches {
		os.Remove(m)
	}
}
