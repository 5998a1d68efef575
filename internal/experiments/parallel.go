package experiments

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"ivliw/internal/arch"
	"ivliw/internal/core"
	"ivliw/internal/lru"
	"ivliw/internal/pipeline"
	"ivliw/internal/stats"
	"ivliw/internal/workload"
)

// defaultWorkers is the pool size used when a caller passes workers <= 0 to
// StreamCells: 0 means "GOMAXPROCS at dispatch time". It is set by SetWorkers
// (the -workers flag) instead of mutating runtime.GOMAXPROCS, which would
// also throttle the garbage collector and any nested parallelism.
var defaultWorkers atomic.Int64

// SetWorkers fixes the worker-pool size used by the figure drivers when no
// explicit count is passed. n <= 0 restores the default (GOMAXPROCS).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Workers returns the effective default pool size.
func Workers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// StreamCells evaluates f over n independent cells on a bounded worker pool
// and hands the results to emit in strict cell order, as they become
// contiguously available — the one cell pool under the figure drivers and
// sweep.Run, whose output must not buffer the whole grid. workers <= 0
// selects the SetWorkers / GOMAXPROCS default, and a one-worker pool runs
// the cells serially in order. Memory stays bounded by a reorder window:
// workers never dispatch more than window cells ahead of the emission
// frontier, so at most window results wait in the reorder buffer plus up
// to window more in the batch being emitted, regardless of n. emit is
// called serially (never concurrently) and in ascending cell order,
// outside the pool lock so workers keep computing while rows are written;
// an emit error stops the run.
// On a cell error dispatch stops, already-dispatched cells drain, and the
// lowest-indexed failing cell's error is returned (rows before it may
// already have been emitted). Canceling ctx likewise stops dispatch and
// emission promptly — in-flight cells drain without their rows being
// emitted — and surfaces ctx.Err() unless a cell or emit error had already
// been recorded. An n <= 0 grid (an empty shard) succeeds with no emit
// calls, provided the context is still live.
func StreamCells[T any](ctx context.Context, n, workers int, f func(i int) (T, error), emit func(i int, v T) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := f(i)
			if err != nil {
				return err
			}
			if err := emit(i, v); err != nil {
				return err
			}
		}
		return nil
	}
	// The window only bounds memory, so its floor is generous: grids of up
	// to 64 cells (every figure grid but Figure 8's 70) dispatch exactly as
	// an unwindowed pool would, and a slow cell holding the emission
	// frontier cannot leave the other workers idle at the window's edge.
	window := max(4*workers, 64)

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		buf      = make(map[int]T, window)
		next     int // next cell to dispatch
		nextEmit int // next cell to emit
		emitting bool
		stopped  bool
		emitErr  error
		cellErrs map[int]error
	)
	// A canceled context stops the pool the same way an error does: wake
	// every waiter, let in-flight cells drain, emit nothing further.
	unregister := context.AfterFunc(ctx, func() {
		mu.Lock()
		stopped = true
		cond.Broadcast()
		mu.Unlock()
	})
	defer unregister()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for !stopped && next < n && next-nextEmit >= window {
					cond.Wait()
				}
				if stopped || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				v, err := f(i)

				mu.Lock()
				if err != nil {
					if cellErrs == nil {
						cellErrs = map[int]error{}
					}
					cellErrs[i] = err
					stopped = true
					cond.Broadcast()
					mu.Unlock()
					return
				}
				buf[i] = v
				// Flush the contiguous prefix. Extraction happens under
				// the lock but emit (user I/O) runs outside it, so other
				// workers keep depositing results meanwhile. `emitting`
				// keeps emission serialized and in order: whoever holds
				// it loops until no contiguous rows remain, picking up
				// whatever accumulated at the frontier while it was
				// emitting. A failed cell never lands in buf, so the
				// flush stops before it.
				for !stopped && !emitting {
					start := nextEmit
					var batch []T
					for {
						head, ok := buf[nextEmit]
						if !ok {
							break
						}
						delete(buf, nextEmit)
						batch = append(batch, head)
						nextEmit++
					}
					if len(batch) == 0 {
						break
					}
					emitting = true
					cond.Broadcast() // the window frontier advanced
					mu.Unlock()
					var err error
					for k := range batch {
						if err = emit(start+k, batch[k]); err != nil {
							break
						}
					}
					mu.Lock()
					emitting = false
					if err != nil {
						emitErr = err
						stopped = true
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Cells are dispatched in ascending order and every dispatched cell
	// completes, so the lowest-indexed failure is deterministic.
	if len(cellErrs) > 0 {
		lowest := -1
		for i := range cellErrs {
			if lowest < 0 || i < lowest {
				lowest = i
			}
		}
		return cellErrs[lowest]
	}
	if emitErr != nil {
		return emitErr
	}
	return ctx.Err()
}

// runCells evaluates f over n independent cells — typically the (benchmark ×
// variant) grid of a figure — on the StreamCells pool and returns the
// results in cell order, with StreamCells' deterministic error and
// cancellation semantics.
func runCells[T any](ctx context.Context, n, workers int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if err := StreamCells(ctx, n, workers, f, func(i int, v T) error { out[i] = v; return nil }); err != nil {
		return nil, err
	}
	return out, nil
}

// figureCache is the compile cache shared by every figure driver: variants
// differing only in simulate-only axes (for example IBC vs IBC+AB in
// Figures 6 and 8) compile each benchmark once, and compile keys recurring
// across figures (or across the headline recomputation of Figures 4/6/8)
// reuse their artifacts across calls too. Bounded, so the retained memory
// is capped regardless of how many grids run.
var figureCache = pipeline.NewCache(pipeline.DefaultCacheSize)

// cellTableSize bounds cellTable. `ivliw-bench -exp all` simulates 154
// distinct cells; a cell is a few per-loop counter records.
const cellTableSize = 512

// cellKey identifies one simulated figure cell: the benchmark and every
// input of the variant that reaches its result. The Label is deliberately
// absent, so Figure 7's bars find Figure 4's cells, Figure 5's find Figure
// 6's and the headline recomputation finds all of them. Benchmark names
// stand in for the benchmark because the figure functions only see
// built-in suite specs, whose names are unique.
type cellKey struct {
	bench   string
	cfg     arch.Config
	opt     core.Options
	aligned bool
}

func (v Variant) cellKey(bench string) cellKey {
	return cellKey{bench: bench, cfg: v.Cfg, opt: v.Opt, aligned: v.Aligned}
}

// cellTable holds every figure cell benchCells simulated successfully.
// Like pipeline.Store artifacts, its results are shared: the Loops slice of
// a returned stats.Bench belongs to the table, so callers must treat cells
// as read-only (every figure function only reads them).
var cellTable = lru.New[cellKey, stats.Bench](cellTableSize)

// simulatedLanes counts the lanes benchCells handed to the simulator.
var simulatedLanes atomic.Int64

// benchCells runs every (benchmark, variant) cell of the grid in parallel
// and returns the per-benchmark result rows in suite order: cells[b][v] is
// benchmark b under variant v. Cells already in cellTable are read from it;
// the rest resolve compilations through the shared figureCache. Missing
// variants sharing a CompileKey (for example IBC vs IBC+AB in Figures 6 and
// 8) are sibling lanes of one batched simulation: the parallel unit is
// (benchmark × compile group), each evaluated through RunBenchBatchStore so
// siblings share one event-merge pass. Results and the reported error
// (lowest (benchmark, variant) failing cell) are identical to the unbatched,
// untabled fan-out: a lane's result does not depend on its batch siblings,
// and failed cells are never stored.
func benchCells(ctx context.Context, suite []workload.BenchSpec, variants []Variant) ([][]stats.Bench, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	nv := len(variants)
	var groups [][]int
	byKey := map[string]int{}
	for v := range variants {
		k := variants[v].CompileKey()
		g, ok := byKey[k]
		if !ok {
			g = len(groups)
			byKey[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], v)
	}
	// One task per (benchmark, compile group) with lanes left to simulate.
	type task struct {
		bench int
		lanes []int // variant indices
	}
	var tasks []task
	rows := make([][]stats.Bench, len(suite))
	for b, spec := range suite {
		rows[b] = make([]stats.Bench, nv)
		for _, idx := range groups {
			var missing []int
			for _, v := range idx {
				if cell, ok := cellTable.Get(variants[v].cellKey(spec.Name)); ok {
					rows[b][v] = cell
				} else {
					missing = append(missing, v)
				}
			}
			if len(missing) > 0 {
				tasks = append(tasks, task{bench: b, lanes: missing})
			}
		}
	}
	type taskRes struct {
		benches []stats.Bench
		errs    []error
	}
	flat, err := runCells(ctx, len(tasks), 0, func(i int) (taskRes, error) {
		t := tasks[i]
		spec := suite[t.bench]
		vs := make([]Variant, len(t.lanes))
		for j, v := range t.lanes {
			vs[j] = variants[v]
		}
		simulatedLanes.Add(int64(len(vs)))
		benches, errs := RunBenchBatchStore(spec, vs, figureCache)
		for j, v := range vs {
			if errs[j] == nil {
				cellTable.Add(v.cellKey(spec.Name), benches[j])
			}
		}
		return taskRes{benches: benches, errs: errs}, nil
	})
	if err != nil {
		return nil, err
	}
	firstIdx, firstErr := -1, error(nil)
	for i, t := range tasks {
		for j, v := range t.lanes {
			rows[t.bench][v] = flat[i].benches[j]
			if err := flat[i].errs[j]; err != nil {
				if fi := t.bench*nv + v; firstIdx < 0 || fi < firstIdx {
					firstIdx, firstErr = fi, err
				}
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return rows, nil
}
