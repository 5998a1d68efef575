package sweep

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ivliw/sweep/fault"
)

// TestCalibrationRoundTrip: Encode/Parse is a byte-stable round trip, like
// the spec's — calibration files diff cleanly and reload exactly.
func TestCalibrationRoundTrip(t *testing.T) {
	for _, cal := range []Calibration{
		DefaultCalibration(),
		{
			CellsPerSec:   12515.5,
			Clusters:      []ClusterCost{{Clusters: 2, CompileMS: 0.59, SimMS: 0.08}},
			CacheExp:      -0.022,
			BatchDiscount: 0.5,
		},
	} {
		b1, err := cal.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseCalibration(b1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("calibration round trip is not byte-stable:\n%s\nvs\n%s", b1, b2)
		}
	}
}

// TestCalibrationSaveLoad: SaveCalibration writes atomically and
// LoadCalibration returns the identical calibration.
func TestCalibrationSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cal.json")
	want := DefaultCalibration()
	if err := SaveCalibration(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCalibration(path)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := want.Encode()
	g, _ := got.Encode()
	if !bytes.Equal(w, g) {
		t.Errorf("loaded calibration differs:\n%s\nvs saved\n%s", g, w)
	}
}

// TestParseCalibrationStrict: unknown fields, trailing data and invalid
// values are rejected whole — a calibration is usable or refused, never
// half-applied (the same contract ParseSpec keeps).
func TestParseCalibrationStrict(t *testing.T) {
	valid := `{"clusters":[{"clusters":2,"compile_ms":1,"sim_ms":0.5}]}`
	if _, err := ParseCalibration([]byte(valid)); err != nil {
		t.Fatalf("minimal valid calibration rejected: %v", err)
	}
	for name, data := range map[string]string{
		"unknown field":       `{"clusters":[{"clusters":2,"compile_ms":1,"sim_ms":0.5}],"turbo":true}`,
		"unknown entry field": `{"clusters":[{"clusters":2,"compile_ms":1,"sim_ms":0.5,"x":1}]}`,
		"trailing data":       valid + `{"more":1}`,
		"no clusters":         `{"cells_per_sec":100}`,
		"descending clusters": `{"clusters":[{"clusters":4,"compile_ms":1,"sim_ms":1},{"clusters":2,"compile_ms":1,"sim_ms":1}]}`,
		"non-positive cost":   `{"clusters":[{"clusters":2,"compile_ms":0,"sim_ms":1}]}`,
		"bad batch discount":  `{"clusters":[{"clusters":2,"compile_ms":1,"sim_ms":1}],"batch_discount":1.5}`,
		"wild cache exp":      `{"clusters":[{"clusters":2,"compile_ms":1,"sim_ms":1}],"cache_exp":3}`,
		"not json":            `calibration? never heard of it`,
	} {
		if _, err := ParseCalibration([]byte(data)); err == nil {
			t.Errorf("%s: accepted, want an error", name)
		}
	}
}

// TestCoordinateCorruptCalibrationDegrades: a corrupt (or missing)
// calibration file degrades the cost model to the built-in default with a
// logged warning — the run still completes byte-identically, never fails.
func TestCoordinateCorruptCalibrationDegrades(t *testing.T) {
	spec := coordSpec(t)
	ref := runJSONL(t, spec)
	for name, path := range map[string]string{
		"corrupt": filepath.Join(t.TempDir(), "corrupt.json"),
		"missing": filepath.Join(t.TempDir(), "nope.json"),
	} {
		if name == "corrupt" {
			if err := os.WriteFile(path, []byte(`{"clusters":[],"what":1`), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		out := filepath.Join(dir, "out.jsonl")
		cs := spec
		cs.Output.Path = out
		var mu sync.Mutex
		var logs []string
		st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
			Shards: 2, Dir: filepath.Join(dir, "work"),
			Calibration: path,
			Log: func(f string, a ...any) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(f, a...))
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("%s calibration: %v", name, err)
		}
		if got, _ := os.ReadFile(out); !bytes.Equal(got, ref) {
			t.Errorf("%s calibration: output differs from the unsharded run", name)
		}
		warned := false
		for _, l := range logs {
			if strings.Contains(l, "unusable") && strings.Contains(l, "default cost model") {
				warned = true
			}
		}
		if !warned {
			t.Errorf("%s calibration: no degradation warning logged (logs: %q)", name, logs)
		}
		if st.Rows != 6 {
			t.Errorf("%s calibration: stats = %+v, want 6 rows", name, st)
		}
	}
}

// TestCostCutsProperties: on randomized synthetic grids, cost cuts always
// (a) number at most k, (b) are non-empty and tile [0, n) contiguously and
// monotonically, (c) cut only at compile-key atom boundaries, and (d) are
// deterministic. Fuzzing the shape here is cheap — no simulation runs,
// just index arithmetic.
func TestCostCutsProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		// Random atom structure: a few atoms of random width, with random
		// (occasionally extreme) per-row costs.
		var g gridCosts
		n := 0
		for a := 0; a < 1+rng.IntN(8); a++ {
			g.atoms = append(g.atoms, n)
			w := 1 + rng.IntN(6)
			for i := 0; i < w; i++ {
				c := rng.Float64()
				if rng.IntN(4) == 0 {
					c *= 100 // heavy atom, the skew cost cuts exist for
				}
				g.rows = append(g.rows, c)
				n++
			}
		}
		k := 1 + rng.IntN(10)
		cuts := costCuts(g, n, k)
		if len(cuts) < 1 || len(cuts) > k {
			t.Fatalf("trial %d: got %d cuts, want 1..%d", trial, len(cuts), k)
		}
		atomSet := map[int]bool{0: true, n: true}
		for _, a := range g.atoms {
			atomSet[a] = true
		}
		lo := 0
		for i, c := range cuts {
			if c.lo != lo || c.hi <= c.lo {
				t.Fatalf("trial %d: cut %d = %+v is empty or does not tile (prev hi %d)", trial, i, c, lo)
			}
			if !atomSet[c.hi] {
				t.Fatalf("trial %d: cut %d ends at %d, inside a compile-key atom (atoms %v, n %d)",
					trial, i, c.hi, g.atoms, n)
			}
			lo = c.hi
		}
		if lo != n {
			t.Fatalf("trial %d: cuts cover [0, %d), want [0, %d)", trial, lo, n)
		}
		again := costCuts(g, n, k)
		if len(again) != len(cuts) {
			t.Fatalf("trial %d: costCuts is not deterministic", trial)
		}
		for i := range cuts {
			if cuts[i] != again[i] {
				t.Fatalf("trial %d: costCuts is not deterministic", trial)
			}
		}
	}
}

// TestCostCutsBalance: on a skewed two-atom grid (one heavy compile key,
// one light), cost cuts place the boundary at the atom edge — the heavy
// atom gets its own shard — where count cuts would split the light rows'
// worth of work far from evenly.
func TestCostCutsBalance(t *testing.T) {
	// 8 heavy rows (cost 10) then 8 light rows (cost 1), atoms at 0 and 8.
	g := gridCosts{atoms: []int{0, 8}}
	for i := 0; i < 16; i++ {
		c := 10.0
		if i >= 8 {
			c = 1
		}
		g.rows = append(g.rows, c)
	}
	cuts := costCuts(g, 16, 2)
	want := []rowRange{{0, 8}, {8, 16}}
	if cuts[0] != want[0] || cuts[1] != want[1] {
		t.Errorf("cuts = %+v, want %+v (heavy atom isolated)", cuts, want)
	}
	// Degenerate: all-zero costs fall back to count balancing.
	zero := gridCosts{rows: make([]float64, 16), atoms: []int{0, 8}}
	cuts = costCuts(zero, 16, 2)
	if cuts[0] != (rowRange{0, 8}) || cuts[1] != (rowRange{8, 16}) {
		t.Errorf("zero-cost cuts = %+v, want the count-balanced fallback", cuts)
	}
	// An empty grid has no cuts at all, not k empty ones.
	if cuts := costCuts(gridCosts{}, 0, 3); len(cuts) != 0 {
		t.Errorf("empty-grid cuts = %+v, want none", cuts)
	}
}

// TestGridCostsShape: the priced grid respects the model's structure —
// positive costs, atoms exactly at compile-key changes, and sim-batch
// sibling lanes discounted below their leader.
func TestGridCostsShape(t *testing.T) {
	// clusters {2,4} x ab {0,16} x one bench = 4 rows
	spec := Spec{
		Grid:      Grid{Clusters: []int{2, 4}, ABEntries: []int{0, 16}},
		Workloads: Workloads{Bench: []string{"g721dec"}},
		Compile:   Compile{Heuristic: "IPBC", Unroll: "none"},
	}
	opt, benches, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	points := spec.Grid.points(opt)
	m := newCostModel(DefaultCalibration())

	g := m.gridCosts(points, benches, 0)
	if len(g.rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(g.rows))
	}
	for i, c := range g.rows {
		if !(c > 0) {
			t.Errorf("row %d cost = %g, want > 0", i, c)
		}
	}
	// AB entries are simulate-only: both points of one cluster count share
	// a compile key, so the grid has one atom per cluster count.
	if len(g.atoms) != 2 || g.atoms[0] != 0 || g.atoms[1] != 2 {
		t.Errorf("atoms = %v, want [0 2] (one per cluster count)", g.atoms)
	}
	// 4-cluster rows must price above 2-cluster rows (the compile curve is
	// strongly superlinear).
	if g.rows[2] <= g.rows[0] {
		t.Errorf("4-cluster row cost %g <= 2-cluster %g, want the cluster skew", g.rows[2], g.rows[0])
	}

	// With sim batching, the non-leader sibling lane gets cheaper while the
	// leader keeps its price.
	gb := m.gridCosts(points, benches, 2)
	if !(gb.rows[1] < g.rows[1]) {
		t.Errorf("batched sibling row cost %g, want < unbatched %g", gb.rows[1], g.rows[1])
	}
	if gb.rows[0] != g.rows[0] {
		t.Errorf("batch leader row cost %g, want unchanged %g", gb.rows[0], g.rows[0])
	}
}

// TestCoordinateCostStealProperty: random small grids × worker count ×
// parallelism always stitch byte-identically to the unsharded run. The
// byte-identity argument is structural (rows stay keyed by grid index; the
// stitcher concatenates ranges in index order), and this fuzzes the
// argument's edges: one worker, atoms heavier than the ideal share, more
// workers than chunks. One worker is always exactly one task; more are cut
// into at most chunksPerWorker chunks each, capped by the atom count, and
// every task launches exactly once.
func TestCoordinateCostStealProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	benchPool := []string{"g721dec", "gsmdec"}
	for trial := 0; trial < 4; trial++ {
		spec := Spec{
			Grid: Grid{
				Clusters:  []int{2, 4}[:1+rng.IntN(2)],
				ABEntries: []int{0, 16}[:1+rng.IntN(2)],
				MSHRs:     [][]int{nil, {0, 4}}[rng.IntN(2)],
			},
			Workloads: Workloads{Bench: benchPool[:1+rng.IntN(2)]},
			Compile:   Compile{Heuristic: "IPBC", Unroll: "none"},
			SimBatch:  []int{0, 4}[rng.IntN(2)],
		}
		ref := runJSONL(t, spec)
		atoms := len(spec.Grid.Clusters) // AB and MSHR depth are simulate-only
		for _, tc := range []struct{ shards, par int }{
			{1, 1}, {1, 4}, {2, 1}, {3, 3}, {2, 8}, {5, 2},
		} {
			dir := t.TempDir()
			out := filepath.Join(dir, "out.jsonl")
			cs := spec
			cs.Output.Path = out
			st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
				Shards: tc.shards, Parallel: tc.par, Dir: filepath.Join(dir, "work"),
			})
			if err != nil {
				t.Fatalf("trial %d %+v: %v", trial, tc, err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatalf("trial %d %+v: %v", trial, tc, err)
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("trial %d %+v: stitched output differs from the unsharded run", trial, tc)
			}
			maxTasks := 1
			if tc.shards > 1 {
				maxTasks = min(chunksPerWorker*tc.shards, atoms)
			}
			if st.Tasks < 1 || st.Tasks > maxTasks || (tc.shards == 1 && st.Tasks != 1) {
				t.Errorf("trial %d %+v: %d tasks, want 1..%d (exactly 1 for one worker)", trial, tc, st.Tasks, maxTasks)
			}
			if st.Launches != st.Tasks {
				t.Errorf("trial %d %+v: %d launches for %d tasks, want one each", trial, tc, st.Launches, st.Tasks)
			}
		}
	}
}

// TestCoordinateCancelMidStealResumes: cancellation mid-steal is clean (no
// stitched output, ctx error returned) and a rerun over the same directory
// resumes the chunks that committed before the cancel, still stitching
// byte-identically.
func TestCoordinateCancelMidStealResumes(t *testing.T) {
	spec := coordSpec(t)
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	work := filepath.Join(dir, "work")
	cs := spec
	cs.Output.Path = out

	// With Parallel 1 the claim queue runs chunks sequentially: the first
	// launch completes (and its manifest commit lands), the second launch
	// cancels the run mid-claim — a deterministic mid-steal interruption.
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	launches := 0
	launcher := LaunchFunc(func(lctx context.Context, task ShardTask) error {
		mu.Lock()
		launches++
		second := launches == 2
		mu.Unlock()
		if second {
			cancel()
			<-lctx.Done()
			return lctx.Err()
		}
		return InProcess{}.Launch(lctx, task)
	})
	_, err := Coordinate(ctx, cs, CoordinatorOptions{
		Shards: 2, Parallel: 1, Dir: work, Launcher: launcher,
	})
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if _, serr := os.Stat(out); serr == nil {
		t.Fatal("canceled run left a stitched output behind")
	}

	// Resume: the committed chunk is trusted (its recorded range matches the
	// replanned cuts — same default calibration), the rest relaunch.
	st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
		Shards: 2, Parallel: 1, Dir: work,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Resumed < 1 {
		t.Errorf("stats = %+v, want >= 1 resumed chunk", st)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, ref) {
		t.Error("resumed output differs from the unsharded run")
	}
}

// TestPoolDeadWorkerDuringSteal: a pool worker dies while idle workers
// claim chunks; its in-flight chunks fail, requeue onto the healthy
// worker, and the stitched output stays byte-identical.
func TestPoolDeadWorkerDuringSteal(t *testing.T) {
	spec := coordSpec(t)
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	cs := spec
	cs.Output.Path = filepath.Join(dir, "out.jsonl")
	pool := &Pool{
		Workers:           []Worker{{Name: "w0", Slots: 2}, {Name: "w1", Slots: 2}},
		QuarantineBackoff: 20 * time.Millisecond,
		Fault:             &fault.Plan{Events: []fault.Event{{Op: fault.DeadWorker, Worker: "w1"}}},
		Log:               t.Logf,
	}
	pool.inproc = func(ctx context.Context, _ string, _ ShardTask, spec Spec) error {
		select {
		case <-time.After(30 * time.Millisecond):
		case <-ctx.Done():
			return context.Cause(ctx)
		}
		_, err := Run(ctx, spec, nil)
		return err
	}
	st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
		Shards: 2, Dir: filepath.Join(dir, "work"), Launcher: pool, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cs.Output.Path); !bytes.Equal(got, ref) {
		t.Error("output after a worker death during stealing differs from the unsharded run")
	}
	if pool.Stats().WorkerDeaths != 1 {
		t.Errorf("pool stats = %+v, want exactly 1 worker death", pool.Stats())
	}
	if st.Retries < 1 {
		t.Errorf("stats = %+v, want >= 1 retry after the death", st)
	}
}

// TestCoordinateEmptyShardsNotLaunched: a heavy leading atom outweighs
// several equal-cost shares, so some ideal cut positions collapse onto the
// same atom edge. Those cuts are dropped rather than kept as empty ranges:
// every manifest range holds rows, and every task launches exactly once.
func TestCoordinateEmptyShardsNotLaunched(t *testing.T) {
	spec := coordSpec(t)
	spec.Grid = Grid{Clusters: []int{8, 2}, CacheBytes: []int{4 << 10, 8 << 10}} // 4 atoms, 8-cluster first
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	work := filepath.Join(dir, "work")
	cs := spec
	cs.Output.Path = out
	l := &scriptedLauncher{inner: InProcess{}}
	st, err := Coordinate(context.Background(), cs, CoordinatorOptions{
		Shards: 9, Dir: work, Launcher: l,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 9 workers ask for 4 chunks (the atom cap); under the default model
	// an 8-cluster atom costs about 8× a 2-cluster one, so at least one of
	// the 3 interior cuts lands on an edge already taken.
	if st.Tasks < 1 || st.Tasks >= 4 || l.launchCount() != st.Tasks || st.Launches != st.Tasks {
		t.Errorf("launches = %d, stats = %+v; want 1..3 tasks (a collapsed cut dropped), each launched once",
			l.launchCount(), st)
	}
	shards := poolManifest(t, work).Shards
	if len(shards) != st.Tasks {
		t.Fatalf("manifest records %d tasks, stats say %d", len(shards), st.Tasks)
	}
	for _, s := range shards {
		if s.Lo >= s.Hi || s.Status != shardDone || len(s.History) != 1 {
			t.Errorf("task %d: range [%d, %d), status %s, %d attempts; want a non-empty range done in one attempt",
				s.Index, s.Lo, s.Hi, s.Status, len(s.History))
		}
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, ref) {
		t.Error("stitched output differs from the unsharded run")
	}
}

// TestCalibrateMeasures: an end-to-end calibration over a tiny grid yields
// a valid, savable calibration whose cluster axis matches the grid's.
func TestCalibrateMeasures(t *testing.T) {
	spec := Spec{
		Grid:      Grid{Clusters: []int{2}, ABEntries: []int{0}},
		Workloads: Workloads{Bench: []string{"g721dec"}},
		Compile:   Compile{Heuristic: "IPBC", Unroll: "none"},
	}
	cal, err := Calibrate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Validate(); err != nil {
		t.Fatalf("calibrate produced an invalid calibration: %v", err)
	}
	if len(cal.Clusters) != 1 || cal.Clusters[0].Clusters != 2 {
		t.Errorf("cluster axis = %+v, want one entry at 2 clusters", cal.Clusters)
	}
	if cal.CellsPerSec <= 0 {
		t.Errorf("cells/s = %g, want > 0", cal.CellsPerSec)
	}
	path := filepath.Join(t.TempDir(), "cal.json")
	if err := SaveCalibration(path, cal); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCalibration(path); err != nil {
		t.Fatalf("measured calibration does not round-trip: %v", err)
	}
}
