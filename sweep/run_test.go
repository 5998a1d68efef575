package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ivliw/internal/arch"
	"ivliw/internal/core"
	"ivliw/internal/sched"
)

// smallSpec is a 6-point grid (clusters × AB) over two benchmarks = 12
// cells, compiled without unrolling to keep the tests fast.
func smallSpec() Spec {
	return Spec{
		Grid: Grid{
			Clusters:  []int{2, 4, 8},
			ABEntries: []int{0, 16},
		},
		Workloads: Workloads{Bench: []string{"g721dec", "gsmdec"}},
		Compile:   Compile{Heuristic: "IPBC", Unroll: "none"},
	}
}

// runJSONL executes the spec and returns the JSONL bytes.
func runJSONL(t *testing.T, spec Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Run(context.Background(), spec, JSONL(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGridPoints: the cross-product expands correctly and the default
// (empty) grid is exactly the paper point.
func TestGridPoints(t *testing.T) {
	opt := core.Options{Heuristic: sched.IPBC, Unroll: core.Selective}
	pts := Grid{Clusters: []int{2, 4, 8}, ABEntries: []int{0, 16}}.points(opt)
	if len(pts) != 6 {
		t.Fatalf("3×2 grid expanded to %d points", len(pts))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		if seen[p.Label] {
			t.Errorf("duplicate point label %q", p.Label)
		}
		seen[p.Label] = true
	}
	def := Grid{}.points(opt)
	if len(def) != 1 {
		t.Fatalf("empty grid expanded to %d points, want 1", len(def))
	}
	if want := arch.Default(); def[0].Cfg != want {
		t.Errorf("empty grid point = %+v, want Table 2 default", def[0].Cfg)
	}
	// The hint-budget axis must not mint duplicate points for buffer-less
	// machines (hints without buffers are not a distinct machine).
	hintPts := Grid{ABEntries: []int{0, 16}, ABHintK: []int{0, 4}}.points(opt)
	if len(hintPts) != 3 {
		t.Fatalf("AB×K grid expanded to %d points, want 3", len(hintPts))
	}
}

// TestRunGridNewAxes: the FU/reg-bus/MSHR/hint-budget axes expand the
// cross-product with unique labels and denormalize into the rows — in
// particular the positional [int, fp, mem] convention of Grid.FUs must
// land in the matching fu_* columns.
func TestRunGridNewAxes(t *testing.T) {
	opt := core.Options{Heuristic: sched.IPBC, Unroll: core.NoUnroll}
	grid := Grid{
		FUs:       [][]int{{1, 1, 1}, {2, 1, 2}},
		RegBuses:  []int{2, 4},
		MSHRs:     []int{0, 4},
		ABEntries: []int{16},
		ABHintK:   []int{0, 2},
	}
	pts := grid.points(opt)
	if len(pts) != 16 {
		t.Fatalf("2×2×2×2 grid expanded to %d points", len(pts))
	}
	labels := map[string]bool{}
	for _, p := range pts {
		if labels[p.Label] {
			t.Errorf("duplicate label %q across new axes", p.Label)
		}
		labels[p.Label] = true
	}

	var rows Collector
	spec := Spec{
		Grid:      grid,
		Workloads: Workloads{Bench: []string{"g721dec"}},
		Compile:   Compile{Heuristic: "IPBC", Unroll: "none"},
		Workers:   1,
	}
	if _, err := Run(context.Background(), spec, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != len(pts) {
		t.Fatalf("%d rows for %d points", len(rows.Rows), len(pts))
	}
	for i, r := range rows.Rows {
		if r.Error != "" {
			t.Fatalf("row %d failed: %s", i, r.Error)
		}
		p := pts[i]
		if r.FUInt != p.Cfg.FUsPerCluster[arch.FUInt] || r.FUFP != p.Cfg.FUsPerCluster[arch.FUFP] ||
			r.FUMem != p.Cfg.FUsPerCluster[arch.FUMem] {
			t.Errorf("row %d FU mix not denormalized: %+v", i, r)
		}
		if r.FUInt != grid.FUs[i/8][0] || r.FUFP != grid.FUs[i/8][1] || r.FUMem != grid.FUs[i/8][2] {
			t.Errorf("row %d FU columns do not follow the [int, fp, mem] convention: %+v", i, r)
		}
		if r.RegBuses != p.Cfg.RegBuses || r.MSHRs != p.Cfg.MSHRs {
			t.Errorf("row %d reg-bus/MSHR not denormalized: %+v", i, r)
		}
		if r.ABHintK != p.Cfg.HintBudget() {
			t.Errorf("row %d hint budget = %d, want %d", i, r.ABHintK, p.Cfg.HintBudget())
		}
	}
}

// TestRunDeterministicAcrossWorkers: the acceptance criterion — a sweep of
// >= 12 (config × benchmark) cells must stream identical JSONL across
// repeated runs and different worker counts.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	spec := smallSpec()
	var first []byte
	for _, workers := range []int{1, 2, 7} {
		spec.Workers = workers
		enc := runJSONL(t, spec)
		if n := bytes.Count(enc, []byte("\n")); n < 12 {
			t.Fatalf("grid has %d rows, want >= 12", n)
		}
		if first == nil {
			first = enc
			continue
		}
		if !bytes.Equal(first, enc) {
			t.Fatalf("workers=%d: sweep JSON differs from workers=1 run", workers)
		}
	}
}

// TestRunStoreVariantsByteIdentical: rows must be byte-identical with the
// memory cache disabled, default-sized and pathologically small, with and
// without the disk tier, warm or cold, across worker counts.
func TestRunStoreVariantsByteIdentical(t *testing.T) {
	spec := smallSpec()
	spec.Store = Store{Memory: -1}
	spec.Workers = 1
	ref := runJSONL(t, spec)

	dir := t.TempDir()
	for name, tc := range map[string]struct {
		store   Store
		workers int
	}{
		"default-parallel": {Store{}, 7},
		"tiny-parallel":    {Store{Memory: 1}, 3},
		"default-serial":   {Store{Memory: 256}, 1},
		"disk-cold":        {Store{Memory: -1, Dir: dir}, 4},
		"disk-warm":        {Store{Memory: -1, Dir: dir}, 4},
		"tiered-warm":      {Store{Dir: dir}, 7},
	} {
		spec.Store = tc.store
		spec.Workers = tc.workers
		if got := runJSONL(t, spec); !bytes.Equal(ref, got) {
			t.Errorf("%s: sweep bytes differ from the store-less serial reference", name)
		}
	}
}

// TestRunWarmDiskStore: a second run over a populated artifact directory
// compiles nothing and still produces identical bytes, whether one run or
// the shards of one filled the directory.
func TestRunWarmDiskStore(t *testing.T) {
	spec := smallSpec()
	spec.Store = Store{Dir: t.TempDir()}
	var cold bytes.Buffer
	cst, err := Run(context.Background(), spec, JSONL(&cold))
	if err != nil {
		t.Fatal(err)
	}
	if cst.DiskMisses == 0 || cst.DiskWrites != cst.DiskMisses {
		t.Errorf("cold run stats = %+v, want every miss persisted", cst)
	}
	var warm bytes.Buffer
	wst, err := Run(context.Background(), spec, JSONL(&warm))
	if err != nil {
		t.Fatal(err)
	}
	if wst.DiskMisses != 0 {
		t.Errorf("warm run compiled %d artifacts, want 0", wst.DiskMisses)
	}
	if wst.DiskHits == 0 {
		t.Error("warm run never hit the disk store")
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Error("warm rows differ from cold rows")
	}

	// Shards sharing one fresh store warm it for the unsharded run too.
	spec.Store = Store{Dir: t.TempDir()}
	for i := 0; i < 3; i++ {
		shard := spec
		shard.Shard = Shard{Index: i, Count: 3}
		runJSONL(t, shard)
	}
	var after bytes.Buffer
	ast, err := Run(context.Background(), spec, JSONL(&after))
	if err != nil {
		t.Fatal(err)
	}
	if ast.DiskMisses != 0 || !bytes.Equal(cold.Bytes(), after.Bytes()) {
		t.Errorf("run after 3 shards filled the store: %d compiles (want 0), rows equal to cold: %t",
			ast.DiskMisses, bytes.Equal(cold.Bytes(), after.Bytes()))
	}
}

// TestRunSharesCompileAcrossSimulateOnlyAxes: the AB axis is invisible to
// the compiler, so a (clusters × AB) grid compiles once per cluster count
// per benchmark.
func TestRunSharesCompileAcrossSimulateOnlyAxes(t *testing.T) {
	spec := smallSpec() // 3 cluster counts × 2 AB settings × 2 benches
	spec.Workers = 1
	st, err := Run(context.Background(), spec, Func(func(Row) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	wantCompiles := int64(3 * 2) // clusters × benches; AB shares
	if st.MemMisses != wantCompiles {
		t.Errorf("grid compiled %d artifacts, want %d (AB axis must share)", st.MemMisses, wantCompiles)
	}
	if st.MemHits != wantCompiles {
		t.Errorf("grid hit %d times, want %d", st.MemHits, wantCompiles)
	}
}

// TestRunBadPointFailsOneCell: an infeasible machine point (interleave 3
// does not divide the 32-byte block across any cluster count) must yield
// rows with Error set while every other cell still produces results.
func TestRunBadPointFailsOneCell(t *testing.T) {
	spec := smallSpec()
	spec.Grid.Interleave = []int{3, 4}
	var rows Collector
	if _, err := Run(context.Background(), spec, &rows); err != nil {
		t.Fatal(err)
	}
	var failed, succeeded int
	for _, r := range rows.Rows {
		if r.Interleave == 3 {
			if r.Error == "" || r.Cycles != 0 {
				t.Errorf("infeasible point row %+v: want Error set and zero counters", r)
			}
			failed++
		} else {
			if r.Error != "" {
				t.Errorf("good point %s/%s failed: %s", r.Point, r.Bench, r.Error)
			}
			if r.Cycles <= 0 {
				t.Errorf("good point %s/%s: no cycles", r.Point, r.Bench)
			}
			succeeded++
		}
	}
	if failed == 0 || succeeded == 0 {
		t.Errorf("grid produced %d error rows and %d good rows; want both", failed, succeeded)
	}
}

// TestRunRowShape: rows carry the denormalized machine coordinates, the
// access classes sum to the access total, and the encoding is one JSON
// object per line.
func TestRunRowShape(t *testing.T) {
	spec := smallSpec()
	spec.Grid = Grid{Clusters: []int{2}}
	spec.Workloads = Workloads{Bench: []string{"g721dec"}}
	var rows Collector
	if _, err := Run(context.Background(), spec, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 1 {
		t.Fatalf("%d rows", len(rows.Rows))
	}
	r := rows.Rows[0]
	if r.Clusters != 2 || r.Org != "interleaved" || r.Heuristic != "IPBC" {
		t.Errorf("row coordinates wrong: %+v", r)
	}
	if sum := r.LocalHits + r.RemoteHits + r.LocalMisses + r.RemoteMisses + r.Combined; sum != r.Accesses {
		t.Errorf("classes sum to %d, total %d", sum, r.Accesses)
	}
	if r.Cycles != r.ComputeCycles+r.StallCycles {
		t.Errorf("cycles %d != compute %d + stall %d", r.Cycles, r.ComputeCycles, r.StallCycles)
	}
	enc, err := EncodeRows(rows.Rows)
	if err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(string(enc))
	if !strings.HasPrefix(line, `{"point":`) || strings.Contains(line, "\n") {
		t.Errorf("encoding is not one JSON object per line: %q", line)
	}
	var streamed bytes.Buffer
	if _, err := Run(context.Background(), spec, JSONL(&streamed)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, streamed.Bytes()) {
		t.Error("EncodeRows differs from the JSONL sink stream")
	}
}

// TestRunEmptyWorkloads: a spec selecting nothing is an error.
func TestRunEmptyWorkloads(t *testing.T) {
	if _, err := Run(context.Background(), Spec{}, Func(func(Row) error { return nil })); err == nil {
		t.Error("empty spec must fail")
	}
}

// TestRunSinkErrorStats: a failing sink surfaces its error and Stats.Rows
// reports only the rows actually emitted, not the shard size.
func TestRunSinkErrorStats(t *testing.T) {
	spec := smallSpec()
	spec.Workers = 1
	n := 0
	st, err := Run(context.Background(), spec, Func(func(Row) error {
		if n == 3 {
			return errors.New("writer full")
		}
		n++
		return nil
	}))
	if err == nil || err.Error() != "writer full" {
		t.Fatalf("err = %v, want the sink's", err)
	}
	if st.Rows != 3 {
		t.Errorf("Stats.Rows = %d after a sink failure on row 3, want 3", st.Rows)
	}
}

// TestShardAlgebra is the sharding property test: for randomized grids, the
// concatenation of all shard outputs, in shard order, equals the unsharded
// run byte-for-byte — across shard counts 1–5 and worker counts 1/8.
func TestShardAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	pick := func(vals ...int) []int {
		out := append([]int(nil), vals...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out[:1+rng.Intn(len(out))]
	}
	for trial := 0; trial < 3; trial++ {
		spec := Spec{
			Grid: Grid{
				Clusters:  pick(2, 4, 8),
				ABEntries: pick(0, 16),
				MSHRs:     pick(0, 4),
			},
			Workloads: Workloads{
				Bench: []string{"g721dec"},
				Synth: []SynthSpec{{
					Name:    "shardprop",
					Seed:    uint64(rng.Int63()),
					Kernels: 1 + rng.Intn(2),
					Gran:    []int{1, 2, 4, 8}[rng.Intn(4)],
					Iters:   64,
				}},
			},
			Compile: Compile{Heuristic: "IPBC", Unroll: "none"},
		}
		spec.Workers = 1
		unsharded := runJSONL(t, spec)
		for count := 1; count <= 5; count++ {
			for _, workers := range []int{1, 8} {
				var parts [][]byte
				for i := 0; i < count; i++ {
					ss := spec
					ss.Workers = workers
					ss.Shard = Shard{Index: i, Count: count}
					parts = append(parts, runJSONL(t, ss))
				}
				if got := bytes.Join(parts, nil); !bytes.Equal(got, unsharded) {
					t.Fatalf("trial %d: %d shards × %d workers: concatenation differs from the unsharded run",
						trial, count, workers)
				}
			}
		}
	}
}

// TestShardCountBeyondRows: more shards than rows leaves the surplus shards
// empty and still concatenates exactly.
func TestShardCountBeyondRows(t *testing.T) {
	spec := Spec{
		Grid:      Grid{Clusters: []int{2, 4}},
		Workloads: Workloads{Bench: []string{"g721dec"}},
		Compile:   Compile{Unroll: "none"},
	}
	unsharded := runJSONL(t, spec) // 2 rows
	const count = 5
	var parts [][]byte
	empties := 0
	for i := 0; i < count; i++ {
		ss := spec
		ss.Shard = Shard{Index: i, Count: count}
		part := runJSONL(t, ss)
		if len(part) == 0 {
			empties++
		}
		parts = append(parts, part)
	}
	if empties != count-2 {
		t.Errorf("%d of %d shards empty, want %d", empties, count, count-2)
	}
	if !bytes.Equal(bytes.Join(parts, nil), unsharded) {
		t.Error("sparse shards do not concatenate to the unsharded run")
	}
}

// TestSynthWorkloadsDeterministic: sweeping a synthetic population stays
// byte-stable across runs.
func TestSynthWorkloadsDeterministic(t *testing.T) {
	spec := Spec{
		Grid:      Grid{Clusters: []int{2, 4}},
		Workloads: Workloads{SynthCount: 2, SynthSeed: 42},
		Compile:   Compile{Heuristic: "IPBC", Unroll: "none"},
	}
	a := runJSONL(t, spec)
	b := runJSONL(t, spec)
	if !bytes.Equal(a, b) {
		t.Fatal("synthetic sweep not deterministic across runs")
	}
	if bytes.Contains(a, []byte(`"error"`)) {
		t.Error("synthetic sweep produced error rows")
	}
}

// TestRunOutputAtomic: the nil-sink file path — what shard workers use —
// commits the output via temp+rename: a successful run publishes exactly
// the JSONL bytes with no staging residue, and a canceled run publishes
// nothing at all (satellite of the coordinator, whose stitcher trusts any
// existing shard file to be complete).
func TestRunOutputAtomic(t *testing.T) {
	spec := smallSpec()
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	spec.Output.Path = filepath.Join(dir, "out.jsonl")

	st, err := Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(spec.Output.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Error("file output differs from the sink stream")
	}
	if st.Rows != bytes.Count(ref, []byte("\n")) {
		t.Errorf("Stats.Rows = %d, want %d", st.Rows, bytes.Count(ref, []byte("\n")))
	}
	if stray, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(stray) != 0 {
		t.Errorf("staging files left after commit: %v", stray)
	}

	// Pre-canceled: the run fails with ctx.Err() and the destination never
	// appears — not even empty.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec.Output.Path = filepath.Join(dir, "never.jsonl")
	if _, err := Run(ctx, spec, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(spec.Output.Path); err == nil {
		t.Error("canceled run published an output file")
	}
	if stray, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(stray) != 0 {
		t.Errorf("staging files left after cancellation: %v", stray)
	}
}

// TestRunCancelMidRunAllOrNothing: whenever the cancel lands — before,
// during or after the grid — the output file is either absent or complete,
// never truncated.
func TestRunCancelMidRunAllOrNothing(t *testing.T) {
	spec := smallSpec()
	spec.Workers = 2
	ref := runJSONL(t, spec)
	dir := t.TempDir()
	for trial, delay := range []time.Duration{0, 2 * time.Millisecond, 20 * time.Millisecond} {
		spec.Output.Path = filepath.Join(dir, fmt.Sprintf("out_%d.jsonl", trial))
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		_, err := Run(ctx, spec, nil)
		cancel()
		data, rerr := os.ReadFile(spec.Output.Path)
		switch {
		case err == nil:
			if rerr != nil || !bytes.Equal(data, ref) {
				t.Errorf("trial %d: successful run has wrong output (%v)", trial, rerr)
			}
		case errors.Is(err, context.Canceled):
			if rerr == nil {
				t.Errorf("trial %d: canceled run left an output file (%d bytes)", trial, len(data))
			}
		default:
			t.Errorf("trial %d: unexpected error %v", trial, err)
		}
		if stray, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(stray) != 0 {
			t.Errorf("trial %d: staging files left: %v", trial, stray)
		}
	}
}

// TestRunEmptyShard: a shard slicing past the row count (rows < Count) and
// a worker pool wider than its rows still succeed with a valid, committed
// empty output file and zeroed Stats — no odd window sizing, no missing
// file for the stitcher.
func TestRunEmptyShard(t *testing.T) {
	spec := Spec{
		Grid:      Grid{Clusters: []int{2, 4}},
		Workloads: Workloads{Bench: []string{"g721dec"}},
		Compile:   Compile{Unroll: "none"},
		Workers:   8, // > 2 rows, and > 0 rows of the empty shard
	}
	dir := t.TempDir()

	// Shard 1/5 of a 2-row grid is empty (rows land in shards 2 and 4).
	spec.Shard = Shard{Index: 1, Count: 5}
	spec.Output.Path = filepath.Join(dir, "empty.jsonl")
	st, err := Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != (Stats{}) {
		t.Errorf("empty shard Stats = %+v, want all zero", st)
	}
	info, err := os.Stat(spec.Output.Path)
	if err != nil {
		t.Fatalf("empty shard must still commit its output file: %v", err)
	}
	if info.Size() != 0 {
		t.Errorf("empty shard output has %d bytes, want 0", info.Size())
	}

	// A one-row shard under the same oversized pool emits exactly its row.
	spec.Shard = Shard{Index: 2, Count: 5}
	spec.Output.Path = filepath.Join(dir, "one.jsonl")
	st, err = Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 1 {
		t.Errorf("1-row shard emitted %d rows", st.Rows)
	}
}
