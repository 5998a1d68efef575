package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ivliw/internal/experiments"
	"ivliw/internal/stats"
	"ivliw/internal/workload"
	"ivliw/sweep"
)

// sweepOutcome is a sweep child's result line.
type sweepOutcome struct {
	WallS float64     `json:"wall_s"`
	Rows  rowsResult  `json:"rows"`
	Stats sweep.Stats `json:"stats"`
}

// childSweep runs one sweep repeat: the cold sweep into the empty dir, or
// the warm sweep over the store in dir. rows, when set, receives the JSONL.
func childSweep(ctx context.Context, b bench, dir, rows string, ready func()) (sweepOutcome, error) {
	var spec sweep.Spec
	switch b.workload {
	case "cold-cluster-sweep":
		spec = coldSpec(b.seed, dir, b.workers)
	case "warm-sibling-sweep":
		spec = warmSpec(b.seed, dir, b.workers, warmLanes)
	default:
		return sweepOutcome{}, fmt.Errorf("no sweep for workload %q", b.workload)
	}
	if err := spec.Validate(); err != nil {
		return sweepOutcome{}, err
	}
	ready()
	if b.probe {
		return sweepOutcome{}, nil
	}
	data, st, wall, err := runSweep(ctx, spec)
	if err != nil {
		return sweepOutcome{}, err
	}
	rr, err := digestRows(data)
	if err != nil {
		return sweepOutcome{}, err
	}
	if rows != "" {
		if err := os.WriteFile(rows, data, 0o644); err != nil {
			return sweepOutcome{}, err
		}
	}
	return sweepOutcome{WallS: wall, Rows: rr, Stats: st}, nil
}

// sweepRepeat spawns one sweep child over dir and folds it into a repeat;
// check returns the output checks the child's rows failed.
func sweepRepeat(b bench, dir, rows string, r *report, check func(o sweepOutcome) []string) (repeat, sweepOutcome, error) {
	args := []string{"-dir", dir}
	if rows != "" {
		args = append(args, "-rows", rows)
	}
	cr, err := b.self("sweep", args...)
	if err != nil {
		return repeat{}, sweepOutcome{}, err
	}
	var o sweepOutcome
	if err := json.Unmarshal(cr.result, &o); err != nil {
		return repeat{}, o, fmt.Errorf("sweep child result: %w", err)
	}
	r.attempted += o.Rows.Rows
	failed := o.Rows.ErrorRows
	if bad := check(o); len(bad) > 0 {
		r.checks = append(r.checks, bad...)
		failed = o.Rows.Rows
	}
	r.failed += failed
	return repeat{
		setupS: cr.readyS, wallS: o.WallS, cpuS: cr.cpuS, rssMB: cr.rssMB, procS: cr.wallS,
		cells: float64(o.Rows.Rows), requests: 1,
	}, o, nil
}

func coldUntraced(b bench) (report, error) {
	var r report
	setups, err := b.probeSetup("sweep", "", setupProbes)
	if err != nil {
		return r, err
	}
	first := ""
	reps, err := untracedLoop(b, func(i int) (repeat, error) {
		dir, err := b.dir("cold-")
		if err != nil {
			return repeat{}, err
		}
		defer os.RemoveAll(dir)
		rp, _, err := sweepRepeat(b, dir, "", &r, func(o sweepOutcome) []string {
			bad := coldCheck(o)
			if first == "" {
				first = o.Rows.Digest
			} else if o.Rows.Digest != first {
				bad = append(bad, "cold rows differ between repeats")
			}
			return bad
		})
		setups = append(setups, rp.setupS)
		return rp, err
	})
	if err != nil {
		return r, err
	}
	endToEnd(reps, setups, &r)
	return r, nil
}

// coldCheck checks one cold repeat: the rows, in any order, are the
// reference rows, and nothing came from a warm store.
func coldCheck(o sweepOutcome) []string {
	var bad []string
	if o.Rows.Sorted != coldSortedDigest {
		bad = append(bad, fmt.Sprintf("cold rows digest %s, want %s", o.Rows.Sorted, coldSortedDigest))
	}
	if o.Stats.DiskHits != 0 {
		bad = append(bad, "cold sweep hit a non-empty artifact store")
	}
	return bad
}

// warmCheck checks one warm repeat: every artifact came from the store,
// and the rows equal want, the serial unbatched reference.
func warmCheck(want string) func(o sweepOutcome) []string {
	return func(o sweepOutcome) []string {
		var bad []string
		if o.Rows.Digest != want {
			bad = append(bad, "batched warm rows differ from the serial unbatched reference")
		}
		if o.Stats.DiskMisses != 0 || o.Stats.DiskWrites != 0 {
			bad = append(bad, fmt.Sprintf("warm sweep missed the store: %d misses, %d writes", o.Stats.DiskMisses, o.Stats.DiskWrites))
		}
		return bad
	}
}

// fillWarm builds the warm sweep's artifact store in dir and returns the
// time it took: a sweep of one machine point compiles exactly the
// artifacts every lane of the warm grid reads, since the lane axes are
// simulate-only.
func fillWarm(b bench, dir string) (float64, error) {
	spec := warmSpec(b.seed, dir, b.workers, 0)
	spec.Grid = sweep.Grid{}
	t0 := time.Now()
	_, _, _, err := runSweep(context.Background(), spec)
	return time.Since(t0).Seconds(), err
}

// warmReference runs the whole warm grid serially without batching over
// the filled store and returns its rows digest, which every batched repeat
// must reproduce.
func warmReference(b bench, dir string) (string, error) {
	data, _, _, err := runSweep(context.Background(), warmSpec(b.seed, dir, b.workers, 0))
	if err != nil {
		return "", err
	}
	rr, err := digestRows(data)
	return rr.Digest, err
}

// warmFills is how many times set-up fills a store; setup_s takes the
// median.
const warmFills = 5

func warmUntraced(b bench) (report, error) {
	var r report
	var fills []float64
	var store string
	for i := 0; i < warmFills; i++ {
		dir, err := b.dir("warm-store-")
		if err != nil {
			return r, err
		}
		s, err := fillWarm(b, dir)
		if err != nil {
			return r, err
		}
		fills = append(fills, s)
		if store != "" {
			os.RemoveAll(store)
		}
		store = dir
	}
	fill := median(fills)
	want, err := warmReference(b, store)
	if err != nil {
		return r, err
	}
	setups, err := b.probeSetup("sweep", store, setupProbes)
	if err != nil {
		return r, err
	}
	for i := range setups {
		setups[i] += fill
	}
	reps, err := untracedLoop(b, func(i int) (repeat, error) {
		rp, _, err := sweepRepeat(b, store, "", &r, warmCheck(want))
		setups = append(setups, fill+rp.setupS)
		return rp, err
	})
	if err != nil {
		return r, err
	}
	endToEnd(reps, setups, &r)
	return r, nil
}

// replayOutcome is a replay child's result line.
type replayOutcome struct {
	Values map[string]float64 `json:"values"`
	WallS  float64            `json:"wall_s"`
	Checks []string           `json:"checks"`
}

// childReplay runs the traced stage replay of the workload's cells. For
// the sweeps, dir is the store the untraced reference run used (the
// reference artifacts when cold, the filled store when warm), aux a fresh
// directory for the artifacts the replay writes, and rows the reference
// run's JSONL, which the replayed results must reproduce.
func childReplay(b bench, dir, aux, rows string) (replayOutcome, error) {
	var cells []cell
	var o replayOpts
	switch b.workload {
	case "paper-figures":
		cells, o = figureCells(), replayOpts{lanes: 1 << 30}
	case "cold-cluster-sweep":
		var err error
		if cells, err = specCells(coldSpec(b.seed, "", 1)); err != nil {
			return replayOutcome{}, err
		}
		o = replayOpts{lanes: 1, refDir: dir, putDir: aux}
	case "warm-sibling-sweep":
		var err error
		if cells, err = specCells(warmSpec(b.seed, "", 1, warmLanes)); err != nil {
			return replayOutcome{}, err
		}
		o = replayOpts{lanes: warmLanes, warmDir: dir}
	case "served-replay":
		for i := 0; i < servedDistinct; i++ {
			cs, err := specCells(servedSpec(b.seed, i))
			if err != nil {
				return replayOutcome{}, err
			}
			cells = append(cells, cs...)
		}
		o = replayOpts{lanes: 1, putDir: aux}
	}
	t := newTracer()
	res, err := replay(t, cells, o)
	if err != nil {
		return replayOutcome{}, err
	}
	if rows != "" {
		res.checks = append(res.checks, checkRows(rows, cells, res.benches)...)
	}
	return replayOutcome{Values: t.values(), WallS: res.wallS, Checks: res.checks}, nil
}

// checkRows compares replayed cell results with the rows the program
// emitted: same cells in the same order, same cycle and access counts.
func checkRows(path string, cells []cell, got []stats.Bench) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var bad []string
	for i := 0; dec.More(); i++ {
		var row sweep.Row
		if err := dec.Decode(&row); err != nil {
			return append(bad, err.Error())
		}
		if i >= len(cells) {
			return append(bad, "the program emitted more rows than the replay has cells")
		}
		c := cells[i]
		var acc int64
		for _, a := range got[i].Accesses() {
			acc += a
		}
		if row.Point != c.v.Label || row.Bench != c.bench.Name ||
			row.Cycles != got[i].TotalCycles() || row.Accesses != acc || row.StallCycles != got[i].StallCycles() {
			bad = append(bad, fmt.Sprintf("row %d (%s/%s) differs from the replayed cell", i, row.Point, row.Bench))
		}
	}
	return bad
}

// sweepTraced is the traced run of both sweeps: an untraced reference
// repeat at one worker, then the stage replay of the same cells checked
// against it.
func sweepTraced(b bench, store string, check func(sweepOutcome) []string, refStats func(st sweep.Stats, v map[string]float64)) (report, error) {
	var r report
	b.workers = 1
	rows := filepath.Join(b.tmp, "ref.jsonl")
	rp, o, err := sweepRepeat(b, store, rows, &r, check)
	if err != nil {
		return r, err
	}
	aux, err := b.dir("replay-")
	if err != nil {
		return r, err
	}
	cr, err := b.self("replay", "-dir", store, "-aux", aux, "-rows", rows)
	if err != nil {
		return r, err
	}
	var ro replayOutcome
	if err := json.Unmarshal(cr.result, &ro); err != nil {
		return r, err
	}
	r.checks = append(r.checks, ro.Checks...)
	v := ro.Values
	st := o.Stats
	v["store.disk_hits"] = float64(st.DiskHits)
	v["store.disk_writes"] = float64(st.DiskWrites)
	if n := st.MemHits + st.MemMisses; n > 0 {
		v["store.mem_hit_ratio"] = float64(st.MemHits) / float64(n)
	}
	if refStats != nil {
		refStats(st, v)
	}
	self := lowerSelf(v)
	v["sweep.run_s"] = o.WallS
	v["sweep.unexplained_s"] = o.WallS - sumValues(self)
	self["sweep"] = v["sweep.unexplained_s"]
	finishTraced(&r, v, self, rp.procS, ro.WallS)
	return r, nil
}

func coldTraced(b bench) (report, error) {
	store, err := b.dir("cold-")
	if err != nil {
		return report{}, err
	}
	return sweepTraced(b, store, coldCheck, func(_ sweep.Stats, v map[string]float64) {
		costRatios(b, v)
	})
}

func warmTraced(b bench) (report, error) {
	store, err := b.dir("warm-store-")
	if err != nil {
		return report{}, err
	}
	if _, err := fillWarm(b, store); err != nil {
		return report{}, err
	}
	want, err := warmReference(b, store)
	if err != nil {
		return report{}, err
	}
	return sweepTraced(b, store, warmCheck(want), nil)
}

// costRatios reports the sweep cost model's compile prediction over the
// traced compile time, per cluster count, for the committed calibration
// file and for the built-in default. The prediction for compiling the
// paper suite once at N clusters is CompileMS(N) × ΣBenchWork/mean.
func costRatios(b bench, v map[string]float64) {
	suite := workload.Suite()
	var sum float64
	for _, s := range suite {
		sum += experiments.BenchWork(s)
	}
	scale := sum / (sum / float64(len(suite)))
	cals := map[string]sweep.Calibration{"cost.default_pred_ratio": sweep.DefaultCalibration()}
	if cal, err := sweep.LoadCalibration(filepath.Join(b.root, "CALIBRATION.json")); err == nil {
		cals["cost.compile_pred_ratio"] = cal
	}
	for name, cal := range cals {
		for _, n := range stageClusters {
			if got := v[clusterMetric("core.compile_ms", n)]; got > 0 {
				v[clusterMetric(name, n)] = calCompileMS(cal, n) * scale / got
			}
		}
	}
}
