package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"ivliw/internal/arch"
	"ivliw/internal/atomicio"
	"ivliw/internal/experiments"
	"ivliw/internal/pipeline"
	"ivliw/internal/workload"
)

// ClusterCost is one measured (or default) point of the cost model's
// cluster axis: the per-benchmark compile and per-cell simulate wall time
// at that cluster count, in milliseconds of a mean-weight benchmark.
// Absolute scale is informational — only the ratios steer shard cuts.
type ClusterCost struct {
	Clusters  int     `json:"clusters"`
	CompileMS float64 `json:"compile_ms"`
	SimMS     float64 `json:"sim_ms"`
}

// Calibration is the serializable input of the sweep cost model: how row
// cost varies along the axes that dominate wall time. It is persisted as a
// small JSON file next to the benchmark snapshots (SaveCalibration writes
// it atomically, temp+rename like every other output) and loaded by
// Coordinate for cost-balanced cuts and work-stealing chunk sizing. Like
// Spec it parses strictly: unknown fields are rejected, and Coordinate
// degrades a missing or corrupt file to DefaultCalibration with a warning
// rather than failing the run.
type Calibration struct {
	// CellsPerSec is the measured warm simulate throughput at the first
	// Clusters entry — the conversion between the model's relative units
	// and seconds, and the headline number calibration runs report.
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
	// Clusters holds per-cluster-count measurements in ascending cluster
	// order (required, >= 1 entry). Compile cost is strongly superlinear
	// in clusters: the unroll factor follows the cluster count, and the
	// latency-assignment search over the unrolled recurrences grows with
	// both their size and their number of candidate loads. That is exactly
	// the skew cost-balanced cuts exist for.
	Clusters []ClusterCost `json:"clusters,omitempty"`
	// CacheExp scales simulate cost by (CacheBytes/default)^CacheExp —
	// 0 means cache geometry does not move per-cell cost (the measured
	// effect is small next to the cluster axis).
	CacheExp float64 `json:"cache_exp,omitempty"`
	// BatchDiscount is the relative simulate cost of a non-leader lane of
	// a sim-batch (Spec.SimBatch) sibling group — the shared front half
	// (issue order, addresses) makes extra lanes cheaper than full cells. 0 means "use
	// the built-in default" (an explicit 0 would price sibling lanes
	// free, which no machine exhibits).
	BatchDiscount float64 `json:"batch_discount,omitempty"`
}

// defaultBatchDiscount is the built-in sibling-lane discount, from the
// PR 7 batched-simulation measurements (a non-leader lane costs about half
// a full cell once the merge front is shared).
const defaultBatchDiscount = 0.5

// DefaultCalibration is the uncalibrated cost model: the median of five
// `ivliw-bench -spec probe.json -calibrate` runs of the probe spec
// {"grid": {"clusters": [2, 4, 8]}, "workloads": {"bench": ["jpegenc"]}}
// on a 2-vCPU x86-64 host (compile ~2.0ms/2.7ms/14.5ms
// and simulate ~0.53ms/0.61ms/0.66ms at 2/4/8 clusters; see
// PERFORMANCE.md). jpegenc's compile curve has the shape of the suite's
// mean (~1.0ms/2.2ms/12ms per benchmark), which one-benchmark probes of
// the lighter (gsmdec) or heavier (epicdec) compiles do not. Relative
// shape is what matters — on a machine twice as fast the cuts are
// identical — so the default is useful without ever running Calibrate; a
// calibration file just sharpens it.
func DefaultCalibration() Calibration {
	return Calibration{
		CellsPerSec: 1890,
		Clusters: []ClusterCost{
			{Clusters: 2, CompileMS: 2.0, SimMS: 0.53},
			{Clusters: 4, CompileMS: 2.7, SimMS: 0.61},
			{Clusters: 8, CompileMS: 14.5, SimMS: 0.66},
		},
		BatchDiscount: defaultBatchDiscount,
	}
}

// Validate reports the first problem that would make the calibration
// unusable as a cost model.
func (c Calibration) Validate() error {
	if len(c.Clusters) == 0 {
		return fmt.Errorf("sweep: calibration needs >= 1 clusters entry")
	}
	prev := 0
	for i, e := range c.Clusters {
		switch {
		case e.Clusters <= prev:
			return fmt.Errorf("sweep: calibration clusters[%d] must be ascending and positive, got %d after %d",
				i, e.Clusters, prev)
		case e.CompileMS <= 0 || e.SimMS <= 0:
			return fmt.Errorf("sweep: calibration clusters[%d] costs must be > 0, got compile %g sim %g",
				i, e.CompileMS, e.SimMS)
		}
		prev = e.Clusters
	}
	if c.CellsPerSec < 0 {
		return fmt.Errorf("sweep: calibration cells_per_sec must be >= 0, got %g", c.CellsPerSec)
	}
	if c.BatchDiscount < 0 || c.BatchDiscount > 1 {
		return fmt.Errorf("sweep: calibration batch_discount must be in [0, 1], got %g", c.BatchDiscount)
	}
	if math.Abs(c.CacheExp) > 2 {
		return fmt.Errorf("sweep: calibration cache_exp must be in [-2, 2], got %g", c.CacheExp)
	}
	return nil
}

// Encode renders the calibration as indented JSON with a trailing newline,
// canonically (like Spec.Encode), so calibration files diff and commit
// cleanly next to the benchmark snapshots.
func (c Calibration) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseCalibration decodes a calibration strictly, exactly like ParseSpec:
// unknown fields and trailing data are errors, and the result must
// validate — a calibration is always either usable or rejected whole,
// never silently half-applied.
func ParseCalibration(data []byte) (Calibration, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Calibration
	if err := dec.Decode(&c); err != nil {
		return Calibration{}, fmt.Errorf("sweep: parse calibration: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return Calibration{}, fmt.Errorf("sweep: parse calibration: trailing data after the calibration object")
	}
	if err := c.Validate(); err != nil {
		return Calibration{}, err
	}
	return c, nil
}

// LoadCalibration reads, parses and validates a calibration file.
func LoadCalibration(path string) (Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Calibration{}, fmt.Errorf("sweep: load calibration: %w", err)
	}
	c, err := ParseCalibration(data)
	if err != nil {
		return Calibration{}, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// SaveCalibration persists the calibration at path via the same
// temp+rename write every other artifact uses, so a concurrent reader (a
// coordinator starting mid-save) sees the old file or the new one, never
// a prefix.
func SaveCalibration(path string, c Calibration) error {
	if err := c.Validate(); err != nil {
		return err
	}
	data, err := c.Encode()
	if err != nil {
		return err
	}
	if err := atomicio.WriteFile(path, data); err != nil {
		return fmt.Errorf("sweep: save calibration: %w", err)
	}
	return nil
}

// costModel prices grid rows under a calibration. It is deterministic in
// its inputs: the same calibration and spec always produce the same cuts,
// which the manifest's recorded ranges rely on across a resume.
type costModel struct {
	clusters      []ClusterCost
	cacheExp      float64
	batchDiscount float64
}

// newCostModel builds the model, substituting built-in defaults for the
// calibration's omitted knobs.
func newCostModel(cal Calibration) *costModel {
	m := &costModel{clusters: cal.Clusters, cacheExp: cal.CacheExp, batchDiscount: cal.BatchDiscount}
	if len(m.clusters) == 0 {
		m.clusters = DefaultCalibration().Clusters
	}
	if m.batchDiscount <= 0 || m.batchDiscount > 1 {
		m.batchDiscount = defaultBatchDiscount
	}
	return m
}

// clusterCost interpolates the calibration's cluster table at c. Between
// and beyond table entries it interpolates geometrically (costs grow
// multiplicatively with the topology, so a linear fit would undershoot
// extrapolated points by orders of magnitude).
func (m *costModel) clusterCost(c int) (compileMS, simMS float64) {
	t := m.clusters
	at := func(f func(ClusterCost) float64) float64 {
		if c <= t[0].Clusters || len(t) == 1 {
			return f(t[0])
		}
		for i := 1; i < len(t); i++ {
			if c <= t[i].Clusters {
				lo, hi := t[i-1], t[i]
				frac := float64(c-lo.Clusters) / float64(hi.Clusters-lo.Clusters)
				return f(lo) * math.Pow(f(hi)/f(lo), frac)
			}
		}
		lo, hi := t[len(t)-2], t[len(t)-1]
		frac := float64(c-hi.Clusters) / float64(hi.Clusters-lo.Clusters)
		return f(hi) * math.Pow(f(hi)/f(lo), frac)
	}
	return at(func(e ClusterCost) float64 { return e.CompileMS }),
		at(func(e ClusterCost) float64 { return e.SimMS })
}

// gridCosts is the model's verdict over one expanded grid: a predicted
// cost per row, plus the compile-key atom boundaries cost cuts must
// respect (cutting inside an atom would compile the same artifacts in two
// shard processes — pure duplicated work).
type gridCosts struct {
	// rows[c] is row c's predicted relative cost.
	rows []float64
	// atoms holds the first row index of each maximal run of rows whose
	// points share a compile key, ascending; atoms[0] == 0 whenever the
	// grid is non-empty.
	atoms []int
}

// gridCosts prices every row of the expanded grid. Per row: the bench's
// profiled work weight × (its point's simulate cost, cache-scaled and
// sim-batch-discounted for non-leader sibling lanes, plus its point's
// compile cost amortized over the rows sharing that compile key).
func (m *costModel) gridCosts(points []experiments.Variant, benches []workload.BenchSpec, simBatch int) gridCosts {
	nb := len(benches)
	g := gridCosts{rows: make([]float64, len(points)*nb)}
	if len(points) == 0 || nb == 0 {
		return g
	}

	// Mean-normalized bench weights keep the cluster curves' scale: a
	// mean-weight benchmark costs exactly the table's milliseconds.
	bw := make([]float64, nb)
	sum := 0.0
	for i := range benches {
		bw[i] = experiments.BenchWork(benches[i])
		sum += bw[i]
	}
	for i := range bw {
		bw[i] *= float64(nb) / sum
	}

	keys := make([]string, len(points))
	keyCount := make(map[string]int, len(points))
	for pi := range points {
		keys[pi] = points[pi].CompileKey()
		keyCount[keys[pi]]++
		if pi == 0 || keys[pi] != keys[pi-1] {
			g.atoms = append(g.atoms, pi*nb)
		}
	}

	defCache := float64(arch.Default().CacheBytes)
	ordinal := make(map[string]int, len(keyCount))
	for pi, v := range points {
		comp, sim := m.clusterCost(v.Cfg.Clusters)
		if m.cacheExp != 0 && v.Cfg.CacheBytes > 0 {
			sim *= math.Pow(float64(v.Cfg.CacheBytes)/defCache, m.cacheExp)
		}
		comp /= float64(keyCount[keys[pi]])
		// Sibling lanes beyond a batch's leader share the simulation's
		// front half; mirror planBatches' grouping (per compile key, lane
		// position modulo the cap) without building the batches.
		if simBatch > 1 && ordinal[keys[pi]]%simBatch != 0 {
			sim *= m.batchDiscount
		}
		ordinal[keys[pi]]++
		for bi := 0; bi < nb; bi++ {
			g.rows[pi*nb+bi] = bw[bi] * (comp + sim)
		}
	}
	return g
}

// rowRange is a half-open slice [lo, hi) of the row grid.
type rowRange struct{ lo, hi int }

// costCuts partitions [0, n) into at most k contiguous, non-empty ranges
// of near-equal total predicted cost, cutting only at compile-key atom
// boundaries so no artifact is compiled by two tasks. Each interior
// boundary is the atom edge whose cost prefix lies closest to its ideal
// equal-cost position; boundaries are monotone by construction, and a cut
// that would come out empty — a single atom outweighing the ideal share —
// is dropped, so every range needs a launch. Degenerate inputs (zero total
// cost) fall back to count-balanced cuts.
func costCuts(g gridCosts, n, k int) []rowRange {
	prefix := make([]float64, n+1)
	for i, c := range g.rows[:n] {
		prefix[i+1] = prefix[i] + c
	}
	total := prefix[n]
	cand := append(append(make([]int, 0, len(g.atoms)+1), g.atoms...), n)
	var cuts []rowRange
	ci, lo := 0, 0
	for i := 1; i <= k; i++ {
		hi := n
		switch {
		case i == k: // the last range ends at n
		case total > 0:
			target := total * float64(i) / float64(k)
			for ci+1 < len(cand) &&
				math.Abs(prefix[cand[ci+1]]-target) <= math.Abs(prefix[cand[ci]]-target) {
				ci++
			}
			hi = cand[ci]
		default:
			hi = i * n / k
		}
		if hi > lo {
			cuts = append(cuts, rowRange{lo, hi})
			lo = hi
		}
	}
	return cuts
}

// calibrateMinWarm and calibrateMaxReps bound the warm-simulate probe of
// one calibration point: repeat until the accumulated wall time is
// trustworthy or the rep cap is hit.
const (
	calibrateMinWarm = 25 * time.Millisecond
	calibrateMaxReps = 8
)

// Calibrate measures the cost model's inputs for spec's grid on this
// machine: for each distinct cluster count on the grid's cluster axis
// (the default point when the axis is empty), one cold compile+simulate
// of the spec's first benchmark isolates compile cost, then warm repeats
// measure simulate cost; a widened-cache probe at the first cluster count
// fits CacheExp. Measurements are expressed per mean-weight benchmark so
// they compose with BenchWork row weighting, and rounded so the persisted
// file is stable to read. Infeasible probe points (axes that cannot
// combine at some cluster count) are skipped; only a grid with no
// feasible probe point at all is an error.
func Calibrate(ctx context.Context, spec Spec) (Calibration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt, benches, err := spec.resolve()
	if err != nil {
		return Calibration{}, err
	}
	clusters := append([]int(nil), spec.Grid.Clusters...)
	if len(clusters) == 0 {
		clusters = []int{arch.Default().Clusters}
	}
	sort.Ints(clusters)
	clusters = slices.Compact(clusters)

	bench := benches[0]
	// rel converts "this benchmark's milliseconds" into mean-benchmark
	// milliseconds, matching gridCosts' normalization.
	mean := 0.0
	for i := range benches {
		mean += experiments.BenchWork(benches[i])
	}
	mean /= float64(len(benches))
	rel := experiments.BenchWork(bench) / mean

	probe := func(cl, cacheBytes int) (compile, sim time.Duration, err error) {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		cfg := arch.Default()
		cfg.Clusters = cl
		if cacheBytes > 0 {
			cfg.CacheBytes = cacheBytes
		}
		v := experiments.Variant{Label: cfg.ID(), Cfg: cfg, Opt: opt, Aligned: true}
		// A fresh memory-only store: the first run pays the compile, warm
		// repeats hit the artifact and measure pure simulate cost.
		st := pipeline.NewCacheOver(pipeline.DefaultCacheSize, nil)
		t0 := time.Now()
		if _, err := experiments.RunBenchStore(bench, v, st); err != nil {
			return 0, 0, err
		}
		cold := time.Since(t0)
		var warm time.Duration
		reps := 0
		for warm < calibrateMinWarm && reps < calibrateMaxReps {
			if err := ctx.Err(); err != nil {
				return 0, 0, err
			}
			t0 = time.Now()
			if _, err := experiments.RunBenchStore(bench, v, st); err != nil {
				return 0, 0, err
			}
			warm += time.Since(t0)
			reps++
		}
		sim = warm / time.Duration(reps)
		compile = cold - sim
		if compile < sim/100 {
			compile = sim / 100
		}
		return compile, sim, nil
	}

	ms := func(d time.Duration) float64 {
		v := d.Seconds() * 1000 / rel
		if v < 0.001 {
			v = 0.001
		}
		return math.Round(v*1000) / 1000
	}

	var cal Calibration
	var baseSim time.Duration
	for _, cl := range clusters {
		compile, sim, perr := probe(cl, 0)
		if perr != nil {
			if ctx.Err() != nil {
				return Calibration{}, ctx.Err()
			}
			continue // infeasible probe point: not this machine's fault
		}
		if len(cal.Clusters) == 0 {
			baseSim = sim
			if sim > 0 {
				cal.CellsPerSec = math.Round(float64(time.Second)/float64(sim)*10) / 10
			}
		}
		cal.Clusters = append(cal.Clusters, ClusterCost{Clusters: cl, CompileMS: ms(compile), SimMS: ms(sim)})
	}
	if len(cal.Clusters) == 0 {
		return Calibration{}, fmt.Errorf("sweep: calibrate: no feasible probe point on the cluster axis")
	}

	// Cache-geometry exponent: simulate the first feasible cluster count
	// again at 4x the default capacity and fit a power law through the two
	// points. A failed probe (the widened cache may be invalid for the
	// topology) leaves the exponent at 0.
	if base := cal.Clusters[0]; baseSim > 0 {
		if _, sim4, perr := probe(base.Clusters, 4*arch.Default().CacheBytes); perr == nil && sim4 > 0 {
			exp := math.Log(float64(sim4)/float64(baseSim)) / math.Log(4)
			exp = math.Round(exp*1000) / 1000
			cal.CacheExp = math.Max(-1, math.Min(1, exp))
		} else if ctx.Err() != nil {
			return Calibration{}, ctx.Err()
		}
	}
	cal.BatchDiscount = defaultBatchDiscount
	return cal, nil
}
