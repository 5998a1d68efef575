package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"ivliw/internal/addrspace"
	"ivliw/internal/arch"
	"ivliw/internal/atomicio"
	"ivliw/internal/chains"
	"ivliw/internal/core"
	"ivliw/internal/experiments"
	"ivliw/internal/ir"
	"ivliw/internal/latassign"
	"ivliw/internal/pipeline"
	"ivliw/internal/profile"
	"ivliw/internal/sched"
	"ivliw/internal/sms"
	"ivliw/internal/stats"
	"ivliw/internal/unroll"
	"ivliw/internal/workload"
)

// tracer accumulates the per-layer numbers of a traced run: busy times in
// milliseconds and plain counters, both keyed by metric name.
type tracer struct {
	ms    map[string]float64
	count map[string]float64
}

func newTracer() *tracer {
	return &tracer{ms: map[string]float64{}, count: map[string]float64{}}
}

// span adds the time f takes to the named layer metric.
func (t *tracer) span(name string, f func()) {
	t0 := time.Now()
	f()
	t.ms[name] += msSince(t0)
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// clusterMetric names the per-cluster-count variant of a metric.
func clusterMetric(name string, clusters int) string { return fmt.Sprintf("%s.c%d", name, clusters) }

// stageClusters are the cluster counts that get their own compile metrics.
var stageClusters = []int{2, 4, 8}

// compiled is one candidate schedule of a loop, as core.Compile keeps it.
type compiled struct {
	la    pipeline.LoopArtifact
	texec int64
	ii    int
	mii   int
}

// stagedCompile rebuilds pipeline.Compile's artifact by calling the compile
// stages one by one — unroll, profile, latassign, sms, sched — and timing
// each call. It mirrors core.Compile and pipeline.Compile step for step; a
// traced run checks the result against the program's own artifact, since
// stage times taken from a different computation would describe nothing.
func stagedCompile(t *tracer, s pipeline.CompileSpec) (*pipeline.Artifact, error) {
	t0 := time.Now()
	defer func() { t.ms[clusterMetric("core.compile_ms", s.Cfg.Clusters)] += msSince(t0) }()
	if err := s.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("staged compile %s: %w", s.Bench.Name, err)
	}
	opt := s.Opt
	if s.Cfg.Org == arch.Unified {
		opt.Heuristic = sched.Base
	}
	profDS := addrspace.Dataset{Seed: s.Bench.ProfileSeed, Aligned: s.Aligned}
	profLay := addrspace.NewLayout(s.Bench.AllLoops(), s.Cfg, profDS)
	art := &pipeline.Artifact{Key: s.Key(), Bench: s.Bench.Name, Loops: make([]pipeline.LoopArtifact, 0, len(s.Bench.Loops))}
	for _, ls := range s.Bench.Loops {
		best, err := stagedLoop(t, ls.Loop, s.Cfg, profLay, profDS, opt)
		if err != nil {
			return nil, fmt.Errorf("staged compile %s/%s: %w", s.Bench.Name, ls.Loop.Name, err)
		}
		t.count["sched.ii"] += float64(best.ii)
		t.count["sched.mii"] += float64(best.mii)
		art.Loops = append(art.Loops, best.la)
	}
	return art, nil
}

// stagedLoop is core.Compile for one loop: pick the unroll candidates, build
// each, keep the one with the smallest estimated execution time.
func stagedLoop(t *tracer, l *ir.Loop, cfg arch.Config, lay *addrspace.Layout, ds addrspace.Dataset, opt core.Options) (compiled, error) {
	var cands []int
	switch opt.Unroll {
	case core.NoUnroll:
		cands = []int{1}
	case core.UnrollxN:
		cands = []int{cfg.Clusters}
	case core.OUFUnroll, core.Selective:
		iters := opt.ProfileIters
		if iters == 0 {
			iters = l.AvgIters
		}
		var p *profile.Profile
		t.span("profile.run_ms", func() { p = profile.Run(l, lay, ds, cfg, iters) })
		hit := func(id int) float64 { return p.HitRate(id) }
		t.span("unroll.select_ms", func() {
			if opt.Unroll == core.OUFUnroll {
				cands = []int{unroll.OUF(l, cfg, hit)}
			} else {
				cands = unroll.Candidates(l, cfg, hit)
			}
		})
	default:
		return compiled{}, fmt.Errorf("unknown unroll mode %d", int(opt.Unroll))
	}
	t.count["unroll.loops"]++
	t.count["unroll.candidates"] += float64(len(cands))
	var best compiled
	for i, u := range cands {
		c, err := stagedAt(t, l, u, cfg, lay, ds, opt)
		if err != nil {
			return compiled{}, fmt.Errorf("unroll %d: %w", u, err)
		}
		if i == 0 || c.texec < best.texec {
			best = c
		}
	}
	return best, nil
}

// stagedAt mirrors core's compileAt: steps 2 to 4 on the loop unrolled by u,
// flattened into the artifact form pipeline.Compile stores.
func stagedAt(t *tracer, l *ir.Loop, u int, cfg arch.Config, lay *addrspace.Layout, ds addrspace.Dataset, opt core.Options) (compiled, error) {
	var ul *ir.Loop
	t.span("unroll.select_ms", func() { ul = unroll.Unroll(l, u) })
	g := ir.NewGraph(ul)
	iters := opt.ProfileIters
	if iters == 0 {
		iters = ul.AvgIters
	}
	var p *profile.Profile
	t.span("profile.run_ms", func() { p = profile.Run(ul, lay, ds, cfg, iters) })
	cs := chains.Build(ul)

	pref := map[int]int{}
	for _, id := range ul.MemInstrs() {
		pref[id] = p.Stats(id).Preferred()
	}
	if !opt.NoChains {
		for _, ch := range cs.Chains {
			avg := ch.AveragePreferred(cfg.Clusters, func(id int) []float64 {
				return p.Stats(id).HistFloat()
			})
			for _, m := range ch.Members {
				pref[m] = avg
			}
		}
	}

	ladder := latassign.InterleavedLadder(cfg)
	if cfg.Org == arch.Unified {
		ladder = latassign.UnifiedLadder(cfg)
	}
	var la latassign.Result
	if opt.NoLatAssign {
		la = latassign.Result{Assigned: ul.DefaultLatencies(ladder.Max())}
		la.TargetMII = ir.MII(g, cfg, la.Assigned)
	} else {
		prof := memProfiles(ul, cfg, p, pref, opt)
		t.span(clusterMetric("latassign.assign_ms", cfg.Clusters), func() {
			la = latassign.Assign(ul, g, cfg, ladder, prof)
		})
		t.count["latassign.steps"] += float64(len(la.Steps))
	}

	var order []int
	if opt.NaiveOrder {
		for i := range ul.Instrs {
			order = append(order, i)
		}
	} else {
		t.span("sms.order_ms", func() { order = sms.Order(g, la.Assigned) })
	}

	var s *sched.Schedule
	var err error
	t.span(clusterMetric("sched.run_ms", cfg.Clusters), func() {
		s, err = sched.Run(ul, g, cfg, la.Assigned, order, sched.Options{
			Heuristic: opt.Heuristic,
			NoChains:  opt.NoChains,
			ChainOf:   cs.ChainOf,
			Preferred: func(id int) int { return pref[id] },
			MaxII:     opt.MaxII,
		})
	})
	if err != nil {
		return compiled{}, err
	}
	art := pipeline.LoopArtifact{
		Schedule:     s,
		UnrollFactor: u,
		Iters:        int64(ul.AvgIters),
		Aligned:      ds.Aligned,
		CompileKey:   cfg.CompileKey(),
		Preferred:    pref,
		Attractable:  attractable(ul, cfg, s, p),
		Dispersion:   make(map[int]float64, len(pref)),
	}
	for _, id := range ul.MemInstrs() {
		art.Dispersion[id] = p.Stats(id).Dispersion()
	}
	return compiled{la: art, texec: unroll.TexecEstimate(ul.AvgIters, s.SC, s.II), ii: s.II, mii: s.MII}, nil
}

// memProfiles mirrors core's benefit-function inputs: profiled hit rate and
// the expected local ratio of each memory instruction.
func memProfiles(l *ir.Loop, cfg arch.Config, p *profile.Profile, pref map[int]int, opt core.Options) map[int]latassign.MemProfile {
	out := map[int]latassign.MemProfile{}
	for _, id := range l.MemInstrs() {
		st := p.Stats(id)
		mp := latassign.MemProfile{Hit: st.HitRate()}
		switch {
		case cfg.Org == arch.Unified:
			mp.Local = 1
		case l.Instrs[id].Mem.Gran > cfg.Interleave:
			mp.Local = 0
		case opt.Heuristic == sched.IPBC:
			mp.Local = st.LocalRatio(pref[id])
		default:
			mp.Local = 1 / float64(cfg.Clusters)
		}
		out[id] = mp
	}
	return out
}

// attractable mirrors core's §5.2 Attraction Buffer hints.
func attractable(l *ir.Loop, cfg arch.Config, s *sched.Schedule, p *profile.Profile) map[int]bool {
	out := map[int]bool{}
	loads := map[int][]int{}
	for _, id := range l.MemInstrs() {
		if !l.Instrs[id].IsLoad() {
			continue
		}
		out[id] = true
		c := s.Place[id].Cluster
		loads[c] = append(loads[c], id)
	}
	if !cfg.ABHints || !cfg.AttractionBuffers {
		return out
	}
	k := cfg.HintBudget()
	for c, ids := range loads {
		if len(ids) <= k {
			continue
		}
		benefit := func(id int) float64 {
			st := p.Stats(id)
			return float64(st.Accesses) * (1 - st.LocalRatio(c))
		}
		sorted := append([]int(nil), ids...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && benefit(sorted[j]) > benefit(sorted[j-1]); j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		for _, id := range sorted[k:] {
			out[id] = false
		}
	}
	return out
}

// canonicalArtifact is an artifact with its maps pulled out into sorted
// slices. Gob writes map entries in Go's randomized iteration order, so the
// gob bytes of one artifact differ between encodings; the gob bytes of this
// form are a deterministic function of the artifact's contents.
type canonicalArtifact struct {
	Artifact pipeline.Artifact
	Maps     []canonicalMaps
}

type canonicalMaps struct {
	Preferred   [][2]int
	Dispersion  []canonicalFloat
	Attractable [][2]int
}

type canonicalFloat struct {
	ID int
	V  float64
}

// canonicalGob returns the deterministic gob bytes of an artifact.
func canonicalGob(a *pipeline.Artifact) ([]byte, error) {
	c := canonicalArtifact{Artifact: *a}
	c.Artifact.Loops = make([]pipeline.LoopArtifact, len(a.Loops))
	for i, la := range a.Loops {
		var m canonicalMaps
		for id, v := range la.Preferred {
			m.Preferred = append(m.Preferred, [2]int{id, v})
		}
		for id, v := range la.Dispersion {
			m.Dispersion = append(m.Dispersion, canonicalFloat{id, v})
		}
		for id, v := range la.Attractable {
			b := 0
			if v {
				b = 1
			}
			m.Attractable = append(m.Attractable, [2]int{id, b})
		}
		sort.Slice(m.Preferred, func(x, y int) bool { return m.Preferred[x][0] < m.Preferred[y][0] })
		sort.Slice(m.Dispersion, func(x, y int) bool { return m.Dispersion[x].ID < m.Dispersion[y].ID })
		sort.Slice(m.Attractable, func(x, y int) bool { return m.Attractable[x][0] < m.Attractable[y][0] })
		la.Preferred, la.Dispersion, la.Attractable = nil, nil, nil
		c.Artifact.Loops[i] = la
		c.Maps = append(c.Maps, m)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sameArtifact reports whether two artifacts have equal canonical gob bytes.
func sameArtifact(a, b *pipeline.Artifact) (bool, error) {
	x, err := canonicalGob(a)
	if err != nil {
		return false, err
	}
	y, err := canonicalGob(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(x, y), nil
}

// diskMagic and artifactPath follow pipeline.DiskStore's on-disk layout:
// "<dir>/<key>.art" holding the magic line, the payload's sha256 and the
// gob payload. The traced run writes artifacts in that layout itself so it
// can time the encode and the write apart from the compile; every file it
// writes is read back through DiskStore.Get, which proves the layouts agree.
const diskMagic = "ivliw-artifact-v1\n"

func artifactPath(dir, key string) string { return filepath.Join(dir, key+".art") }

// cell is one (benchmark × variant) evaluation. Cells with equal group are
// lanes of one batched simulation, at most replayOpts.lanes per batch.
type cell struct {
	bench workload.BenchSpec
	v     experiments.Variant
	group string
}

// replayOpts selects how a replay resolves artifacts.
type replayOpts struct {
	// lanes caps the lanes of one batched simulation (<= 1: every cell
	// simulates alone).
	lanes int
	// putDir, when set, receives every compiled artifact (encode + write).
	putDir string
	// warmDir, when set, supplies every artifact from a filled DiskStore
	// instead of compiling; a disk miss fails the replay.
	warmDir string
	// refDir, when set, holds the program's own artifacts to check the
	// staged compiles against; otherwise pipeline.Compile is called.
	refDir string
}

// replayResult is what a replay produced besides its tracer numbers.
type replayResult struct {
	benches []stats.Bench // per cell
	wallS   float64       // replay phases only, checks excluded
	checks  []string      // failed checks, empty when all passed
}

// replay evaluates cells through the layers' public functions, timing each
// call: artifacts (staged compile, or disk get + decode), optional encode
// and disk put, then simulation in the program's batch shapes.
func replay(t *tracer, cells []cell, o replayOpts) (replayResult, error) {
	var res replayResult
	fail := func(format string, args ...any) { res.checks = append(res.checks, fmt.Sprintf(format, args...)) }

	// Distinct compile specs, in first-use order.
	arts := map[string]*pipeline.Artifact{}
	var keys []string
	specs := map[string]pipeline.CompileSpec{}
	cellKey := make([]string, len(cells))
	for i, c := range cells {
		s := c.v.CompileSpec(c.bench)
		k := s.Key()
		cellKey[i] = k
		if _, ok := specs[k]; !ok {
			specs[k] = s
			keys = append(keys, k)
		}
	}
	var ref, warm *pipeline.DiskStore
	if o.refDir != "" {
		var err error
		if ref, err = pipeline.NewDiskStore(o.refDir); err != nil {
			return res, err
		}
	}
	if o.warmDir != "" {
		var err error
		if warm, err = pipeline.NewDiskStore(o.warmDir); err != nil {
			return res, err
		}
	}
	var kb []float64
	for _, k := range keys {
		s := specs[k]
		if warm != nil {
			t0 := time.Now()
			art, size, err := warmLoad(t, warm, s)
			if err != nil {
				return res, err
			}
			res.wallS += time.Since(t0).Seconds()
			arts[k] = art
			kb = append(kb, size)
			continue
		}
		t0 := time.Now()
		art, err := stagedCompile(t, s)
		if err != nil {
			return res, err
		}
		res.wallS += time.Since(t0).Seconds()

		// The check is not part of the traced work: its time is excluded.
		var want *pipeline.Artifact
		if ref != nil {
			want, err = ref.Get(s)
		} else {
			want, err = pipeline.Compile(s)
		}
		if err != nil {
			return res, err
		}
		if ok, err := sameArtifact(art, want); err != nil {
			return res, err
		} else if !ok {
			fail("staged compile of %s (%d clusters) differs from pipeline.Compile", s.Bench.Name, s.Cfg.Clusters)
		}
		arts[k] = art

		if o.putDir != "" {
			t0 := time.Now()
			var payload bytes.Buffer
			t.span("pipeline.encode_ms", func() { err = art.Encode(&payload) })
			if err != nil {
				return res, err
			}
			t.span("pipeline.disk_put_ms", func() {
				sum := sha256.Sum256(payload.Bytes())
				file := append(append([]byte(diskMagic), sum[:]...), payload.Bytes()...)
				err = atomicio.WriteFile(artifactPath(o.putDir, k), file)
			})
			if err != nil {
				return res, err
			}
			res.wallS += time.Since(t0).Seconds()
			kb = append(kb, float64(payload.Len())/1024)
		}
	}
	if ref != nil && ref.Stats().Misses > 0 {
		fail("the program's artifact store lacked %d of the replayed artifacts", ref.Stats().Misses)
	}
	if o.putDir != "" {
		// Read every written file back through the program's store: a hit
		// for each proves the files follow DiskStore's layout.
		ds, err := pipeline.NewDiskStore(o.putDir)
		if err != nil {
			return res, err
		}
		for _, k := range keys {
			if _, err := ds.Get(specs[k]); err != nil {
				return res, err
			}
		}
		if st := ds.Stats(); st.Misses > 0 {
			fail("%d written artifacts did not read back as DiskStore hits", st.Misses)
		}
	}
	if len(kb) > 0 {
		t.count["pipeline.artifact_kb"] = median(kb)
	}

	// Simulation, in the batch shapes of the program.
	type batch struct {
		cells []int
	}
	var batches []*batch
	open := map[string]*batch{}
	lanes := max(o.lanes, 1)
	for i, c := range cells {
		b := open[c.group]
		if b == nil || len(b.cells) >= lanes {
			b = &batch{}
			open[c.group] = b
			batches = append(batches, b)
		}
		b.cells = append(b.cells, i)
	}
	res.benches = make([]stats.Bench, len(cells))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for _, b := range batches {
		c0 := cells[b.cells[0]]
		art := arts[cellKey[b.cells[0]]]
		cfgs := make([]arch.Config, len(b.cells))
		for j, ci := range b.cells {
			cfgs[j] = cells[ci].v.Cfg
		}
		outs, err := pipeline.SimulateBatch(art, c0.bench, cfgs, c0.v.Aligned)
		if err != nil {
			return res, err
		}
		for j, ci := range b.cells {
			res.benches[ci] = outs[j]
		}
	}
	simMS := msSince(t0)
	runtime.ReadMemStats(&after)
	res.wallS += simMS / 1000
	t.ms["sim.run_ms"] += simMS
	var accesses int64
	for i := range res.benches {
		for _, a := range res.benches[i].Accesses() {
			accesses += a
		}
	}
	if accesses > 0 {
		t.count["sim.ns_per_access"] = simMS * 1e6 / float64(accesses)
	}
	t.count["sim.allocs_per_cell"] = float64(after.Mallocs-before.Mallocs) / float64(len(cells))
	t.count["sim.cells"] = float64(len(cells))
	t.count["sim.batches"] = float64(len(batches))

	// Batched lanes must equal serial simulation: checked on the first
	// multi-lane batch of every benchmark.
	seen := map[string]bool{}
	for _, b := range batches {
		c0 := cells[b.cells[0]]
		if len(b.cells) < 2 || seen[c0.bench.Name] {
			continue
		}
		seen[c0.bench.Name] = true
		for _, ci := range b.cells {
			c := cells[ci]
			want, err := pipeline.Simulate(arts[cellKey[ci]], c.bench, c.v.Cfg, c.v.Aligned)
			if err != nil {
				return res, err
			}
			if !reflect.DeepEqual(want, res.benches[ci]) {
				fail("batched lane %s/%s differs from serial pipeline.Simulate", c.bench.Name, c.v.Label)
			}
		}
	}

	front, lane, err := simFit(arts[keys[0]], specs[keys[0]].Bench, cells[0].v)
	if err != nil {
		return res, err
	}
	t.count["sim.front_us"], t.count["sim.lane_us"] = front, lane
	return res, nil
}

// warmLoad resolves one artifact from a filled disk store: DiskStore.Get
// (read, checksum, decode) is the timed store lookup, and a second decode
// of the same file's payload times the gob decode on its own.
func warmLoad(t *tracer, ds *pipeline.DiskStore, s pipeline.CompileSpec) (*pipeline.Artifact, float64, error) {
	misses := ds.Stats().Misses
	var art *pipeline.Artifact
	var err error
	t.span("pipeline.disk_get_ms", func() { art, err = ds.Get(s) })
	if err != nil {
		return nil, 0, err
	}
	if ds.Stats().Misses > misses {
		return nil, 0, fmt.Errorf("disk miss for %s in the filled store %s", s.Bench.Name, ds.Dir())
	}
	data, err := os.ReadFile(artifactPath(ds.Dir(), s.Key()))
	if err != nil {
		return nil, 0, err
	}
	payload := data[len(diskMagic)+sha256.Size:]
	t.span("pipeline.decode_ms", func() { _, err = pipeline.DecodeArtifact(bytes.NewReader(payload)) })
	return art, float64(len(payload)) / 1024, err
}

// simFitLanes are the batch widths the simulator cost model is fitted over.
var simFitLanes = []int{1, 2, 4, 8}

// simFit times pipeline.SimulateBatch on one artifact at 1, 2, 4 and 8
// lanes (lanes differ only in MSHR depth, a simulate-only axis) and fits
// t(k) = front + k·lane, in microseconds. Each width takes the median of
// several repeats.
func simFit(art *pipeline.Artifact, bench workload.BenchSpec, v experiments.Variant) (front, lane float64, err error) {
	const repeats = 7
	var xs, ys []float64
	for _, k := range simFitLanes {
		cfgs := make([]arch.Config, k)
		for j := range cfgs {
			cfgs[j] = v.Cfg
			cfgs[j].MSHRs = j // 0 = unbounded, then 1, 2, ...
		}
		var ts []float64
		for r := 0; r < repeats; r++ {
			t0 := time.Now()
			if _, err := pipeline.SimulateBatch(art, bench, cfgs, v.Aligned); err != nil {
				return 0, 0, err
			}
			ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		xs = append(xs, float64(k))
		ys = append(ys, median(ts))
	}
	front, lane = fitLine(xs, ys)
	return front, lane, nil
}
