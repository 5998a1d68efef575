package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ivliw/internal/addrspace"
	"ivliw/internal/arch"
	"ivliw/internal/cache"
	"ivliw/internal/core"
	"ivliw/internal/sched"
	"ivliw/internal/sim"
	"ivliw/internal/stats"
	"ivliw/internal/workload"
)

// testBench returns a small deterministic benchmark (cheap to compile).
func testBench(t *testing.T) workload.BenchSpec {
	t.Helper()
	syn, err := workload.SynthSuite(1, 11)
	if err != nil {
		t.Fatal(err)
	}
	return syn[0]
}

func testSpec(t *testing.T) CompileSpec {
	return CompileSpec{
		Bench:   testBench(t),
		Cfg:     arch.Default(),
		Opt:     core.Options{Heuristic: sched.IPBC, Unroll: core.NoUnroll},
		Aligned: true,
	}
}

// monolithic replays the pre-pipeline RunBench path (compile and simulate
// fused, no artifact in between), the reference the staged result must
// match exactly.
func monolithic(spec workload.BenchSpec, cfg arch.Config, opt core.Options, aligned bool) (stats.Bench, error) {
	profDS := addrspace.Dataset{Seed: spec.ProfileSeed, Aligned: aligned}
	execDS := addrspace.Dataset{Seed: spec.ExecSeed, Aligned: aligned}
	loops := spec.AllLoops()
	bench := stats.Bench{Name: spec.Name}
	hier, err := cache.New(cfg)
	if err != nil {
		return bench, err
	}
	profLay := addrspace.NewLayout(loops, cfg, profDS)
	execLay := addrspace.NewLayout(loops, cfg, execDS)
	for _, ls := range spec.Loops {
		c, err := core.Compile(ls.Loop, cfg, profLay, profDS, opt)
		if err != nil {
			return bench, err
		}
		res := sim.RunLoop(c.Schedule, execLay, execDS, cfg, hier, int64(c.Loop.AvgIters), c.Meta())
		res.Scale(ls.Invocations)
		bench.Loops = append(bench.Loops, res)
	}
	return bench, nil
}

// TestStagedMatchesMonolithic: Compile→Simulate must reproduce the fused
// path bit-for-bit, across organizations and option sets, including when
// the simulating configuration differs from the compiling one in
// simulate-only axes.
func TestStagedMatchesMonolithic(t *testing.T) {
	bench := testBench(t)
	cases := []struct {
		name    string
		cfg     func() arch.Config
		opt     core.Options
		aligned bool
	}{
		{"interleaved-ipbc", arch.Default, core.Options{Heuristic: sched.IPBC, Unroll: core.NoUnroll}, true},
		{"interleaved-ibc-ab", func() arch.Config {
			c := arch.Default()
			c.AttractionBuffers = true
			return c
		}, core.Options{Heuristic: sched.IBC, Unroll: core.NoUnroll}, true},
		{"unified", func() arch.Config { return arch.UnifiedConfig(5) }, core.Options{Heuristic: sched.Base, Unroll: core.NoUnroll}, true},
		{"multivliw", arch.MultiVLIWConfig, core.Options{Heuristic: sched.IBC, Unroll: core.NoUnroll}, true},
		{"unaligned-selective", arch.Default, core.Options{Heuristic: sched.IPBC, Unroll: core.Selective}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			want, err := monolithic(bench, cfg, tc.opt, tc.aligned)
			if err != nil {
				t.Fatal(err)
			}
			art, err := Compile(CompileSpec{Bench: bench, Cfg: cfg, Opt: tc.opt, Aligned: tc.aligned})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Simulate(art, bench, cfg, tc.aligned)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("staged result differs from monolithic:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestArtifactReuseAcrossSimulateOnlyAxes: an artifact compiled under one
// configuration simulated under another that differs only in simulate-only
// axes must equal the fused path run entirely under the second
// configuration — the property the sweep cache's byte-identity rests on.
func TestArtifactReuseAcrossSimulateOnlyAxes(t *testing.T) {
	bench := testBench(t)
	opt := core.Options{Heuristic: sched.IPBC, Unroll: core.NoUnroll}
	compileCfg := arch.Default()
	simCfg := compileCfg
	simCfg.AttractionBuffers = true // hints off: invisible to the compiler
	simCfg.MSHRs = 2
	simCfg.MemBuses = 2
	simCfg.NextLevelPorts = 2
	if compileCfg.CompileKey() != simCfg.CompileKey() {
		t.Fatalf("configs differing only in simulate-only axes have different CompileKeys:\n%s\n%s",
			compileCfg.CompileKey(), simCfg.CompileKey())
	}
	art, err := Compile(CompileSpec{Bench: bench, Cfg: compileCfg, Opt: opt, Aligned: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(art, bench, simCfg, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := monolithic(bench, simCfg, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("simulating a shared artifact under simulate-only deltas diverged from a fresh compile")
	}
}

// TestArtifactGobRoundTrip: artifacts are serializable — Encode/Decode must
// round-trip to a deep-equal artifact that simulates to identical results.
func TestArtifactGobRoundTrip(t *testing.T) {
	s := testSpec(t)
	art, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := art.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(art, back) {
		t.Fatal("artifact did not round-trip through gob")
	}
	a, err := Simulate(art, s.Bench, s.Cfg, s.Aligned)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(back, s.Bench, s.Cfg, s.Aligned)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("decoded artifact simulates differently")
	}
}

// simOnlyMutations are the configuration axes the compile stage cannot
// observe; each mutation must leave CompileSpec.Key unchanged and the
// compiled artifact identical.
var simOnlyMutations = []struct {
	name string
	mut  func(*arch.Config)
}{
	{"MemBuses", func(c *arch.Config) { c.MemBuses = 2 }},
	{"NextLevelPorts", func(c *arch.Config) { c.NextLevelPorts = 8 }},
	{"UnifiedPorts", func(c *arch.Config) { c.UnifiedPorts = 2 }},
	{"MSHRs", func(c *arch.Config) { c.MSHRs = 4 }},
	{"UnifiedLatency-on-interleaved", func(c *arch.Config) { c.UnifiedLatency = 9 }},
	{"ABAssoc", func(c *arch.Config) { c.ABAssoc = 4; c.ABEntries = 16 }},
	{"AB-on-hints-off", func(c *arch.Config) { c.AttractionBuffers = true; c.ABEntries = 32 }},
	{"ABHintK-hints-off", func(c *arch.Config) { c.ABHintK = 3 }},
}

// layoutMutations must each change the key: they reach the compiler through
// layout, profiling, the latency ladder, or resource reservation.
var layoutMutations = []struct {
	name string
	mut  func(*CompileSpec)
}{
	{"Clusters", func(s *CompileSpec) { s.Cfg.Clusters = 2 }},
	{"Interleave", func(s *CompileSpec) { s.Cfg.Interleave = 8 }},
	{"BlockBytes", func(s *CompileSpec) { s.Cfg.BlockBytes = 64 }},
	{"CacheBytes", func(s *CompileSpec) { s.Cfg.CacheBytes = 16 * 1024 }},
	{"Assoc", func(s *CompileSpec) { s.Cfg.Assoc = 1 }},
	{"Org", func(s *CompileSpec) { s.Cfg.Org = arch.Unified }},
	{"FUs", func(s *CompileSpec) { s.Cfg.FUsPerCluster[arch.FUMem] = 2 }},
	{"RegBuses", func(s *CompileSpec) { s.Cfg.RegBuses = 2 }},
	{"BusCycleRatio", func(s *CompileSpec) { s.Cfg.BusCycleRatio = 1 }},
	{"LocalHitLatency", func(s *CompileSpec) { s.Cfg.LocalHitLatency = 2 }},
	{"NextLevelLatency", func(s *CompileSpec) { s.Cfg.NextLevelLatency = 20 }},
	{"AB-hints-on", func(s *CompileSpec) {
		s.Cfg.AttractionBuffers = true
		s.Cfg.ABHints = true
	}},
	{"HintBudget", func(s *CompileSpec) {
		s.Cfg.AttractionBuffers = true
		s.Cfg.ABHints = true
		s.Cfg.ABHintK = 5
	}},
	{"Heuristic", func(s *CompileSpec) { s.Opt.Heuristic = sched.IBC }},
	{"Unroll", func(s *CompileSpec) { s.Opt.Unroll = core.OUFUnroll }},
	{"NoChains", func(s *CompileSpec) { s.Opt.NoChains = true }},
	{"MaxII", func(s *CompileSpec) { s.Opt.MaxII = 99 }},
	{"Aligned", func(s *CompileSpec) { s.Aligned = false }},
	{"ProfileSeed", func(s *CompileSpec) { s.Bench.ProfileSeed += 1 }},
}

// TestCompileKeyProperty is the compile-key correctness property test:
// random combinations of simulate-only mutations never change the key (and
// compile to identical artifacts), while every layout-relevant mutation
// changes it.
func TestCompileKeyProperty(t *testing.T) {
	base := testSpec(t)
	baseKey := base.Key()
	baseArt, err := Compile(base)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		s := base
		var applied []string
		for _, m := range simOnlyMutations {
			if rng.Intn(2) == 1 {
				m.mut(&s.Cfg)
				applied = append(applied, m.name)
			}
		}
		if s.Key() != baseKey {
			t.Fatalf("simulate-only mutations %v changed the compile key", applied)
		}
		art, err := Compile(s)
		if err != nil {
			t.Fatalf("mutations %v: %v", applied, err)
		}
		if !reflect.DeepEqual(baseArt, art) {
			t.Fatalf("simulate-only mutations %v changed the compiled artifact", applied)
		}
	}

	seen := map[string]string{baseKey: "base"}
	for _, m := range layoutMutations {
		s := base
		m.mut(&s)
		key := s.Key()
		if key == baseKey {
			t.Errorf("layout-relevant mutation %q did not change the compile key", m.name)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("mutations %q and %q collide on one key", m.name, prev)
		}
		seen[key] = m.name
	}

	// Canonicalization: an explicit hint budget equal to the derived
	// ABEntries/8 default is the same compile input, hence the same key.
	derived := base
	derived.Cfg.AttractionBuffers = true
	derived.Cfg.ABHints = true
	derived.Cfg.ABEntries = 16 // budget 16/8 = 2
	explicit := derived
	explicit.Cfg.ABEntries = 16
	explicit.Cfg.ABHintK = 2
	if derived.Key() != explicit.Key() {
		t.Error("derived and explicit equal hint budgets should share a key")
	}
}

// TestCompileKeyDistinguishesLoops: different loop IR must produce
// different keys even under identical configurations.
func TestCompileKeyDistinguishesLoops(t *testing.T) {
	syn, err := workload.SynthSuite(2, 11)
	if err != nil {
		t.Fatal(err)
	}
	a := CompileSpec{Bench: syn[0], Cfg: arch.Default(), Aligned: true}
	b := CompileSpec{Bench: syn[1], Cfg: arch.Default(), Aligned: true}
	if a.Key() == b.Key() {
		t.Error("different benchmarks share a compile key")
	}
}

// TestCompileInvalidConfig: stage 1 validates its configuration.
func TestCompileInvalidConfig(t *testing.T) {
	s := testSpec(t)
	s.Cfg.Interleave = 3
	if _, err := Compile(s); err == nil {
		t.Error("compile of an invalid configuration must fail")
	}
}

// TestSimulateLoopCountMismatch: stage 2 rejects an artifact whose shape
// does not match the benchmark.
func TestSimulateLoopCountMismatch(t *testing.T) {
	s := testSpec(t)
	art, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	other := s.Bench
	other.Loops = other.Loops[:0]
	if _, err := Simulate(art, other, s.Cfg, true); err == nil {
		t.Error("loop-count mismatch must fail")
	}
}

// TestLoopKeyMatchesSpecKeyGranularity: LoopKey distinguishes options,
// configurations and the co-resident layout loops like CompileSpec.Key
// does.
func TestLoopKeyMatchesSpecKeyGranularity(t *testing.T) {
	bench := testBench(t)
	l := bench.Loops[0].Loop
	all := bench.AllLoops()
	cfg := arch.Default()
	opt := core.Options{Heuristic: sched.IPBC, Unroll: core.NoUnroll}
	base := LoopKey(l, all, cfg, opt, true, 1)
	simOnly := cfg
	simOnly.MemBuses = 2
	if LoopKey(l, all, simOnly, opt, true, 1) != base {
		t.Error("simulate-only axis changed LoopKey")
	}
	layout := cfg
	layout.Clusters = 2
	diffs := map[string]string{
		"clusters":  LoopKey(l, all, layout, opt, true, 1),
		"options":   LoopKey(l, all, cfg, core.Options{Heuristic: sched.IBC, Unroll: core.NoUnroll}, true, 1),
		"alignment": LoopKey(l, all, cfg, opt, false, 1),
		"seed":      LoopKey(l, all, cfg, opt, true, 2),
	}
	if len(all) > 1 {
		// The layout places symbols across every co-resident loop, so
		// the schedule — and the key — depends on the whole set.
		diffs["siblings"] = LoopKey(l, all[:1], cfg, opt, true, 1)
	}
	for name, k := range diffs {
		if k == base {
			t.Errorf("%s change did not change LoopKey", name)
		}
	}
}

// TestSimulateAlignmentMismatch: stage 2 refuses an alignment policy the
// artifact was not compiled under.
func TestSimulateAlignmentMismatch(t *testing.T) {
	s := testSpec(t)
	art, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(art, s.Bench, s.Cfg, !s.Aligned); err == nil {
		t.Error("alignment mismatch must fail")
	}
}

// TestSimulateRejectsIIBelowOne: stage 2 refuses a schedule whose II is
// below 1 with an error; only a corrupt or foreign artifact carries one.
func TestSimulateRejectsIIBelowOne(t *testing.T) {
	s := testSpec(t)
	art, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, ii := range []int{0, -3} {
		bad := *art
		bad.Loops = slices.Clone(art.Loops)
		sc := *bad.Loops[0].Schedule
		sc.II = ii
		bad.Loops[0].Schedule = &sc
		if _, err := SimulateBatch(&bad, s.Bench, []arch.Config{s.Cfg, s.Cfg}, s.Aligned); err == nil ||
			!strings.Contains(err.Error(), "II") {
			t.Errorf("II %d: SimulateBatch error = %v, want a rejection naming the II", ii, err)
		}
	}
	if _, err := Simulate(art, s.Bench, s.Cfg, s.Aligned); err != nil {
		t.Fatalf("the untouched artifact must still simulate: %v", err)
	}
}

var sinkKey string

// BenchmarkCompileKey measures the key hash (it runs once per cache probe).
func BenchmarkCompileKey(b *testing.B) {
	syn, err := workload.SynthSuite(1, 11)
	if err != nil {
		b.Fatal(err)
	}
	s := CompileSpec{Bench: syn[0], Cfg: arch.Default(), Aligned: true}
	for i := 0; i < b.N; i++ {
		sinkKey = s.Key()
	}
	_ = fmt.Sprint(sinkKey)
}
