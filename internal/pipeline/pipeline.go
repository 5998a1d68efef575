// Package pipeline splits the compile+simulate path into two explicit
// stages with a serializable, content-addressed artifact between them.
//
// Stage 1 (Compile) runs the paper's full scheduling pipeline over every
// loop of a benchmark and captures the result as an Artifact: the modulo
// schedule (II, kernel, latency assignment), the unroll factor, and the
// compiler→simulator annotations (preferred clusters, dispersion,
// attractable hints). The artifact is keyed by a content hash of the inputs
// that can influence it — the benchmark's loop IR and profile seed, the
// compiler options, the alignment policy, and the layout-relevant subset of
// arch.Config (arch.Config.CompileKey) — and deliberately nothing else:
// simulate-only axes (memory-bus count, next-level ports, MSHR depth,
// Attraction Buffer geometry while hints are off, execution seed) do not
// perturb the key, so sweep cells that differ only in those axes share one
// compilation.
//
// Stage 2 (Simulate) consumes an artifact under a full machine
// configuration: it builds the execution data set's layout and cache
// hierarchy and runs the cycle-level simulator over the cached schedules.
// Simulate never mutates the artifact, so one artifact can feed many
// concurrent simulations.
//
// Artifacts are plain data (no closures) and round-trip through
// encoding/gob (Encode/Decode), which is what makes cross-process schedule
// caches and sharded sweeps possible later.
package pipeline

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"

	"ivliw/internal/addrspace"
	"ivliw/internal/arch"
	"ivliw/internal/cache"
	"ivliw/internal/core"
	"ivliw/internal/ir"
	"ivliw/internal/sched"
	"ivliw/internal/sim"
	"ivliw/internal/stats"
	"ivliw/internal/workload"
)

// CompileSpec identifies the inputs of one compile-stage run: a benchmark,
// a machine point, the compiler options and the alignment policy. Two specs
// with equal Key() compile to identical artifacts.
type CompileSpec struct {
	// Bench supplies the loop IR and the profile data-set seed. The
	// execution seed and invocation counts are simulate-stage inputs and
	// do not reach the key.
	Bench workload.BenchSpec
	// Cfg is the machine point; only its CompileKey()-covered subset
	// affects the artifact.
	Cfg arch.Config
	// Opt is the compiler configuration.
	Opt core.Options
	// Aligned enables the §4.3.4 variable-alignment policy for the
	// profile (and, by convention, execution) data sets.
	Aligned bool
}

// Key returns the content hash addressing this spec's artifact.
func (s CompileSpec) Key() string {
	b := keyPrefix(nil, s.Cfg, s.Opt, s.Aligned, s.Bench.ProfileSeed)
	for _, ls := range s.Bench.Loops {
		b = appendLoopFingerprint(b, ls.Loop)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// OptionsKey canonically encodes every core.Options field that can change a
// compilation result.
func OptionsKey(opt core.Options) string {
	return fmt.Sprintf("opt1|h%d|u%d|nc%t|pi%d|mii%d|nla%t|no%t",
		int(opt.Heuristic), int(opt.Unroll), opt.NoChains,
		opt.ProfileIters, opt.MaxII, opt.NoLatAssign, opt.NaiveOrder)
}

// LoopKey returns the content hash of a single-loop compilation (the
// per-loop analogue of CompileSpec.Key, used by api.Program's artifact
// cache). layoutLoops must be every loop the data layout is built over —
// the layout assigns symbol addresses across the whole set, so a loop's
// schedule depends on its co-resident loops, not just its own body.
// profileSeed identifies the profile data set driving layout and
// profiling.
func LoopKey(l *ir.Loop, layoutLoops []*ir.Loop, cfg arch.Config, opt core.Options, aligned bool, profileSeed uint64) string {
	b := keyPrefix(nil, cfg, opt, aligned, profileSeed)
	b = appendLoopFingerprint(b, l)
	b = append(b, "|layout|"...)
	for _, ll := range layoutLoops {
		b = appendLoopFingerprint(b, ll)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// keyPrefix appends the machine, options, alignment and profile-seed part
// that CompileSpec.Key and LoopKey hash ahead of the loop fingerprints.
func keyPrefix(b []byte, cfg arch.Config, opt core.Options, aligned bool, profileSeed uint64) []byte {
	b = append(b, cfg.CompileKey()...)
	b = append(b, '|')
	b = append(b, OptionsKey(opt)...)
	b = append(b, "|al"...)
	b = strconv.AppendBool(b, aligned)
	b = append(b, "|pseed"...)
	b = strconv.AppendUint(b, profileSeed, 10)
	return append(b, '|')
}

// appendLoopFingerprint appends a canonical byte encoding of the loop IR —
// metadata, instructions (with memory descriptors) and dependence edges.
// The bytes name stored artifacts, so they never change: they are what
// fmt's "loop|%s|%d|%x|%d|", "i%d,%s,%d", ",m:%s,%d,%d,%d,%t,%d,%t,%d,%d",
// ";" and "e%d>%d,%d,%d;" wrote.
func appendLoopFingerprint(b []byte, l *ir.Loop) []byte {
	num := func(sep byte, v int64) { b = strconv.AppendInt(append(b, sep), v, 10) }
	flag := func(v bool) { b = strconv.AppendBool(append(b, ','), v) }
	b = append(append(b, "loop|"...), l.Name...)
	num('|', int64(l.AvgIters))
	b = strconv.AppendUint(append(b, '|'), math.Float64bits(l.Weight), 16)
	num('|', int64(l.Unroll))
	b = append(b, '|')
	for _, in := range l.Instrs {
		num('i', int64(in.ID))
		b = append(append(b, ','), in.Name...)
		num(',', int64(in.Class))
		if m := in.Mem; m != nil {
			b = append(append(b, ",m:"...), m.Sym...)
			num(',', int64(m.Kind))
			num(',', m.Offset)
			num(',', m.Stride)
			flag(m.StrideKnown)
			num(',', int64(m.Gran))
			flag(m.Indirect)
			num(',', m.IndirectSpan)
			num(',', m.SymBytes)
		}
		b = append(b, ';')
	}
	for _, e := range l.Edges {
		num('e', int64(e.From))
		num('>', int64(e.To))
		num(',', int64(e.Kind))
		num(',', int64(e.Distance))
		b = append(b, ';')
	}
	return b
}

// LoopArtifact is the compile-stage output for one loop: the schedule plus
// every compiler annotation the simulator consumes, as plain data.
type LoopArtifact struct {
	// Schedule is the final modulo schedule of the unrolled loop
	// (Schedule.Loop is the unrolled body; Schedule.Assigned the latency
	// assignment the schedule was built against).
	Schedule *sched.Schedule
	// UnrollFactor is the factor actually applied.
	UnrollFactor int
	// Iters is the simulated trip count (the unrolled loop's AvgIters).
	Iters int64
	// Aligned records the alignment policy the loop was compiled under.
	Aligned bool
	// CompileKey records arch.Config.CompileKey() of the compiling
	// configuration, so a consumer can reject an artifact built for an
	// incompatible machine layout (deliberately the layout-relevant
	// subset: simulate-only axes may differ freely).
	CompileKey string
	// Preferred maps memory instruction IDs to their (chain-averaged)
	// target cluster; Dispersion to the concentration of the profiled
	// preferred-cluster information; Attractable to the §5.2 hint.
	Preferred   map[int]int
	Dispersion  map[int]float64
	Attractable map[int]bool
}

// Meta rebuilds the simulator annotations from the captured maps.
func (a *LoopArtifact) Meta() sim.Meta {
	return sim.Meta{
		Preferred:   func(id int) int { return a.Preferred[id] },
		Dispersion:  func(id int) float64 { return a.Dispersion[id] },
		Attractable: func(id int) bool { return a.Attractable[id] },
	}
}

// fromCompiled flattens a rich compile result into its serializable subset.
func fromCompiled(c *core.Compiled, cfg arch.Config, aligned bool) LoopArtifact {
	la := LoopArtifact{
		Schedule:     c.Schedule,
		UnrollFactor: c.UnrollFactor,
		Iters:        int64(c.Loop.AvgIters),
		Aligned:      aligned,
		CompileKey:   cfg.CompileKey(),
		Preferred:    c.Preferred,
		Attractable:  c.Attractable,
		Dispersion:   make(map[int]float64, len(c.Preferred)),
	}
	for _, id := range c.Loop.MemInstrs() {
		la.Dispersion[id] = c.Profile.Stats(id).Dispersion()
	}
	return la
}

// Artifact is the compile-stage output for one benchmark under one compile
// key: one LoopArtifact per loop, in BenchSpec.Loops order.
type Artifact struct {
	// Key is the content hash of the producing CompileSpec.
	Key string
	// Bench names the benchmark the artifact was compiled from (loop
	// structure and profile seed; any benchmark with the same compile
	// inputs may consume it).
	Bench string
	// Loops are the per-loop artifacts.
	Loops []LoopArtifact
}

// Encode serializes the artifact (gob).
func (a *Artifact) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(a)
}

// DecodeArtifact reads an artifact back from its Encode stream.
func DecodeArtifact(r io.Reader) (*Artifact, error) {
	var a Artifact
	if err := gob.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("pipeline: decode artifact: %w", err)
	}
	return &a, nil
}

// CompileLoop runs stage 1 on a single loop against an existing profile
// layout (the per-loop entry point behind api.Program).
func CompileLoop(l *ir.Loop, cfg arch.Config, profLay *addrspace.Layout, profDS addrspace.Dataset, opt core.Options) (*LoopArtifact, error) {
	c, err := core.Compile(l, cfg, profLay, profDS, opt)
	if err != nil {
		return nil, err
	}
	la := fromCompiled(c, cfg, profDS.Aligned)
	return &la, nil
}

// Compile runs stage 1 over every loop of the spec's benchmark: it builds
// the profile data set's layout, compiles each loop through the full
// pipeline (unroll → latency assignment → order → cluster assignment and
// schedule) and returns the content-addressed artifact.
func Compile(s CompileSpec) (*Artifact, error) {
	return compileKeyed(s, s.Key())
}

// compileKeyed is Compile with the spec's key already computed.
func compileKeyed(s CompileSpec, key string) (*Artifact, error) {
	if err := s.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", s.Bench.Name, err)
	}
	profDS := addrspace.Dataset{Seed: s.Bench.ProfileSeed, Aligned: s.Aligned}
	profLay := addrspace.NewLayout(s.Bench.AllLoops(), s.Cfg, profDS)
	art := &Artifact{Key: key, Bench: s.Bench.Name, Loops: make([]LoopArtifact, 0, len(s.Bench.Loops))}
	for _, ls := range s.Bench.Loops {
		la, err := CompileLoop(ls.Loop, s.Cfg, profLay, profDS, s.Opt)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %s/%s: %w", s.Bench.Name, ls.Loop.Name, err)
		}
		art.Loops = append(art.Loops, *la)
	}
	return art, nil
}

// Simulate runs stage 2: every loop artifact is simulated against the
// benchmark's execution data set under the given (full) machine
// configuration, sharing one cache hierarchy across the benchmark's loops
// exactly like the monolithic path did. The artifact is read-only; cfg may
// differ from the compiling configuration in simulate-only axes. Simulate
// is SimulateBatch with one lane.
func Simulate(a *Artifact, bench workload.BenchSpec, cfg arch.Config, aligned bool) (stats.Bench, error) {
	outs, err := SimulateBatch(a, bench, []arch.Config{cfg}, aligned)
	return outs[0], err
}

// SimKey returns the grouping key under which machine configurations may
// share one batched simulation of an artifact: the compile key (which
// covers every layout-relevant field — the execution address layout depends
// on the configuration only through Clusters×Interleave) plus the alignment
// policy. Cells with equal SimKey and equal artifact differ only in
// simulate-only state and are batchable through SimulateBatch.
func SimKey(cfg arch.Config, aligned bool) string {
	return fmt.Sprintf("%s|al%t", cfg.CompileKey(), aligned)
}

// SimulateBatch runs stage 2 once for a batch of sibling configurations:
// one shared pass over each loop's access stream (issue order, address
// generation) drives per-lane machine state, so k cells that differ only in
// simulate-only axes cost roughly one simulation's worth of event traffic.
// Every lane must share SimKey (equivalently: the artifact's CompileKey);
// a mismatched lane fails the whole batch. On error the returned slice
// still has one (named, possibly partial) entry per lane, so batch-of-1
// wrappers can unwrap it unconditionally.
func SimulateBatch(a *Artifact, bench workload.BenchSpec, cfgs []arch.Config, aligned bool) ([]stats.Bench, error) {
	outs := make([]stats.Bench, len(cfgs))
	for l := range outs {
		outs[l] = stats.Bench{Name: bench.Name}
	}
	if len(cfgs) == 0 {
		return outs, nil
	}
	if len(a.Loops) != len(bench.Loops) {
		return outs, fmt.Errorf("pipeline: artifact %s has %d loops, benchmark %s has %d",
			a.Bench, len(a.Loops), bench.Name, len(bench.Loops))
	}
	for i := range a.Loops {
		// Alignment is a compile-time layout policy: the schedules were
		// built against it, so the execution layout must match or every
		// latency class silently skews.
		if a.Loops[i].Aligned != aligned {
			return outs, fmt.Errorf("pipeline: artifact %s was compiled with aligned=%t, simulated with %t",
				a.Bench, a.Loops[i].Aligned, aligned)
		}
		// Only a corrupt or foreign artifact carries an II below 1; the
		// simulator's kernel order divides by it.
		if ii := a.Loops[i].Schedule.II; ii < 1 {
			return outs, fmt.Errorf("pipeline: artifact %s loop %d has II %d, want at least 1", a.Bench, i, ii)
		}
	}
	key := SimKey(cfgs[0], aligned)
	for l := 1; l < len(cfgs); l++ {
		if SimKey(cfgs[l], aligned) != key {
			return outs, fmt.Errorf("pipeline: %s: batch lane %d sim key %q differs from lane 0 %q",
				bench.Name, l, SimKey(cfgs[l], aligned), key)
		}
	}
	hiers := make([]cache.Hierarchy, len(cfgs))
	for l := range cfgs {
		h, err := cache.New(cfgs[l])
		if err != nil {
			return outs, fmt.Errorf("pipeline: %s: %w", bench.Name, err)
		}
		hiers[l] = h
	}
	execDS := addrspace.Dataset{Seed: bench.ExecSeed, Aligned: aligned}
	execLay := addrspace.NewLayout(bench.AllLoops(), cfgs[0], execDS)
	for i := range bench.Loops {
		la := &a.Loops[i]
		ress := sim.RunLoopBatch(la.Schedule, execLay, execDS, cfgs, hiers, la.Iters, la.Meta())
		for l := range ress {
			ress[l].Scale(bench.Loops[i].Invocations)
			outs[l].Loops = append(outs[l].Loops, ress[l])
		}
	}
	return outs, nil
}
