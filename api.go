package ivliw

import (
	"fmt"
	"sync"

	"ivliw/internal/addrspace"
	"ivliw/internal/arch"
	"ivliw/internal/cache"
	"ivliw/internal/core"
	"ivliw/internal/ir"
	"ivliw/internal/pipeline"
	"ivliw/internal/sched"
	"ivliw/internal/sim"
	"ivliw/internal/stats"
)

// Config is the machine description (Table 2 of the paper).
type Config = arch.Config

// DefaultConfig returns the paper's 4-cluster word-interleaved machine.
func DefaultConfig() Config { return arch.Default() }

// UnifiedConfig returns the unified-cache baseline with the given total
// access latency (1 = optimistic, 5 = realistic).
func UnifiedConfig(latency int) Config { return arch.UnifiedConfig(latency) }

// MultiVLIWConfig returns the cache-coherent clustered machine.
func MultiVLIWConfig() Config { return arch.MultiVLIWConfig() }

// Loop is a modulo-schedulable innermost loop.
type Loop = ir.Loop

// LoopBuilder incrementally constructs a Loop.
type LoopBuilder = ir.Builder

// NewLoop starts building a loop with the given name, average trip count
// and dynamic weight.
func NewLoop(name string, avgIters int, weight float64) *LoopBuilder {
	return ir.NewBuilder(name, avgIters, weight)
}

// MemInfo describes a memory instruction's address behaviour.
type MemInfo = ir.MemInfo

// Opcode classes for LoopBuilder.Op.
const (
	OpIntALU = ir.OpIntALU
	OpMul    = ir.OpMul
	OpDiv    = ir.OpDiv
	OpFPALU  = ir.OpFPALU
)

// Storage classes for MemInfo.Kind (they select the §4.3.4 alignment
// policy: stack and heap symbols are padded to N·I when alignment is on;
// globals never move).
const (
	Global = ir.AllocGlobal
	Stack  = ir.AllocStack
	Heap   = ir.AllocHeap
)

// Heuristic selects the memory cluster-assignment policy.
type Heuristic = sched.Heuristic

// The paper's three heuristics.
const (
	BASE = sched.Base
	IBC  = sched.IBC
	IPBC = sched.IPBC
)

// UnrollMode selects the unrolling policy.
type UnrollMode = core.UnrollMode

// The paper's unrolling policies.
const (
	NoUnroll  = core.NoUnroll
	UnrollxN  = core.UnrollxN
	OUFUnroll = core.OUFUnroll
	Selective = core.Selective
)

// CompileOptions configures the scheduling pipeline.
type CompileOptions = core.Options

// Compiled is a scheduled loop with its profile and annotations.
type Compiled = core.Compiled

// ScheduleArtifact is the serializable stage-1 (compile) output for one
// loop: the modulo schedule plus the compiler→simulator annotations, with
// no closures or profile state attached. Artifacts are content-addressed —
// see Program.CompileArtifact — and read-only: one artifact can be
// simulated many times, and the artifact itself is safe to share across
// goroutines. Simulation on one Program is not: RunArtifact, like Run,
// mutates the Program's shared cache state, so callers must serialize
// RunArtifact/Run calls per Program (use separate Programs — or the
// internal pipeline.Simulate, which builds fresh hierarchy state per call
// — for concurrent simulation).
type ScheduleArtifact = pipeline.LoopArtifact

// LoopStats is the measurement of one simulated loop.
type LoopStats = stats.Loop

// BenchStats aggregates loop measurements.
type BenchStats = stats.Bench

// Program fixes a machine configuration, a set of loops (which determines
// the data layout), and the identities of the profile and execution data
// sets. It mirrors the paper's setup: the compiler profiles on one input
// file and the evaluation runs on another.
type Program struct {
	cfg     Config
	loops   []*Loop
	profDS  addrspace.Dataset
	execDS  addrspace.Dataset
	profLay *addrspace.Layout
	execLay *addrspace.Layout
	hier    cache.Hierarchy

	// artMu guards artifacts, the program's content-addressed store of
	// compiled schedules (one entry per distinct (loop, options) key).
	artMu     sync.Mutex
	artifacts map[string]*ScheduleArtifact
}

// ProgramOption customizes a Program.
type ProgramOption func(*programConfig)

type programConfig struct {
	profileSeed, execSeed uint64
	aligned               bool
}

// WithSeeds sets the profile and execution data-set seeds (they default to
// 1 and 2).
func WithSeeds(profile, exec uint64) ProgramOption {
	return func(pc *programConfig) { pc.profileSeed, pc.execSeed = profile, exec }
}

// WithoutAlignment disables the §4.3.4 variable-alignment policy (it is on
// by default).
func WithoutAlignment() ProgramOption {
	return func(pc *programConfig) { pc.aligned = false }
}

// NewProgram builds a Program over the given loops. The configuration is
// validated once here: a Program can only be constructed over a coherent
// machine point, and an invalid point (for example one cell of a
// design-space sweep) is reported as an error instead of a panic.
func NewProgram(cfg Config, loops []*Loop, opts ...ProgramOption) (*Program, error) {
	pc := programConfig{profileSeed: 1, execSeed: 2, aligned: true}
	for _, o := range opts {
		o(&pc)
	}
	hier, err := cache.New(cfg) // validates cfg
	if err != nil {
		return nil, err
	}
	profDS := addrspace.Dataset{Seed: pc.profileSeed, Aligned: pc.aligned}
	execDS := addrspace.Dataset{Seed: pc.execSeed, Aligned: pc.aligned}
	return &Program{
		cfg:     cfg,
		loops:   loops,
		profDS:  profDS,
		execDS:  execDS,
		profLay: addrspace.NewLayout(loops, cfg, profDS),
		execLay: addrspace.NewLayout(loops, cfg, execDS),
		hier:    hier,
	}, nil
}

// Config returns the machine configuration.
func (p *Program) Config() Config { return p.cfg }

// Compile runs the paper's full pipeline (unroll → assign latencies → order
// → assign clusters and schedule) on one of the program's loops and returns
// the rich compile result (schedule plus profile, chains and latency
// trace). Callers that only need to simulate should prefer CompileArtifact,
// which caches by content and returns the serializable stage-1 artifact.
func (p *Program) Compile(l *Loop, opt CompileOptions) (*Compiled, error) {
	if !p.contains(l) {
		return nil, fmt.Errorf("ivliw: loop %q is not part of this program", l.Name)
	}
	return core.Compile(l, p.cfg, p.profLay, p.profDS, opt)
}

// CompileArtifact runs the compile stage on one of the program's loops and
// returns its schedule artifact. Artifacts are cached inside the Program by
// a content key covering the loop IR, the options, the alignment policy,
// the profile seed and the layout-relevant subset of the configuration
// (Config.CompileKey) — recompiling the same loop with equivalent options
// is free. The returned artifact is shared and must be treated as
// read-only.
func (p *Program) CompileArtifact(l *Loop, opt CompileOptions) (*ScheduleArtifact, error) {
	if !p.contains(l) {
		return nil, fmt.Errorf("ivliw: loop %q is not part of this program", l.Name)
	}
	key := pipeline.LoopKey(l, p.loops, p.cfg, opt, p.profDS.Aligned, p.profDS.Seed)
	p.artMu.Lock()
	a, ok := p.artifacts[key]
	p.artMu.Unlock()
	if ok {
		return a, nil
	}
	a, err := pipeline.CompileLoop(l, p.cfg, p.profLay, p.profDS, opt)
	if err != nil {
		return nil, err
	}
	p.artMu.Lock()
	if p.artifacts == nil {
		p.artifacts = map[string]*ScheduleArtifact{}
	}
	if prev, ok := p.artifacts[key]; ok {
		a = prev // a concurrent compile won; keep one canonical artifact
	} else {
		p.artifacts[key] = a
	}
	p.artMu.Unlock()
	return a, nil
}

// RunArtifact simulates a schedule artifact on the execution data set for
// its compiled trip count (stage 2 of the pipeline), sharing the program's
// cache state like Run. Artifacts travel across Programs and processes
// (gob), so the compile provenance the schedule was built under — the
// alignment policy and the layout-relevant configuration subset
// (Config.CompileKey) — is checked against this program's: a mismatch
// would panic on out-of-range clusters or silently skew every latency
// class, and is reported as an error instead. Simulate-only axes may
// differ freely.
func (p *Program) RunArtifact(a *ScheduleArtifact) (LoopStats, error) {
	return p.RunArtifactIters(a, a.Iters)
}

// RunArtifactIters simulates a schedule artifact for an explicit trip count.
func (p *Program) RunArtifactIters(a *ScheduleArtifact, iters int64) (LoopStats, error) {
	if a.Aligned != p.execDS.Aligned {
		return LoopStats{}, fmt.Errorf("ivliw: artifact for %q was compiled with aligned=%t, this program uses %t",
			a.Schedule.Loop.Name, a.Aligned, p.execDS.Aligned)
	}
	if a.Schedule.II < 1 {
		return LoopStats{}, fmt.Errorf("ivliw: artifact for %q has II %d, want at least 1",
			a.Schedule.Loop.Name, a.Schedule.II)
	}
	if key := p.cfg.CompileKey(); a.CompileKey != key {
		return LoopStats{}, fmt.Errorf("ivliw: artifact for %q was compiled for machine %s, this program is %s",
			a.Schedule.Loop.Name, a.CompileKey, key)
	}
	// A foreign artifact may reference symbols this program's layout never
	// placed; they would all fall to address 0 and silently collide.
	for _, in := range a.Schedule.Loop.Instrs {
		if in.Mem != nil && !p.execLay.Resolves(in.Mem.Sym) {
			return LoopStats{}, fmt.Errorf("ivliw: artifact for %q references symbol %q, which is not in this program's layout",
				a.Schedule.Loop.Name, in.Mem.Sym)
		}
	}
	return sim.RunLoop(a.Schedule, p.execLay, p.execDS, p.cfg, p.hier, iters, a.Meta()), nil
}

func (p *Program) contains(l *Loop) bool {
	for _, x := range p.loops {
		if x == l {
			return true
		}
	}
	return false
}

// Run simulates the compiled loop on the execution data set for its average
// trip count, sharing the program's cache state across calls (Attraction
// Buffers are flushed between loops, as the architecture requires).
func (p *Program) Run(c *Compiled) LoopStats {
	return p.RunIters(c, int64(c.Loop.AvgIters))
}

// RunIters simulates the compiled loop for an explicit trip count.
func (p *Program) RunIters(c *Compiled, iters int64) LoopStats {
	return sim.RunLoop(c.Schedule, p.execLay, p.execDS, p.cfg, p.hier, iters, c.Meta())
}
