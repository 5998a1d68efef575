package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"ivliw/internal/core"
	"ivliw/internal/sched"
	"ivliw/internal/workload"
)

// SynthSpec parameterizes one synthetic benchmark (see the workload
// generator): a seeded mix of strided, indirect, reduction and chain
// kernels with controllable footprint, ALU depth and recurrence depth.
// Re-exported here so spec files and external callers can author synthetic
// workload populations against the public package alone.
type SynthSpec = workload.SynthSpec

// Spec is the declarative, JSON-serializable description of one
// design-space sweep: the machine grid, the workload selection, the
// compiler configuration, the execution parallelism, the shard this
// process runs, the artifact store, and the output destination. A spec
// round-trips through Encode/ParseSpec byte-identically, so a run is a
// reproducible file instead of flag soup, and the same file drives every
// shard of a multi-process run.
type Spec struct {
	// Grid declares the machine axes; their cross-product is the point set.
	Grid Grid `json:"grid"`
	// Workloads selects the benchmarks each point runs.
	Workloads Workloads `json:"workloads"`
	// Compile fixes the compiler configuration of every point.
	Compile Compile `json:"compile"`
	// Workers is the worker-pool size (0 = the SetWorkers/GOMAXPROCS
	// default). Row values are independent of it.
	Workers int `json:"workers,omitempty"`
	// SimBatch caps how many sibling cells — same benchmark, same compile
	// key, differing only in simulate-only axes — share one batched
	// simulation pass (pipeline.SimulateBatch): 0 turns batching off,
	// >= 2 enables it with that lane cap (1 behaves like off). Like
	// Workers it is a per-process throughput knob: row values and output
	// bytes are independent of it.
	SimBatch int `json:"sim_batch,omitempty"`
	// Shard names the slice of the row grid this process evaluates.
	Shard Shard `json:"shard"`
	// Store configures the artifact store resolving stage-1 compilations.
	Store Store `json:"store"`
	// Output names the default JSONL destination (used when Run is given a
	// nil sink; "" = stdout).
	Output Output `json:"output"`
	// Heartbeat, when set, makes Run write liveness beats while the shard
	// executes — a per-process knob like Output, omitted from canonical
	// encodings when zero so existing spec files are unchanged.
	Heartbeat Heartbeat `json:"heartbeat,omitzero"`
}

// Workloads selects the benchmarks of a sweep: named paper benchmarks,
// explicit synthetic specs, and/or a generated synthetic population. The
// run order is Bench, then Synth, then the SynthCount population.
//
// Validation synthesizes every synthetic workload, so the selection is
// bounded before anything is generated: its synthetic loops — 3 per
// SynthCount member plus Kernels (default 3) per Synth entry — may number
// at most 384, and no Synth entry's DepthMax or RecurrenceMax may exceed 64.
type Workloads struct {
	// Bench names paper benchmarks (see Table 1); the single entry "all"
	// selects the full 14-benchmark suite.
	Bench []string `json:"bench,omitempty"`
	// Synth are explicit synthetic benchmark specs, generated
	// deterministically from their seeds.
	Synth []SynthSpec `json:"synth,omitempty"`
	// SynthCount appends a generated population of that many synthetic
	// benchmarks (seeded by SynthSeed), varying granularity and kernel mix.
	SynthCount int    `json:"synth_count,omitempty"`
	SynthSeed  uint64 `json:"synth_seed,omitempty"`
}

// Compile fixes the compiler configuration of every grid point.
type Compile struct {
	// Heuristic is the cluster-assignment heuristic: "BASE", "IBC" or
	// "IPBC" ("" = IPBC).
	Heuristic string `json:"heuristic,omitempty"`
	// Unroll is the unrolling policy: "none", "xN", "OUF" or "selective"
	// ("" = selective).
	Unroll string `json:"unroll,omitempty"`
}

// Shard partitions the row grid by row index across Count cooperating
// processes: shard i evaluates the i-th contiguous slice, so the
// concatenation of all shards' JSONL outputs, in index order, is
// byte-identical to the unsharded run. The zero value (Count 0) means
// unsharded. A shard may additionally claim an explicit row range — the
// coordinator's cost-balanced cuts and work-stealing chunks are not
// derivable from Index/Count arithmetic, so they ride along as [Lo, Hi).
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
	// Lo and Hi, when Hi > Lo, pin this shard's half-open row range
	// explicitly instead of the count-derived slice — the `-claim lo:hi`
	// protocol a coordinator uses to hand workers cost-balanced cuts and
	// stolen chunks. Index/Count remain the shard's identity (output
	// naming, heartbeats, logs); only the row slice is overridden.
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
}

// Range returns the half-open row interval [lo, hi) of this shard over an
// n-row grid: the explicit claim when one is pinned (clamped to the grid),
// otherwise the i-th contiguous count-balanced slice (sizes differ by at
// most one, covering [0, n) exactly across shards 0..Count-1).
func (s Shard) Range(n int) (lo, hi int) {
	if s.Hi > s.Lo {
		return min(s.Lo, n), min(s.Hi, n)
	}
	if s.Count <= 1 {
		return 0, n
	}
	return s.Index * n / s.Count, (s.Index + 1) * n / s.Count
}

// validate rejects malformed shards.
func (s Shard) validate() error {
	switch {
	case s.Count < 0:
		return fmt.Errorf("sweep: shard count must be >= 0, got %d", s.Count)
	case s.Count == 0 && s.Index != 0:
		return fmt.Errorf("sweep: shard index %d without a shard count", s.Index)
	case s.Count > 0 && (s.Index < 0 || s.Index >= s.Count):
		return fmt.Errorf("sweep: shard index must be in [0, %d), got %d", s.Count, s.Index)
	case s.Lo < 0 || s.Hi < 0:
		return fmt.Errorf("sweep: shard claim range must be non-negative, got [%d, %d)", s.Lo, s.Hi)
	case s.Hi < s.Lo:
		return fmt.Errorf("sweep: shard claim range is inverted: [%d, %d)", s.Lo, s.Hi)
	}
	return nil
}

// Store configures the artifact store a run resolves stage-1 compilations
// through: a bounded in-memory LRU, optionally layered over a persistent
// content-addressed on-disk store. Row values are independent of the store
// configuration; only compile work changes.
type Store struct {
	// Memory is the in-memory LRU capacity in artifacts: 0 = the default
	// capacity (pipeline.DefaultCacheSize), < 0 disables the memory tier.
	Memory int `json:"memory,omitempty"`
	// Dir, when non-empty, layers the memory tier over a content-addressed
	// on-disk store rooted there, so repeated runs and sharded processes
	// start warm. The directory is created if missing and probed for
	// writability before the sweep starts.
	Dir string `json:"dir,omitempty"`
}

// Output names the spec's default output destination.
type Output struct {
	// Path receives the JSONL rows when Run is called with a nil sink
	// ("" = stdout).
	Path string `json:"path,omitempty"`
}

// Heartbeat configures Run's liveness reporting: while the shard executes,
// a Beat is written atomically to Path every interval, and a final
// BeatDone beat — carrying the row count and the sha256 of the committed
// output — lands when the shard commits. Monitors (the pool's watcher)
// declare the attempt dead when the file's mtime goes stale. Like Output,
// this is a per-process knob: it never affects row bytes and is cleared
// from spec fingerprints.
type Heartbeat struct {
	// Path receives the beats ("" disables heartbeats).
	Path string `json:"path,omitempty"`
	// IntervalMS is the beat period in milliseconds
	// (0 = DefaultHeartbeatInterval).
	IntervalMS int `json:"interval_ms,omitempty"`
}

// Validate reports the first problem that would make the spec unusable: a
// malformed grid axis, an unknown benchmark or heuristic name, an invalid
// synthetic spec, an empty workload selection, a negative worker count, or
// an out-of-range shard. Infeasible machine points are not errors — they
// surface as per-cell error rows.
func (s Spec) Validate() error {
	_, _, err := s.resolve()
	return err
}

// resolve performs exactly Validate's checks while materializing the run
// inputs, so Run validates and resolves in one pass — synthetic workload
// populations are synthesized once, and the two can never enforce
// different rules.
func (s Spec) resolve() (core.Options, []workload.BenchSpec, error) {
	if s.Workers < 0 {
		return core.Options{}, nil, fmt.Errorf("sweep: workers must be >= 0 (0 = default), got %d", s.Workers)
	}
	if s.SimBatch < 0 {
		return core.Options{}, nil, fmt.Errorf("sweep: sim_batch must be >= 0 (0 = off), got %d", s.SimBatch)
	}
	if s.Heartbeat.IntervalMS < 0 {
		return core.Options{}, nil, fmt.Errorf("sweep: heartbeat interval_ms must be >= 0 (0 = default), got %d", s.Heartbeat.IntervalMS)
	}
	if err := s.Grid.validate(); err != nil {
		return core.Options{}, nil, err
	}
	if err := s.Shard.validate(); err != nil {
		return core.Options{}, nil, err
	}
	opt, err := s.Compile.options()
	if err != nil {
		return core.Options{}, nil, err
	}
	benches, err := s.Workloads.benches()
	if err != nil {
		return core.Options{}, nil, err
	}
	return opt, benches, nil
}

// options parses the compile section into core options.
func (c Compile) options() (core.Options, error) {
	opt := core.Options{}
	switch strings.ToUpper(strings.TrimSpace(c.Heuristic)) {
	case "", "IPBC":
		opt.Heuristic = sched.IPBC
	case "IBC":
		opt.Heuristic = sched.IBC
	case "BASE":
		opt.Heuristic = sched.Base
	default:
		return opt, fmt.Errorf("sweep: unknown heuristic %q (want BASE, IBC or IPBC)", c.Heuristic)
	}
	switch strings.ToLower(strings.TrimSpace(c.Unroll)) {
	case "", "selective":
		opt.Unroll = core.Selective
	case "none", "no", "1":
		opt.Unroll = core.NoUnroll
	case "xn", "n":
		opt.Unroll = core.UnrollxN
	case "ouf":
		opt.Unroll = core.OUFUnroll
	default:
		return opt, fmt.Errorf("sweep: unknown unroll mode %q (want none, xN, OUF or selective)", c.Unroll)
	}
	return opt, nil
}

// Limits on the synthetic workloads one spec may ask for (see Workloads):
// a few times the largest committed population, 30 entries of 3 kernels.
const (
	maxSynthLoops = 384
	maxSynthDepth = 64
)

// checkSynthSize rejects a selection whose synthetic workloads exceed the
// limits, before any of them is synthesized.
func (w Workloads) checkSynthSize() error {
	if w.SynthCount > maxSynthLoops/3 {
		return fmt.Errorf("sweep: synth_count %d exceeds the limit of %d synthetic loops (3 per member)", w.SynthCount, maxSynthLoops)
	}
	loops := 3 * max(w.SynthCount, 0)
	for _, syn := range w.Synth {
		kernels := syn.Kernels
		if kernels == 0 {
			kernels = 3
		}
		if kernels > maxSynthLoops-loops {
			return fmt.Errorf("sweep: synthetic workloads exceed the limit of %d loops at synth %q (Kernels %d)", maxSynthLoops, syn.Name, syn.Kernels)
		}
		if syn.DepthMax > maxSynthDepth || syn.RecurrenceMax > maxSynthDepth {
			return fmt.Errorf("sweep: synth %q: DepthMax %d and RecurrenceMax %d must each be at most %d",
				syn.Name, syn.DepthMax, syn.RecurrenceMax, maxSynthDepth)
		}
		loops += max(kernels, 0)
	}
	return nil
}

// benches resolves the workload selection into benchmark specs, in run
// order: named benchmarks, explicit synthetic specs, generated population.
// Named benchmarks are looked up in one build of the suite, however many
// the spec lists.
func (w Workloads) benches() ([]workload.BenchSpec, error) {
	if err := w.checkSynthSize(); err != nil {
		return nil, err
	}
	var benches, suite []workload.BenchSpec
	if len(w.Bench) > 0 {
		suite = workload.Suite()
	}
	for _, name := range w.Bench {
		trimmed := strings.TrimSpace(name)
		if strings.EqualFold(trimmed, "all") {
			if len(w.Bench) != 1 {
				return nil, fmt.Errorf(`sweep: workload "all" must be the only bench entry`)
			}
			benches = suite
			break
		}
		i := slices.IndexFunc(suite, func(b workload.BenchSpec) bool { return b.Name == trimmed })
		if i < 0 {
			return nil, fmt.Errorf("sweep: unknown benchmark %q (see ivliw-bench -exp table1)", name)
		}
		benches = append(benches, suite[i])
	}
	for i := range w.Synth {
		b, err := workload.Synthesize(w.Synth[i])
		if err != nil {
			return nil, err
		}
		benches = append(benches, b)
	}
	if w.SynthCount < 0 {
		return nil, fmt.Errorf("sweep: synth_count must be >= 0, got %d", w.SynthCount)
	}
	syn, err := workload.SynthSuite(w.SynthCount, w.SynthSeed)
	if err != nil {
		return nil, err
	}
	benches = append(benches, syn...)
	if len(benches) == 0 {
		return nil, fmt.Errorf("sweep: no workloads selected: set bench, synth or synth_count")
	}
	return benches, nil
}

// Hash returns the spec's semantic fingerprint: a hex sha256 over the
// canonical encoding of the grid, the workload selection and the compiler
// configuration — the inputs that determine row bytes. Per-process knobs
// (shard, output, store, workers, sim batching, heartbeat) are excluded,
// so two specs that would produce identical rows hash identically no
// matter how or where they run. The coordinator manifest and the serving
// layer's job IDs both use this fingerprint as their idempotency key;
// `ivliw-bench -spec-hash` prints it so clients can predict dedup keys
// offline.
func (s Spec) Hash() (string, error) {
	return specHash(s)
}

// Encode renders the spec as indented JSON with a trailing newline. The
// encoding is canonical: Encode(ParseSpec(Encode(s))) is byte-identical to
// Encode(s), so specs can be diffed, committed and content-addressed.
func (s Spec) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseSpec decodes a spec from its JSON encoding, strictly: unknown fields
// and trailing data are errors (they are almost always a typo that would
// otherwise silently run the wrong sweep). Semantic validation is left to
// Validate/Run, which resolve the spec exactly once.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("sweep: parse spec: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return Spec{}, fmt.Errorf("sweep: parse spec: trailing data after the spec object")
	}
	return s, nil
}

// LoadSpec reads and parses a spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("sweep: load spec: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		// ParseSpec errors already carry the package prefix.
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
