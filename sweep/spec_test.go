package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"ivliw/internal/core"
	"ivliw/internal/workload"
)

// fullSpec populates every section of a Spec, for round-trip coverage.
func fullSpec() Spec {
	return Spec{
		Grid: Grid{
			Clusters:         []int{2, 4, 8},
			Interleave:       []int{4, 8},
			CacheBytes:       []int{8192},
			Assoc:            []int{2},
			ABEntries:        []int{0, 16},
			BusCycleRatio:    []int{2},
			NextLevelLatency: []int{10, 20},
			FUs:              [][]int{{1, 1, 1}, {2, 1, 2}},
			RegBuses:         []int{4},
			MSHRs:            []int{0, 8},
			ABHintK:          []int{0, 2},
		},
		Workloads: Workloads{
			Bench:      []string{"gsmdec", "jpegenc"},
			Synth:      []SynthSpec{{Name: "s0", Seed: 3, Kernels: 2, Gran: 4, IndirectPct: 20}},
			SynthCount: 2,
			SynthSeed:  7,
		},
		Compile: Compile{Heuristic: "IBC", Unroll: "OUF"},
		Workers: 4,
		Shard:   Shard{Index: 1, Count: 3},
		Store:   Store{Memory: 128, Dir: "artifacts"},
		Output:  Output{Path: "rows.jsonl"},
	}
}

// TestSpecRoundTripByteIdentical: encode→decode→re-encode is byte-identical
// — specs are stable, diffable files.
func TestSpecRoundTripByteIdentical(t *testing.T) {
	for name, spec := range map[string]Spec{
		"full":    fullSpec(),
		"minimal": {Workloads: Workloads{Bench: []string{"gsmdec"}}},
		"synth-only": {
			Workloads: Workloads{SynthCount: 3, SynthSeed: 1},
			Store:     Store{Memory: -1},
		},
		"cli-defaults": {
			Grid: Grid{
				Clusters: []int{2, 4, 8}, Interleave: []int{4}, CacheBytes: []int{8192},
				Assoc: []int{2}, ABEntries: []int{0, 16}, BusCycleRatio: []int{2},
				NextLevelLatency: []int{10},
			},
			Workloads: Workloads{Bench: []string{"gsmdec", "jpegenc", "mpeg2dec"}},
			Compile:   Compile{Heuristic: "IPBC", Unroll: "selective"},
			Store:     Store{Memory: 256},
		},
	} {
		first, err := spec.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		decoded, err := ParseSpec(first)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		second, err := decoded.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: re-encode differs:\n--- first\n%s\n--- second\n%s", name, first, second)
		}
		third, err := ParseSpec(second)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc3, _ := third.Encode()
		if !bytes.Equal(second, enc3) {
			t.Errorf("%s: third generation drifted", name)
		}
	}
}

// TestParseSpecStrict: unknown fields (typos) and trailing data are errors,
// not silently-wrong sweeps.
func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"grid": {"clusterz": [2]}, "workloads": {"bench": ["gsmdec"]}}`)); err == nil {
		t.Error("unknown grid field must be rejected")
	}
	if _, err := ParseSpec([]byte(`{"workloads": {"bench": ["gsmdec"]}} {"x": 1}`)); err == nil {
		t.Error("trailing data must be rejected")
	}
	if _, err := ParseSpec([]byte(`{"workloads":`)); err == nil {
		t.Error("malformed JSON must be rejected")
	}
	if _, err := ParseSpec([]byte(`{"workloads": {"bench": ["gsmdec"]}}`)); err != nil {
		t.Errorf("valid minimal spec rejected: %v", err)
	}
}

// TestSpecValidate: every class of unusable spec reports a descriptive
// error; feasible specs pass.
func TestSpecValidate(t *testing.T) {
	base := func() Spec { return Spec{Workloads: Workloads{Bench: []string{"gsmdec"}}} }
	cases := map[string]struct {
		mutate  func(*Spec)
		wantErr string
	}{
		"ok":                   {func(s *Spec) {}, ""},
		"ok-all":               {func(s *Spec) { s.Workloads.Bench = []string{"all"} }, ""},
		"ok-shard":             {func(s *Spec) { s.Shard = Shard{Index: 2, Count: 3} }, ""},
		"unknown-bench":        {func(s *Spec) { s.Workloads.Bench = []string{"nope"} }, "unknown benchmark"},
		"all-plus-named":       {func(s *Spec) { s.Workloads.Bench = []string{"all", "gsmdec"} }, `"all" must be the only`},
		"no-workloads":         {func(s *Spec) { s.Workloads = Workloads{} }, "no workloads"},
		"negative-synth-count": {func(s *Spec) { s.Workloads.SynthCount = -1 }, "synth_count"},
		"negative-workers":     {func(s *Spec) { s.Workers = -8 }, "workers"},
		"ok-sim-batch":         {func(s *Spec) { s.SimBatch = 8 }, ""},
		"negative-sim-batch":   {func(s *Spec) { s.SimBatch = -1 }, "sim_batch"},
		"bad-synth-spec":       {func(s *Spec) { s.Workloads.Synth = []SynthSpec{{}} }, "needs a name"},
		"bad-heuristic":        {func(s *Spec) { s.Compile.Heuristic = "FASTEST" }, "unknown heuristic"},
		"bad-unroll":           {func(s *Spec) { s.Compile.Unroll = "always" }, "unknown unroll"},
		"bad-fu-triple":        {func(s *Spec) { s.Grid.FUs = [][]int{{1, 1}} }, "fus[0]"},
		"negative-shard-count": {func(s *Spec) { s.Shard.Count = -1 }, "shard count"},
		"shard-index-oob":      {func(s *Spec) { s.Shard = Shard{Index: 3, Count: 3} }, "shard index"},
		"shard-index-negative": {func(s *Spec) { s.Shard = Shard{Index: -1, Count: 3} }, "shard index"},
		"shard-index-no-count": {func(s *Spec) { s.Shard = Shard{Index: 1} }, "without a shard count"},
	}
	for name, tc := range cases {
		s := base()
		tc.mutate(&s)
		err := s.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.wantErr)
		}
	}
}

// TestSynthLimits: each synthetic-workload limit accepts a spec at the
// limit and rejects one past it, and a rejected spec synthesizes nothing —
// however large the request, Validate answers with an error after a
// handful of allocations.
func TestSynthLimits(t *testing.T) {
	synth := func(kernels, depth, rec int) SynthSpec {
		return SynthSpec{Name: "s", Seed: 1, Kernels: kernels, DepthMax: depth, RecurrenceMax: rec}
	}
	cases := []struct {
		name string
		w    Workloads
		ok   bool
	}{
		{"synth_count at the limit", Workloads{SynthCount: maxSynthLoops / 3}, true},
		{"synth_count past the limit", Workloads{SynthCount: maxSynthLoops/3 + 1}, false},
		{"kernels at the limit", Workloads{Synth: []SynthSpec{synth(maxSynthLoops, 0, 0)}}, true},
		{"kernels past the limit", Workloads{Synth: []SynthSpec{synth(maxSynthLoops+1, 0, 0)}}, false},
		{"mixed at the limit", Workloads{SynthCount: maxSynthLoops/3 - 1, Synth: []SynthSpec{synth(0, 0, 0)}}, true},
		{"mixed past the limit", Workloads{SynthCount: maxSynthLoops/3 - 1, Synth: []SynthSpec{synth(1, 0, 0), synth(0, 0, 0)}}, false},
		{"depth at the limit", Workloads{Synth: []SynthSpec{synth(1, maxSynthDepth, 0)}}, true},
		{"depth past the limit", Workloads{Synth: []SynthSpec{synth(1, maxSynthDepth+1, 0)}}, false},
		{"recurrence at the limit", Workloads{Synth: []SynthSpec{synth(1, 0, maxSynthDepth)}}, true},
		{"recurrence past the limit", Workloads{Synth: []SynthSpec{synth(1, 0, maxSynthDepth+1)}}, false},
		{"iters at the limit", Workloads{Synth: []SynthSpec{{Name: "s", Iters: maxSynthIters}}}, true},
		{"iters past the limit", Workloads{Synth: []SynthSpec{{Name: "s", Iters: maxSynthIters + 1}}}, false},
		{"footprint at the limit", Workloads{Synth: []SynthSpec{{Name: "s", FootprintBytes: maxSynthFootprint}}}, true},
		{"footprint past the limit", Workloads{Synth: []SynthSpec{{Name: "s", FootprintBytes: maxSynthFootprint + 1}}}, false},
		{"huge synth_count", Workloads{SynthCount: 1 << 50}, false},
		{"huge kernels", Workloads{Synth: []SynthSpec{synth(1<<62, 0, 0), synth(1<<62, 0, 0)}}, false},
	}
	for _, tc := range cases {
		s := Spec{Workloads: tc.w}
		err := s.Validate()
		if tc.ok {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "at most") && !strings.Contains(err.Error(), "limit") {
			t.Errorf("%s: err = %v, want a limit error", tc.name, err)
		}
		if allocs := testing.AllocsPerRun(3, func() { _ = s.Validate() }); allocs > 20 {
			t.Errorf("%s: a rejected spec made %.0f allocations; it must synthesize nothing", tc.name, allocs)
		}
	}
}

// TestGridRowLimit: the row count Validate checks equals the expanded
// grid's, ab_hint_k multiplying only the buffered points; a grid at the row
// limit is accepted and one row past it rejected from the axis lengths
// alone, with a handful of allocations however large the request.
func TestGridRowLimit(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	pick := func(vals ...int) []int { return vals[:rng.IntN(len(vals)+1)] }
	for trial := 0; trial < 200; trial++ {
		g := Grid{
			Clusters: pick(2, 4, 8), Interleave: pick(2, 4), CacheBytes: pick(4096, 8192), Assoc: pick(1, 2),
			ABEntries: pick(0, 16, 32, 0), BusCycleRatio: pick(1, 2), NextLevelLatency: pick(10, 20),
			FUs: [][]int{{1, 1, 1}, {2, 1, 1}}[:rng.IntN(3)], RegBuses: pick(1, 2), MSHRs: pick(0, 1, 2),
			ABHintK: pick(2, 4, 0),
		}
		n := 1 + rng.IntN(3)
		if got, want := g.rows(n), n*len(g.points(core.Options{})); got != want {
			t.Fatalf("%+v over %d benchmarks: rows %d, want %d", g, n, got, want)
		}
	}
	bench := Workloads{Bench: []string{"gsmdec"}}
	all := Workloads{Bench: []string{"all"}}
	nAll := len(workload.Suite())
	cases := []struct {
		name string
		g    Grid
		w    Workloads
		ok   bool
	}{
		{"rows at the limit", Grid{MSHRs: make([]int, maxGridRows)}, bench, true},
		{"rows past the limit", Grid{MSHRs: make([]int, maxGridRows+1)}, bench, false},
		{"hint points at the limit", Grid{ABEntries: []int{0, 16}, ABHintK: make([]int, maxGridRows-1)}, bench, true},
		{"hint points past the limit", Grid{ABEntries: []int{0, 16}, ABHintK: make([]int, maxGridRows)}, bench, false},
		{"all at the limit", Grid{MSHRs: make([]int, maxGridRows/nAll)}, all, true},
		{"all past the limit", Grid{MSHRs: make([]int, maxGridRows/nAll+1)}, all, false},
		{"huge product", Grid{Clusters: make([]int, 1<<20), MSHRs: make([]int, 1<<20), FUs: make([][]int, 1<<20)}, bench, false},
	}
	for _, tc := range cases {
		for i := range tc.g.FUs {
			tc.g.FUs[i] = []int{1, 1, 1}
		}
		s := Spec{Grid: tc.g, Workloads: tc.w}
		err := s.Validate()
		if tc.ok {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("%s: err = %v, want a limit error", tc.name, err)
		}
		if allocs := testing.AllocsPerRun(3, func() { _ = s.Validate() }); allocs > 20 {
			t.Errorf("%s: a rejected spec made %.0f allocations", tc.name, allocs)
		}
	}
}

// TestShardRange: shards tile [0, n) exactly — contiguous, in order,
// balanced to within one row — for every (n, count) combination.
func TestShardRange(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 17, 100} {
		for count := 1; count <= 6; count++ {
			pos := 0
			for i := 0; i < count; i++ {
				lo, hi := Shard{Index: i, Count: count}.Range(n)
				if lo != pos {
					t.Fatalf("n=%d count=%d: shard %d starts at %d, want %d", n, count, i, lo, pos)
				}
				if hi < lo {
					t.Fatalf("n=%d count=%d: shard %d is inverted [%d, %d)", n, count, i, lo, hi)
				}
				if size, min, max := hi-lo, n/count, (n+count-1)/count; size < min || size > max {
					t.Fatalf("n=%d count=%d: shard %d has %d rows, want in [%d, %d]", n, count, i, size, min, max)
				}
				pos = hi
			}
			if pos != n {
				t.Fatalf("n=%d count=%d: shards cover %d rows", n, count, pos)
			}
		}
	}
	// The zero value is unsharded.
	if lo, hi := (Shard{}).Range(42); lo != 0 || hi != 42 {
		t.Errorf("zero shard = [%d, %d), want [0, 42)", lo, hi)
	}
	// An explicit claim range overrides the count arithmetic and clamps to
	// the grid.
	if lo, hi := (Shard{Index: 1, Count: 4, Lo: 3, Hi: 9}).Range(42); lo != 3 || hi != 9 {
		t.Errorf("claimed shard = [%d, %d), want [3, 9)", lo, hi)
	}
	if lo, hi := (Shard{Lo: 3, Hi: 9}).Range(5); lo != 3 || hi != 5 {
		t.Errorf("clamped claim = [%d, %d), want [3, 5)", lo, hi)
	}
	// A claim range survives the spec's strict round trip.
	spec := Spec{
		Workloads: Workloads{Bench: []string{"gsmdec"}},
		Shard:     Shard{Index: 1, Count: 3, Lo: 3, Hi: 9},
	}
	data, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Shard != spec.Shard {
		t.Errorf("shard round trip = %+v, want %+v", back.Shard, spec.Shard)
	}
	// Malformed claim ranges are rejected.
	for _, bad := range []Shard{{Lo: -1, Hi: 2}, {Lo: 4, Hi: 2}} {
		s := spec
		s.Shard = bad
		if err := s.Validate(); err == nil {
			t.Errorf("shard %+v validated, want an error", bad)
		}
	}
}

// FuzzParseSpec checks the parser every spec file and served submission
// meets first: no input panics; whatever it accepts re-encodes canonically,
// Encode(ParseSpec(Encode(s))) == Encode(s); and an input that already is
// the canonical encoding of a spec with every per-process field zero hashes
// to its own sha256 — the identity that lets the server answer such a body
// without parsing it.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("encoding an accepted spec: %v", err)
		}
		s2, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("parsing the encoding of an accepted spec: %v\n%s", err, enc)
		}
		enc2, err := s2.Encode()
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("the encoding is not canonical:\n%s\nre-encodes to\n%s", enc, enc2)
		}
		if bytes.Equal(data, enc) && perProcessZero(s) {
			hash, err := s.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(data); hash != hex.EncodeToString(sum[:]) {
				t.Fatalf("canonical input hashes to %s, not to its own sha256 %x", hash, sum)
			}
		}
	})
}

// TestNamedBenchesBuildSuiteOnce: a spec that lists the 14 paper
// benchmarks one by one resolves them against a single suite build — about
// one workload.Suite() worth of allocations, not one per name — and a name
// listed twice resolves to the same benchmark as its own lookup, twice.
func TestNamedBenchesBuildSuiteOnce(t *testing.T) {
	var spec Spec
	for _, b := range workload.Suite() {
		spec.Workloads.Bench = append(spec.Workloads.Bench, b.Name)
	}
	suite := testing.AllocsPerRun(5, func() { workload.Suite() })
	resolve := testing.AllocsPerRun(5, func() {
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if resolve > 1.1*suite {
		t.Errorf("validating a spec naming the 14 benchmarks took %.0f allocations, one Suite() takes %.0f", resolve, suite)
	}

	spec.Workloads.Bench = []string{"gsmdec", " jpegenc", "gsmdec"}
	_, got, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	var want []workload.BenchSpec
	for _, name := range []string{"gsmdec", "jpegenc", "gsmdec"} {
		b, _ := workload.ByName(name)
		want = append(want, b)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("resolved benchmarks differ from their ByName lookups")
	}
}
