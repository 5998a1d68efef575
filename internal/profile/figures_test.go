package profile_test

import (
	"testing"

	"ivliw/internal/experiments"
	"ivliw/internal/pipeline"
	"ivliw/internal/profile"
	"ivliw/internal/workload"
)

// TestFigureCompilesProfileEachInputOnce compiles every distinct compile
// spec of the figure variants over the suite — the compiles `ivliw-bench
// -exp all` runs, since Figure 5's variants compile like Figure 6's and
// Figure 7's like Figure 4's — from a cold memo, and pins how often Run
// executed its profiling loop: once per distinct input. Unmemoized, the
// same compiles call Run 965 times. A second pass executes it no more.
func TestFigureCompilesProfileEachInputOnce(t *testing.T) {
	var variants []experiments.Variant
	variants = append(variants, experiments.Fig4Variants()...)
	variants = append(variants, experiments.Fig6Variants()...)
	variants = append(variants, experiments.Fig8Variants()...)
	variants = append(variants, experiments.UnifiedVariant(1))
	seen := map[string]bool{}
	var specs []pipeline.CompileSpec
	for _, bench := range workload.Suite() {
		for _, v := range variants {
			cs := v.CompileSpec(bench)
			if k := cs.Key(); !seen[k] {
				seen[k] = true
				specs = append(specs, cs)
			}
		}
	}
	if len(specs) != 126 {
		t.Fatalf("figure variants have %d distinct suite compiles, want 126 (9 configurations × 14 benchmarks)", len(specs))
	}
	compileAll := func() {
		for _, cs := range specs {
			if _, err := pipeline.Compile(cs); err != nil {
				t.Fatal(err)
			}
		}
	}
	profile.ResetMemo()
	before := profile.MemoBodies()
	compileAll()
	if got := profile.MemoBodies() - before; got != 175 {
		t.Errorf("cold figure compiles executed Run's body %d times, want 175", got)
	}
	if n := profile.MemoLen(); n != 175 {
		t.Errorf("memo holds %d profiles, want 175", n)
	}
	before = profile.MemoBodies()
	compileAll()
	if got := profile.MemoBodies() - before; got != 0 {
		t.Errorf("warm figure compiles executed Run's body %d times, want 0", got)
	}
}
