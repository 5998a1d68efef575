package experiments

import (
	"context"
	"reflect"
	"testing"

	"ivliw/internal/core"
	"ivliw/internal/pipeline"
	"ivliw/internal/sched"
	"ivliw/internal/workload"
)

// resetFigureTables empties the figure functions' compile cache and cell
// table and zeroes the simulated-lane counter, so the next figure call
// starts cold.
func resetFigureTables() {
	figureCache = pipeline.NewCache(pipeline.DefaultCacheSize)
	cellTable.Reset()
	simulatedLanes.Store(0)
}

// expAllFigures runs Figures 4–8 and the headline recomputation in the
// order `ivliw-bench -exp all` does.
func expAllFigures(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	f4, err := Figure4(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Figure5(ctx); err != nil {
		t.Fatal(err)
	}
	f6, err := Figure6(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Figure7(ctx); err != nil {
		t.Fatal(err)
	}
	f8, err := Figure8(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f4, err = Figure4(ctx); err != nil {
		t.Fatal(err)
	}
	if f6, err = Figure6(ctx); err != nil {
		t.Fatal(err)
	}
	if f8, err = Figure8(ctx); err != nil {
		t.Fatal(err)
	}
	ComputeHeadlines(f4, f6, f8)
}

// TestExpAllSimulatesEachDistinctCellOnce pins the simulation work of
// `-exp all`: 434 (benchmark × variant) cells, of which 154 are distinct.
// Figure 5's cells are Figure 6's no-AB cells, Figure 7's are Figure 4's
// bars (i), (iii) and (iv), Figure 8's interleaved bars are Figure 6's +AB
// cells, and the headlines recompute Figures 4, 6 and 8. A second pass
// simulates nothing.
func TestExpAllSimulatesEachDistinctCellOnce(t *testing.T) {
	resetFigureTables()
	expAllFigures(t)
	if got := simulatedLanes.Load(); got != 154 {
		t.Errorf("cold -exp all figures simulated %d lanes, want 154", got)
	}
	if n := cellTable.Len(); n != 154 {
		t.Errorf("cell table holds %d cells, want 154", n)
	}
	simulatedLanes.Store(0)
	expAllFigures(t)
	if got := simulatedLanes.Load(); got != 0 {
		t.Errorf("warm -exp all figures simulated %d lanes, want 0", got)
	}
}

// TestSharedCellsMatchColdFigures computes Figures 5 and 7 from cold tables
// and again from the cells Figures 6 and 4 left behind: the rows must be
// identical, and the warm calls must simulate nothing.
func TestSharedCellsMatchColdFigures(t *testing.T) {
	ctx := context.Background()
	resetFigureTables()
	cold5, err := Figure5(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resetFigureTables()
	cold7, err := Figure7(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resetFigureTables()
	if _, err := Figure4(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure6(ctx); err != nil {
		t.Fatal(err)
	}
	simulatedLanes.Store(0)
	warm5, err := Figure5(ctx)
	if err != nil {
		t.Fatal(err)
	}
	warm7, err := Figure7(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := simulatedLanes.Load(); got != 0 {
		t.Errorf("Figures 5 and 7 after Figures 4 and 6 simulated %d lanes, want 0", got)
	}
	if !reflect.DeepEqual(cold5, warm5) {
		t.Error("Figure 5 from Figure 6's cells differs from a cold Figure 5")
	}
	if !reflect.DeepEqual(cold7, warm7) {
		t.Error("Figure 7 from Figure 4's cells differs from a cold Figure 7")
	}
}

// TestCellKey: a variant that differs only in its Label reads the stored
// cell; one that differs in any configuration, option or alignment input —
// simulate-only axes included — simulates its own.
func TestCellKey(t *testing.T) {
	resetFigureTables()
	suite := workload.Suite()[:1]
	base := Interleaved("base", sched.IPBC, core.Selective, true, false, false)
	lanes := func(v Variant) int64 {
		t.Helper()
		before := simulatedLanes.Load()
		if _, err := benchCells(context.Background(), suite, []Variant{v}); err != nil {
			t.Fatal(err)
		}
		return simulatedLanes.Load() - before
	}
	if n := lanes(base); n != 1 {
		t.Fatalf("cold cell simulated %d lanes, want 1", n)
	}
	relabeled := base
	relabeled.Label = "renamed"
	if n := lanes(relabeled); n != 0 {
		t.Errorf("a relabeled variant simulated %d lanes, want 0", n)
	}
	mshr := base
	mshr.Cfg.MSHRs = 4
	ab := base
	ab.Cfg.AttractionBuffers = true
	opt := base
	opt.Opt.NoChains = true
	unaligned := base
	unaligned.Aligned = false
	for name, v := range map[string]Variant{"MSHRs": mshr, "AttractionBuffers": ab, "NoChains": opt, "Aligned": unaligned} {
		if n := lanes(v); n != 1 {
			t.Errorf("changing %s simulated %d lanes, want 1", name, n)
		}
	}
}

// TestFailedCellsAreNotStored: a cell that fails must fail again on the
// next call instead of reading a stored zero result.
func TestFailedCellsAreNotStored(t *testing.T) {
	resetFigureTables()
	suite := workload.Suite()[:1]
	bad := Interleaved("bad", sched.IPBC, core.Selective, true, false, false)
	bad.Cfg.MSHRs = -1
	for call := 1; call <= 2; call++ {
		if _, err := benchCells(context.Background(), suite, []Variant{bad}); err == nil {
			t.Fatalf("call %d: an invalid configuration simulated without error", call)
		}
	}
	if n := cellTable.Len(); n != 0 {
		t.Errorf("cell table holds %d cells after two failed calls, want 0", n)
	}
}
