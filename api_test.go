package ivliw_test

import (
	"testing"

	"ivliw"
)

func mustProgram(t *testing.T, cfg ivliw.Config, loops []*ivliw.Loop, opts ...ivliw.ProgramOption) *ivliw.Program {
	t.Helper()
	prog, err := ivliw.NewProgram(cfg, loops, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func saxpyLoop(t *testing.T) *ivliw.Loop {
	t.Helper()
	b := ivliw.NewLoop("saxpy", 256, 1)
	x := b.Load("x", ivliw.MemInfo{Sym: "x", Kind: ivliw.Heap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
	m := b.Op("mul", ivliw.OpFPALU)
	s := b.Store("y", ivliw.MemInfo{Sym: "y", Kind: ivliw.Heap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
	b.Flow(x, m).Flow(m, s)
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestQuickstart exercises the documented public API path end to end.
func TestQuickstart(t *testing.T) {
	cfg := ivliw.DefaultConfig()
	cfg.AttractionBuffers = true
	loop := saxpyLoop(t)
	prog := mustProgram(t, cfg, []*ivliw.Loop{loop})
	c, err := prog.Compile(loop, ivliw.CompileOptions{Heuristic: ivliw.IPBC, Unroll: ivliw.Selective})
	if err != nil {
		t.Fatal(err)
	}
	if c.Schedule.II < 1 {
		t.Fatalf("II = %d", c.Schedule.II)
	}
	// Selective unrolling must pick the ×4 factor for unit-stride word
	// accesses (stride×4 = N·I).
	if c.UnrollFactor != 4 {
		t.Errorf("unroll factor = %d, want 4", c.UnrollFactor)
	}
	res := prog.Run(c)
	if res.TotalCycles() <= 0 {
		t.Error("no cycles simulated")
	}
	if res.TotalAccesses() == 0 {
		t.Error("no accesses simulated")
	}
	// After OUF unrolling + alignment + IPBC the accesses are mostly
	// local (hits or misses).
	if lr := res.LocalHitRatio(); lr < 0.2 {
		t.Errorf("local hit ratio = %g, want meaningful locality", lr)
	}
}

// TestHeuristicsDiffer: the three heuristics must produce valid, generally
// different schedules on the same loop set.
func TestHeuristicsDiffer(t *testing.T) {
	cfg := ivliw.DefaultConfig()
	loop := saxpyLoop(t)
	prog := mustProgram(t, cfg, []*ivliw.Loop{loop})
	for _, h := range []ivliw.Heuristic{ivliw.BASE, ivliw.IBC, ivliw.IPBC} {
		c, err := prog.Compile(loop, ivliw.CompileOptions{Heuristic: h, Unroll: ivliw.UnrollxN})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		res := prog.RunIters(c, 64)
		if res.TotalCycles() <= 0 {
			t.Errorf("%v: no cycles", h)
		}
	}
}

// TestUnifiedProgram: a unified-cache program forces the BASE heuristic and
// never reports remote accesses.
func TestUnifiedProgram(t *testing.T) {
	cfg := ivliw.UnifiedConfig(5)
	loop := saxpyLoop(t)
	prog := mustProgram(t, cfg, []*ivliw.Loop{loop})
	c, err := prog.Compile(loop, ivliw.CompileOptions{Heuristic: ivliw.IPBC, Unroll: ivliw.NoUnroll})
	if err != nil {
		t.Fatal(err)
	}
	res := prog.Run(c)
	acc := res.Accesses
	if acc[1] != 0 || acc[3] != 0 {
		t.Errorf("unified cache produced remote accesses: %v", acc)
	}
}

// TestForeignLoopRejected: compiling a loop outside the program's layout is
// an error (its symbols have no addresses).
// TestStagedAPIMatchesRichPath: CompileArtifact + RunArtifact (the staged
// pipeline) must reproduce Compile + Run exactly, and recompilations must
// hit the program's content-addressed artifact cache.
func TestStagedAPIMatchesRichPath(t *testing.T) {
	cfg := ivliw.DefaultConfig()
	loop := saxpyLoop(t)
	opt := ivliw.CompileOptions{Heuristic: ivliw.IPBC, Unroll: ivliw.Selective}

	rich := mustProgram(t, cfg, []*ivliw.Loop{loop})
	c, err := rich.Compile(loop, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := rich.Run(c)

	staged := mustProgram(t, cfg, []*ivliw.Loop{loop})
	a, err := staged.CompileArtifact(loop, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedule.II != c.Schedule.II || a.UnrollFactor != c.UnrollFactor {
		t.Errorf("artifact II/unroll = %d/%d, want %d/%d", a.Schedule.II, a.UnrollFactor, c.Schedule.II, c.UnrollFactor)
	}
	got, err := staged.RunArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("staged run = %+v, want %+v", got, want)
	}

	// Same loop and options: the artifact is cached by content.
	again, err := staged.CompileArtifact(loop, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again != a {
		t.Error("recompiling identical inputs did not hit the artifact cache")
	}
	// Different options: a different artifact.
	other, err := staged.CompileArtifact(loop, ivliw.CompileOptions{Heuristic: ivliw.IBC, Unroll: ivliw.NoUnroll})
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Error("different options shared one artifact")
	}
	// Foreign loops are rejected like Compile rejects them.
	if _, err := staged.CompileArtifact(saxpyLoop(t), opt); err == nil {
		t.Error("CompileArtifact accepted a foreign loop")
	}

	// Explicit trip counts work like RunIters.
	a2, err := staged.RunArtifactIters(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Iters != 16 {
		t.Errorf("RunArtifactIters simulated %d iters, want 16", a2.Iters)
	}

	// An artifact compiled under a different alignment policy is refused,
	// not silently simulated against the wrong layout.
	unaligned := mustProgram(t, cfg, []*ivliw.Loop{loop}, ivliw.WithoutAlignment())
	if _, err := unaligned.RunArtifact(a); err == nil {
		t.Error("alignment-mismatched artifact must be rejected")
	}
	// ...and so is one compiled for an incompatible machine layout (it
	// would index clusters out of range). Simulate-only axes may differ.
	narrow := cfg
	narrow.Clusters = 2
	if _, err := mustProgram(t, narrow, []*ivliw.Loop{loop}).RunArtifact(a); err == nil {
		t.Error("config-mismatched artifact must be rejected")
	}
	simOnly := cfg
	simOnly.MemBuses = 2
	if _, err := mustProgram(t, simOnly, []*ivliw.Loop{loop}).RunArtifact(a); err != nil {
		t.Errorf("simulate-only config delta must be accepted: %v", err)
	}
	// A schedule with an II below 1 (only a corrupt artifact has one) is
	// refused with an error.
	for _, ii := range []int{0, -1} {
		bad := *a
		sc := *a.Schedule
		sc.II = ii
		bad.Schedule = &sc
		if _, err := staged.RunArtifactIters(&bad, 16); err == nil {
			t.Errorf("artifact with II %d must be rejected", ii)
		}
	}
	// A foreign artifact whose symbols this program never laid out is
	// refused (they would all collide at address 0).
	foreign := mustProgram(t, cfg, []*ivliw.Loop{otherLoop(t)})
	if _, err := foreign.RunArtifact(a); err == nil {
		t.Error("artifact with unplaced symbols must be rejected")
	}
}

// otherLoop builds a loop over different symbols than saxpyLoop.
func otherLoop(t *testing.T) *ivliw.Loop {
	t.Helper()
	b := ivliw.NewLoop("other", 128, 1)
	x := b.Load("a", ivliw.MemInfo{Sym: "a", Kind: ivliw.Heap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 2048})
	s := b.Store("b", ivliw.MemInfo{Sym: "b", Kind: ivliw.Heap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 2048})
	b.Flow(x, s)
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestForeignLoopRejected(t *testing.T) {
	cfg := ivliw.DefaultConfig()
	a := saxpyLoop(t)
	other := saxpyLoop(t)
	prog := mustProgram(t, cfg, []*ivliw.Loop{a})
	if _, err := prog.Compile(other, ivliw.CompileOptions{}); err == nil {
		t.Error("Compile accepted a loop not in the program")
	}
}

// TestSeedsAndAlignmentOptions: options must change the layout behaviour.
func TestSeedsAndAlignmentOptions(t *testing.T) {
	cfg := ivliw.DefaultConfig()
	loop := saxpyLoop(t)
	base := mustProgram(t, cfg, []*ivliw.Loop{loop})
	seeded := mustProgram(t, cfg, []*ivliw.Loop{loop}, ivliw.WithSeeds(7, 8), ivliw.WithoutAlignment())
	cb, err := base.Compile(loop, ivliw.CompileOptions{Heuristic: ivliw.IPBC, Unroll: ivliw.OUFUnroll})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := seeded.Compile(loop, ivliw.CompileOptions{Heuristic: ivliw.IPBC, Unroll: ivliw.OUFUnroll})
	if err != nil {
		t.Fatal(err)
	}
	rb := base.Run(cb)
	rs := seeded.Run(cs)
	if rb.TotalAccesses() == 0 || rs.TotalAccesses() == 0 {
		t.Fatal("no accesses")
	}
}

// TestNewProgramRejectsBadConfig: an inconsistent machine point must be
// reported as an error by the public constructor, not as a library panic.
func TestNewProgramRejectsBadConfig(t *testing.T) {
	loop := saxpyLoop(t)
	bad := []ivliw.Config{}
	{
		c := ivliw.DefaultConfig()
		c.Interleave = 3 // BlockBytes not a multiple of N*I
		bad = append(bad, c)
	}
	{
		c := ivliw.DefaultConfig()
		c.CacheBytes = 96 // 3 lines: not a multiple of Assoc
		c.BlockBytes = 32
		bad = append(bad, c)
	}
	{
		c := ivliw.DefaultConfig()
		c.AttractionBuffers = true
		c.ABEntries = 7 // not a multiple of ABAssoc
		bad = append(bad, c)
	}
	{
		c := ivliw.DefaultConfig()
		c.Clusters = 0
		bad = append(bad, c)
	}
	for i, cfg := range bad {
		if _, err := ivliw.NewProgram(cfg, []*ivliw.Loop{loop}); err == nil {
			t.Errorf("case %d: NewProgram accepted an invalid configuration", i)
		}
	}
}
