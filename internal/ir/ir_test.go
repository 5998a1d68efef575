package ir

import (
	"testing"

	"ivliw/internal/arch"
)

// chainLoop builds: load -> add -> store with a loop-carried flow dep on the
// add (an accumulation recurrence).
func chainLoop(t *testing.T) *Loop {
	t.Helper()
	b := NewBuilder("chain", 100, 1)
	ld := b.Load("ld", MemInfo{Sym: "a", Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
	add := b.Op("add", OpIntALU)
	st := b.Store("st", MemInfo{Sym: "b", Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
	b.Flow(ld, add).Flow(add, st).FlowD(add, add, 1)
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBuilderAndValidate(t *testing.T) {
	l := chainLoop(t)
	if len(l.Instrs) != 3 || len(l.Edges) != 3 {
		t.Fatalf("got %d instrs, %d edges; want 3, 3", len(l.Instrs), len(l.Edges))
	}
	if got := l.MemInstrs(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("MemInstrs = %v, want [0 2]", got)
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	b := NewBuilder("bad", 10, 1)
	b.Op("x", OpLoad) // memory class through Op
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted memory class through Op")
	}
	b2 := NewBuilder("bad2", 10, 1)
	a := b2.Op("a", OpIntALU)
	b2.Flow(a, 7)
	if _, err := b2.Build(); err == nil {
		t.Error("Build accepted out-of-range edge")
	}
}

func TestValidateCatchesMemEdgeBetweenNonMem(t *testing.T) {
	l := &Loop{
		Name:   "x",
		Instrs: []*Instr{{ID: 0, Class: OpIntALU}, {ID: 1, Class: OpIntALU}},
		Edges:  []Edge{{From: 0, To: 1, Kind: MemDep}},
	}
	if err := l.Validate(); err == nil {
		t.Error("Validate accepted MemDep between ALU ops")
	}
}

func TestClone(t *testing.T) {
	l := chainLoop(t)
	c := l.Clone()
	c.Instrs[0].Mem.Stride = 999
	c.Edges[0].Distance = 42
	if l.Instrs[0].Mem.Stride == 999 {
		t.Error("Clone shares MemInfo with original")
	}
	if l.Edges[0].Distance == 42 {
		t.Error("Clone shares edge slice with original")
	}
}

func TestEdgeLatency(t *testing.T) {
	l := chainLoop(t)
	assigned := l.DefaultLatencies(15)
	if assigned[0] != 15 {
		t.Errorf("load default latency = %d, want 15", assigned[0])
	}
	if assigned[1] != 1 {
		t.Errorf("add latency = %d, want 1", assigned[1])
	}
	if assigned[2] != 1 {
		t.Errorf("store latency = %d, want 1", assigned[2])
	}
	if got := l.EdgeLatency(Edge{From: 0, To: 1, Kind: RegFlow}, assigned); got != 15 {
		t.Errorf("flow edge latency = %d, want 15", got)
	}
	if got := l.EdgeLatency(Edge{From: 0, To: 1, Kind: RegAnti}, assigned); got != 0 {
		t.Errorf("anti edge latency = %d, want 0", got)
	}
	if got := l.EdgeLatency(Edge{From: 0, To: 2, Kind: MemDep}, assigned); got != 1 {
		t.Errorf("mem edge latency = %d, want 1", got)
	}
}

func TestGraphAdjacency(t *testing.T) {
	l := chainLoop(t)
	g := NewGraph(l)
	if got := g.Succs(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("Succs(0) = %v, want [1]", got)
	}
	if got := g.Preds(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Preds(1) = %v, want [0 1] (self loop through distance-1 edge)", got)
	}
}

func TestSCCsFindAccumulator(t *testing.T) {
	l := chainLoop(t)
	g := NewGraph(l)
	recs := g.Recurrences(l.DefaultLatencies(15))
	if len(recs) != 1 {
		t.Fatalf("got %d recurrences, want 1", len(recs))
	}
	if len(recs[0].Nodes) != 1 || recs[0].Nodes[0] != 1 {
		t.Errorf("recurrence nodes = %v, want [1]", recs[0].Nodes)
	}
	// add self-loop with distance 1 and latency 1 -> II = 1.
	if recs[0].II != 1 {
		t.Errorf("recurrence II = %d, want 1", recs[0].II)
	}
}

// TestRecIIMultiNodeCycle builds a 2-node cycle: a -> b (flow, lat 15),
// b -> a (flow dist 1, lat 1): II = ceil(16/1) = 16.
func TestRecIIMultiNodeCycle(t *testing.T) {
	b := NewBuilder("cyc", 10, 1)
	ld := b.Load("ld", MemInfo{Sym: "a", Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 1024})
	add := b.Op("add", OpIntALU)
	b.Flow(ld, add).FlowD(add, ld, 1)
	l := b.MustBuild()
	g := NewGraph(l)
	assigned := l.DefaultLatencies(15)
	recs := g.Recurrences(assigned)
	if len(recs) != 1 {
		t.Fatalf("got %d recurrences, want 1", len(recs))
	}
	if recs[0].II != 16 {
		t.Errorf("II = %d, want 16", recs[0].II)
	}
	// Lowering the load latency to 1 drops the II to 2.
	assigned[ld] = 1
	if got := g.RecII(recs[0].Nodes, assigned); got != 2 {
		t.Errorf("II after lowering = %d, want 2", got)
	}
}

// TestRecIIPaperREC2 reproduces REC2 of Figure 3: load n6 (lat 15) -> div n7
// (lat 6) -> add n8 (lat 1) -> n6 with distance 1... II = ceil(22/1) = 22,
// and 8 when the load is a local hit (1+6+1).
func TestRecIIPaperREC2(t *testing.T) {
	b := NewBuilder("rec2", 10, 1)
	n6 := b.Load("n6", MemInfo{Sym: "c", Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 1024})
	n7 := b.Op("n7", OpDiv)
	n8 := b.Op("n8", OpIntALU)
	b.Flow(n6, n7).Flow(n7, n8).FlowD(n8, n6, 1)
	l := b.MustBuild()
	g := NewGraph(l)
	assigned := l.DefaultLatencies(15)
	if got := RecMII(g, assigned); got != 22 {
		t.Errorf("RecMII with remote-miss loads = %d, want 22", got)
	}
	assigned[n6] = 1
	if got := RecMII(g, assigned); got != 8 {
		t.Errorf("RecMII with local-hit load = %d, want 8", got)
	}
}

func TestResMII(t *testing.T) {
	cfg := arch.Default()
	// 9 int ops over 4 int units -> ceil(9/4) = 3.
	b := NewBuilder("res", 10, 1)
	for i := 0; i < 9; i++ {
		b.Op("op", OpIntALU)
	}
	l := b.MustBuild()
	if got := ResMII(l, cfg); got != 3 {
		t.Errorf("ResMII = %d, want 3", got)
	}
	// 5 memory ops over 4 mem units -> 2 dominates 1 int op.
	b2 := NewBuilder("res2", 10, 1)
	for i := 0; i < 5; i++ {
		b2.Load("ld", MemInfo{Sym: "a", Gran: 4, SymBytes: 64})
	}
	b2.Op("add", OpIntALU)
	if got := ResMII(b2.MustBuild(), cfg); got != 2 {
		t.Errorf("ResMII = %d, want 2", got)
	}
}

func TestMIITakesMax(t *testing.T) {
	cfg := arch.Default()
	l := chainLoop(t)
	g := NewGraph(l)
	assigned := l.DefaultLatencies(15)
	// RecMII = 1 (self loop lat 1), ResMII = 1 -> MII = 1.
	if got := MII(g, cfg, assigned); got != 1 {
		t.Errorf("MII = %d, want 1", got)
	}
}

func TestFUFor(t *testing.T) {
	cases := map[OpClass]arch.FUKind{
		OpIntALU: arch.FUInt, OpMul: arch.FUInt, OpCopy: arch.FUInt,
		OpFPALU: arch.FUFP, OpDiv: arch.FUFP,
		OpLoad: arch.FUMem, OpStore: arch.FUMem,
	}
	for c, want := range cases {
		if got := FUFor(c); got != want {
			t.Errorf("FUFor(%v) = %v, want %v", c, got, want)
		}
	}
}

func TestOpClassProperties(t *testing.T) {
	if !OpLoad.IsMem() || !OpStore.IsMem() || OpIntALU.IsMem() {
		t.Error("IsMem misclassifies")
	}
	if OpDiv.DefaultLatency() != 6 {
		t.Errorf("div latency = %d, want 6 (paper Figure 3, n7)", OpDiv.DefaultLatency())
	}
	if OpStore.DefaultLatency() != 1 {
		t.Errorf("store latency = %d, want 1", OpStore.DefaultLatency())
	}
}

// TestSCCsPartition: SCCs must partition the node set.
func TestSCCsPartition(t *testing.T) {
	l := chainLoop(t)
	g := NewGraph(l)
	seen := map[int]int{}
	for _, comp := range g.SCCs() {
		for _, v := range comp {
			seen[v]++
		}
	}
	if len(seen) != len(l.Instrs) {
		t.Fatalf("SCCs cover %d nodes, want %d", len(seen), len(l.Instrs))
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("node %d appears in %d components", v, n)
		}
	}
}

func TestStringers(t *testing.T) {
	opNames := map[OpClass]string{
		OpIntALU: "int", OpMul: "mul", OpDiv: "div", OpFPALU: "fp",
		OpLoad: "load", OpStore: "store", OpCopy: "copy",
	}
	for c, want := range opNames {
		if c.String() != want {
			t.Errorf("OpClass(%d).String() = %q, want %q", int(c), c.String(), want)
		}
	}
	depNames := map[DepKind]string{RegFlow: "RF", RegAnti: "RA", RegOut: "RO", MemDep: "MA"}
	for k, want := range depNames {
		if k.String() != want {
			t.Errorf("DepKind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
	allocNames := map[AllocKind]string{AllocGlobal: "global", AllocStack: "stack", AllocHeap: "heap"}
	for k, want := range allocNames {
		if k.String() != want {
			t.Errorf("AllocKind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if OpClass(99).String() == "" || DepKind(99).String() == "" || AllocKind(99).String() == "" {
		t.Error("out-of-range stringers must not be empty")
	}
}

func TestDefaultLatencyAllClasses(t *testing.T) {
	want := map[OpClass]int{
		OpIntALU: 1, OpMul: 2, OpDiv: 6, OpFPALU: 2, OpStore: 1, OpCopy: 2, OpLoad: 0,
	}
	for c, w := range want {
		if got := c.DefaultLatency(); got != w {
			t.Errorf("%v.DefaultLatency() = %d, want %d", c, got, w)
		}
	}
}

func TestValidateNegativeCases(t *testing.T) {
	mem := &MemInfo{Sym: "a", Gran: 4, SymBytes: 64}
	cases := map[string]*Loop{
		"nil instruction": {Name: "x", Instrs: []*Instr{nil}},
		"bad ID":          {Name: "x", Instrs: []*Instr{{ID: 5, Class: OpIntALU}}},
		"load without mem info": {Name: "x", Instrs: []*Instr{
			{ID: 0, Class: OpLoad},
		}},
		"alu with mem info": {Name: "x", Instrs: []*Instr{
			{ID: 0, Class: OpIntALU, Mem: mem},
		}},
		"bad granularity": {Name: "x", Instrs: []*Instr{
			{ID: 0, Class: OpLoad, Mem: &MemInfo{Sym: "a", Gran: 0}},
		}},
		"negative distance": {Name: "x",
			Instrs: []*Instr{{ID: 0, Class: OpIntALU}},
			Edges:  []Edge{{From: 0, To: 0, Kind: RegFlow, Distance: -1}}},
		"negative AvgIters": {Name: "x", AvgIters: -1},
		"distance-0 two-node cycle": {Name: "x",
			Instrs: []*Instr{{ID: 0, Class: OpIntALU}, {ID: 1, Class: OpIntALU}},
			Edges:  []Edge{{From: 0, To: 1, Kind: RegFlow}, {From: 1, To: 0, Kind: RegAnti}}},
		"distance-0 self edge": {Name: "x",
			Instrs: []*Instr{{ID: 0, Class: OpIntALU}},
			Edges:  []Edge{{From: 0, To: 0, Kind: RegFlow}}},
	}
	for name, l := range cases {
		if err := l.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid loop", name)
		}
	}
}

func TestBuilderAntiAndMemEdge(t *testing.T) {
	b := NewBuilder("x", 10, 1)
	s1 := b.Store("s1", MemInfo{Sym: "a", Gran: 4, SymBytes: 64})
	l1 := b.Load("l1", MemInfo{Sym: "a", Gran: 4, SymBytes: 64})
	op := b.Op("op", OpIntALU)
	b.Anti(op, l1, 1)
	b.MemEdge(s1, l1, 0)
	l := b.MustBuild()
	var anti, mem int
	for _, e := range l.Edges {
		switch e.Kind {
		case RegAnti:
			anti++
		case MemDep:
			mem++
		}
	}
	if anti != 1 || mem != 1 {
		t.Errorf("anti=%d mem=%d, want 1 and 1", anti, mem)
	}
}

// TestRecurrencesTieBreak: equal-II recurrences order by smallest member ID.
func TestRecurrencesTieBreak(t *testing.T) {
	b := NewBuilder("ties", 10, 1)
	a1 := b.Op("a1", OpIntALU)
	a2 := b.Op("a2", OpIntALU)
	b1 := b.Op("b1", OpIntALU)
	b2 := b.Op("b2", OpIntALU)
	b.Flow(a1, a2).FlowD(a2, a1, 1)
	b.Flow(b1, b2).FlowD(b2, b1, 1)
	l := b.MustBuild()
	g := NewGraph(l)
	recs := g.Recurrences(l.DefaultLatencies(15))
	if len(recs) != 2 {
		t.Fatalf("got %d recurrences", len(recs))
	}
	if recs[0].II != recs[1].II {
		t.Fatalf("expected equal IIs, got %d and %d", recs[0].II, recs[1].II)
	}
	if recs[0].Nodes[0] != a1 {
		t.Errorf("tie-break order wrong: %v before %v", recs[0].Nodes, recs[1].Nodes)
	}
}
