package ir_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"ivliw/internal/ir"
	"ivliw/internal/unroll"
)

// The property test below pins the RecEngine to the naive Graph.RecII on
// seeded random loops rather than the workload suite, so that the shapes
// the suite happens not to contain are covered too: zero-latency anti
// edges, distance-0 edges, self edges, overlapping cycles, single long
// cycles that are short by exactly one cycle at curII−1 (the probe that
// feasible's predecessor-cycle exit cuts from |V|+1 rounds to one), and
// components with many loop-carried edges, some pairs of which no
// distance-0 path joins (carried graphs with k ≥ 2 nodes and missing arcs).

// randClasses are the opcode classes drawn for random loop bodies.
var randClasses = []ir.OpClass{ir.OpIntALU, ir.OpMul, ir.OpDiv, ir.OpFPALU, ir.OpLoad, ir.OpLoad, ir.OpStore}

// randLatencies are the load latencies the property test assigns and
// perturbs to: the interleaved ladder plus one off-ladder value.
var randLatencies = []int{1, 5, 10, 15, 22}

// randBody appends n random instructions to b.
func randBody(rng *rand.Rand, b *ir.Builder, n int) []ir.OpClass {
	classes := make([]ir.OpClass, n)
	for i := range classes {
		c := randClasses[rng.IntN(len(randClasses))]
		classes[i] = c
		name := fmt.Sprintf("n%d", i)
		m := ir.MemInfo{Sym: fmt.Sprintf("s%d", i), Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 1024}
		switch c {
		case ir.OpLoad:
			b.Load(name, m)
		case ir.OpStore:
			b.Store(name, m)
		default:
			b.Op(name, c)
		}
	}
	return classes
}

// randKind draws a dependence kind valid between the two endpoints
// (memory edges only join memory instructions).
func randKind(rng *rand.Rand, classes []ir.OpClass, from, to int) ir.DepKind {
	k := ir.DepKind(rng.IntN(4))
	if k == ir.MemDep && !(classes[from].IsMem() && classes[to].IsMem()) {
		k = ir.RegAnti
	}
	return k
}

// randLoop builds one random valid loop of the given shape. Distance-0
// edges always point forward, so every cycle carries a loop distance and
// the loop has a finite II.
//
//   - "ring": one long cycle — a distance-0 chain closed by a single
//     distance-1 back edge;
//   - "rings": a ring plus chords in both directions, so cycles overlap;
//   - "random": random forward, backward and self edges of every kind;
//   - "unrolled": a ring closed by a distance-2 or distance-3 back edge,
//     plus chords, unrolled ×2 or ×4. Its components have several carried
//     edges, and the copies' rings join only through some of them.
func randLoop(rng *rand.Rand, shape string, id int) *ir.Loop {
	var n int
	switch shape {
	case "ring":
		n = 2 + rng.IntN(80)
	case "unrolled":
		n = 2 + rng.IntN(24)
	default:
		n = 1 + rng.IntN(24)
	}
	b := ir.NewBuilder(fmt.Sprintf("%s%d", shape, id), 64, 1)
	classes := randBody(rng, b, n)
	if shape != "random" {
		for i := 0; i+1 < n; i++ {
			b.Flow(i, i+1)
		}
		back := 1
		if shape == "unrolled" {
			back = 2 + rng.IntN(2)
		}
		b.FlowD(n-1, 0, back)
	}
	extra := 0
	switch shape {
	case "rings":
		extra = 1 + rng.IntN(2*n)
	case "random":
		extra = rng.IntN(3 * n)
	case "unrolled":
		extra = 1 + rng.IntN(3)
	}
	for k := 0; k < extra; k++ {
		from, to := rng.IntN(n), rng.IntN(n)
		dist := 1 + rng.IntN(3)
		if from < to && rng.IntN(2) == 0 {
			dist = 0
		}
		b.Dep(from, to, randKind(rng, classes, from, to), dist)
	}
	if shape == "unrolled" {
		return unroll.Unroll(b.MustBuild(), 2<<rng.IntN(2))
	}
	return b.MustBuild()
}

// naiveWithChange is Graph.RecII with instruction instr's latency replaced.
func naiveWithChange(g *ir.Graph, nodes, assigned []int, instr, lat int) int {
	saved := assigned[instr]
	assigned[instr] = lat
	defer func() { assigned[instr] = saved }()
	return g.RecII(nodes, assigned)
}

// TestRecEngineMatchesNaiveOnRandomLoops: on seeded random loops of every
// shape, the engine's II, IIWithChange and FeasibleWithChange must agree
// with the naive reference for sampled member instructions, every candidate
// latency, and every probe II around the answer — in particular at
// answer−1, where the recurrence is short by the smallest possible amount.
// A lowering by δ must never take the II below curII − δ.
func TestRecEngineMatchesNaiveOnRandomLoops(t *testing.T) {
	rng := rand.New(rand.NewPCG(2002, 35))
	for _, shape := range []string{"ring", "rings", "random", "unrolled"} {
		for id := 0; id < 100; id++ {
			l := randLoop(rng, shape, id)
			g := ir.NewGraph(l)
			mixed := l.DefaultLatencies(15)
			for i, in := range l.Instrs {
				if in.IsLoad() {
					mixed[i] = randLatencies[rng.IntN(len(randLatencies))]
				}
			}
			for vi, assigned := range [][]int{l.DefaultLatencies(15), l.DefaultLatencies(1), mixed} {
				checkRandomLoop(t, rng, fmt.Sprintf("%s vec%d", l.Name, vi), g, assigned)
			}
		}
	}
}

// sample returns up to k distinct members of nodes, drawn by rng.
func sample(rng *rand.Rand, nodes []int, k int) []int {
	if len(nodes) <= k {
		return nodes
	}
	out := make([]int, k)
	for i, j := range rng.Perm(len(nodes))[:k] {
		out[i] = nodes[j]
	}
	return out
}

func checkRandomLoop(t *testing.T, rng *rand.Rand, label string, g *ir.Graph, assigned []int) {
	t.Helper()
	want := naiveRecurrences(g, assigned)
	got := g.Recurrences(assigned)
	if len(got) != len(want) {
		t.Fatalf("%s: %d recurrences, want %d", label, len(got), len(want))
	}
	for ri, rec := range got {
		if rec.II != want[ri].II || !equalInts(rec.Nodes, want[ri].Nodes) {
			t.Fatalf("%s rec%d: II %d over %v, want %d over %v",
				label, ri, rec.II, rec.Nodes, want[ri].II, want[ri].Nodes)
		}
		for _, m := range sample(rng, rec.Nodes, 6) {
			for _, lat := range randLatencies {
				wantII := naiveWithChange(g, rec.Nodes, assigned, m, lat)
				if got := rec.Eng.IIWithChange(assigned, m, lat, rec.II); got != wantII {
					t.Fatalf("%s rec%d instr %d lat %d: IIWithChange = %d, want %d",
						label, ri, m, lat, got, wantII)
				}
				if delta := assigned[m] - lat; delta > 0 && wantII < rec.II-delta {
					t.Fatalf("%s rec%d instr %d lat %d: II %d below the δ floor %d−%d",
						label, ri, m, lat, wantII, rec.II, delta)
				}
				for _, ii := range []int{wantII - 1, wantII, rec.II - 1, rec.II} {
					if ii < 1 {
						continue
					}
					if got := rec.Eng.FeasibleWithChange(assigned, m, lat, ii); got != (ii >= wantII) {
						t.Fatalf("%s rec%d instr %d lat %d: FeasibleWithChange(%d) = %v, want %v",
							label, ri, m, lat, ii, got, ii >= wantII)
					}
				}
			}
		}
	}
}

// TestWitnessCycleIsSound: the witness cycle at II−1 must name every
// instruction whose lowering can make II−1 feasible. Lowering all the
// instructions it leaves unmarked at once, to the ladder minimum, must leave
// the naive Graph.RecII at II — over the workload suite at unroll ×1, ×4
// and ×8 and over the seeded random loops. On the suite, every probe must
// also find a witness: latency assignment prunes its candidates only when
// one is found.
func TestWitnessCycleIsSound(t *testing.T) {
	labels, loops, graphs := suiteGraphs(t)
	for gi, g := range graphs {
		for vi, assigned := range latencyVectors(loops[gi]) {
			label := fmt.Sprintf("%s vec%d", labels[gi], vi)
			if found, probed := checkWitness(t, label, g, assigned); found != probed {
				t.Errorf("%s: witness found in %d of %d probes", label, found, probed)
			}
		}
	}
	rng := rand.New(rand.NewPCG(2002, 36))
	found, probed := 0, 0
	for _, shape := range []string{"ring", "rings", "random", "unrolled"} {
		for id := 0; id < 100; id++ {
			l := randLoop(rng, shape, id)
			g := ir.NewGraph(l)
			for vi, assigned := range [][]int{l.DefaultLatencies(15), l.DefaultLatencies(1)} {
				f, p := checkWitness(t, fmt.Sprintf("%s vec%d", l.Name, vi), g, assigned)
				found += f
				probed += p
			}
		}
	}
	if found == 0 {
		t.Errorf("random loops: witness found in none of %d probes", probed)
	}
}

// checkWitness runs the witness check on every recurrence of g with II ≥ 2
// and returns how many probes found a witness out of how many ran.
func checkWitness(t *testing.T, label string, g *ir.Graph, assigned []int) (found, probed int) {
	t.Helper()
	carried := make([]bool, len(assigned))
	lowered := make([]int, len(assigned))
	for _, rec := range g.Recurrences(assigned) {
		if rec.II < 2 {
			continue
		}
		probed++
		clear(carried)
		if !rec.Eng.WitnessCycle(assigned, rec.II-1, carried) {
			continue
		}
		found++
		copy(lowered, assigned)
		for _, v := range rec.Nodes {
			if !carried[v] {
				lowered[v] = min(lowered[v], 1)
			}
		}
		if got := g.RecII(rec.Nodes, lowered); got != rec.II {
			t.Errorf("%s rec@%d: II %d fell to %d with only unmarked instructions lowered",
				label, rec.Nodes[0], rec.II, got)
		}
	}
	return found, probed
}
