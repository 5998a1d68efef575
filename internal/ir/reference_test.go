package ir_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ivliw/internal/arch"
	"ivliw/internal/ir"
	"ivliw/internal/latassign"
	"ivliw/internal/unroll"
	"ivliw/internal/workload"
)

// refGraph is NewGraph's adjacency as first written: per-node edge lists
// grown by append, neighbor lists deduplicated through a map per node, and
// Tarjan's components each in its own slice. NewGraph must build the same
// lists and components.
type refGraph struct {
	loop                  *ir.Loop
	out, in, succs, preds [][]int
}

func newRefGraph(l *ir.Loop) *refGraph {
	g := &refGraph{
		loop: l,
		out:  make([][]int, len(l.Instrs)),
		in:   make([][]int, len(l.Instrs)),
	}
	for i, e := range l.Edges {
		g.out[e.From] = append(g.out[e.From], i)
		g.in[e.To] = append(g.in[e.To], i)
	}
	g.succs = make([][]int, len(l.Instrs))
	g.preds = make([][]int, len(l.Instrs))
	for v := range l.Instrs {
		g.succs[v] = g.neighbors(g.out[v], false)
		g.preds[v] = g.neighbors(g.in[v], true)
	}
	return g
}

func (g *refGraph) neighbors(edges []int, from bool) []int {
	seen := make(map[int]bool, len(edges))
	var out []int
	for _, ei := range edges {
		e := g.loop.Edges[ei]
		n := e.From
		if !from {
			n = e.To
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// sccs is iterative Tarjan over the reference out-lists, components in
// discovery order, each sorted.
func (g *refGraph) sccs() [][]int {
	n := len(g.loop.Instrs)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	next := 0
	type frame struct {
		v, ei int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{root, 0}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(g.out[f.v]) {
				e := g.loop.Edges[g.out[f.v][f.ei]]
				f.ei++
				w := e.To
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// referenceFactors are the unroll factors the reference tests check: 1–8,
// 16 and 32, which include every factor unroll.Candidates returns at 2, 4
// and 8 clusters (OUF divides N·I: 8, 16 and 32 there).
var referenceFactors = []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 32}

// referenceLoops returns every loop of the workload suite and of a seeded
// 201-loop synthetic population.
func referenceLoops(t *testing.T) []*ir.Loop {
	synth, err := workload.SynthSuite(67, 2025)
	if err != nil {
		t.Fatal(err)
	}
	var loops []*ir.Loop
	for _, b := range append(workload.Suite(), synth...) {
		for _, ls := range b.Loops {
			loops = append(loops, ls.Loop)
		}
	}
	return loops
}

// TestGraphMatchesReference: for every corpus loop at every reference
// factor, and for 200 seeded random loops (parallel, self and backward
// edges included) at factors 1, 2 and 4, NewGraph's Out, In, Succs, Preds
// and SCCs equal the reference's, its engines are the reference's cyclic
// components in order, and each engine's II equals the naive Graph.RecII of
// its component under latassign's result (with referenceProfiles) and, up
// to ×8, under the default latencies of both ladders.
func TestGraphMatchesReference(t *testing.T) {
	var loops []*ir.Loop
	for _, l := range referenceLoops(t) {
		for _, u := range referenceFactors {
			loops = append(loops, unroll.Unroll(l, u))
		}
	}
	rng := rand.New(rand.NewPCG(2025, 25))
	for _, shape := range []string{"ring", "rings", "random", "unrolled"} {
		for id := 0; id < 50; id++ {
			l := randLoop(rng, shape, id)
			for _, u := range []int{1, 2, 4} {
				loops = append(loops, unroll.Unroll(l, u))
			}
		}
	}
	cfg := arch.Default()
	ladder := latassign.InterleavedLadder(cfg)
	for _, ul := range loops {
		g, ref := ir.NewGraph(ul), newRefGraph(ul)
		label := fmt.Sprintf("%s ×%d", ul.Name, ul.Unroll)
		refSCCs := ref.sccs()
		succs := make([][]int, len(ul.Instrs))
		preds := make([][]int, len(ul.Instrs))
		for v := range ul.Instrs {
			succs[v], preds[v] = g.Succs(v), g.Preds(v)
		}
		for _, c := range []struct {
			name      string
			got, want [][]int
		}{
			{"Out", g.Out, ref.out}, {"In", g.In, ref.in},
			{"Succs", succs, ref.succs}, {"Preds", preds, ref.preds},
			{"SCCs", g.SCCs(), refSCCs},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s: %s differs from the reference", label, c.name)
			}
		}

		var cyclic [][]int
		for _, comp := range refSCCs {
			if len(comp) > 1 || slices.Contains(ref.succs[comp[0]], comp[0]) {
				cyclic = append(cyclic, comp)
			}
		}
		engines := g.RecEngines()
		if len(engines) != len(cyclic) {
			t.Fatalf("%s: %d engines, reference has %d cyclic components", label, len(engines), len(cyclic))
		}
		for k, eng := range engines {
			if !reflect.DeepEqual(eng.Nodes, cyclic[k]) {
				t.Fatalf("%s: engine %d covers %v, reference component %v", label, k, eng.Nodes, cyclic[k])
			}
		}
		lats := [][]int{latassign.Assign(ul, g, cfg, ladder, referenceProfiles(ul)).Assigned}
		if ul.Unroll <= 8 {
			// The naive RecII is slow on ×16 and ×32 components; there
			// latassign's result alone is checked.
			lats = append(lats,
				ul.DefaultLatencies(ladder.Max()),
				ul.DefaultLatencies(latassign.UnifiedLadder(cfg).Max()))
		}
		for k, eng := range engines {
			for _, lat := range lats {
				if got, want := eng.II(lat), g.RecII(cyclic[k], lat); got != want {
					t.Fatalf("%s: engine %d II %d, reference %d", label, k, got, want)
				}
			}
		}
	}
}

// referenceProfiles gives each memory instruction a fixed, varied profile:
// hit rates and local ratios spread over [0, 1] by instruction ID.
func referenceProfiles(l *ir.Loop) map[int]latassign.MemProfile {
	prof := map[int]latassign.MemProfile{}
	for _, id := range l.MemInstrs() {
		prof[id] = latassign.MemProfile{Hit: float64(id%11) / 10, Local: float64(id%5) / 4}
	}
	return prof
}
