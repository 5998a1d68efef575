package sms_test

import (
	"reflect"
	"sort"
	"testing"

	"ivliw/internal/arch"
	"ivliw/internal/ir"
	"ivliw/internal/latassign"
	"ivliw/internal/sms"
	"ivliw/internal/unroll"
	"ivliw/internal/workload"
)

// referenceOrder is Order as first written: maps for the set being ordered
// and for reachability, a contains scan per frontier insertion, and heights
// and depths by Bellman-Ford-style relaxation bounded to |V| rounds. Order
// must return the same order.
func referenceOrder(g *ir.Graph, assigned []int) []int {
	n := len(g.Loop.Instrs)
	height := heights(g, assigned)
	depth := depths(g, assigned)

	var order []int
	inOrder := make([]bool, n)
	append1 := func(v int) {
		order = append(order, v)
		inOrder[v] = true
	}

	for _, set := range nodeSets(g, assigned) {
		orderSet(g, set, inOrder, height, depth, append1)
	}
	return order
}

// nodeSets partitions the nodes into ordered priority sets: recurrences by
// decreasing II, each preceded by the nodes on paths connecting it to the
// already-selected sets, with all remaining nodes in a final set.
func nodeSets(g *ir.Graph, assigned []int) [][]int {
	n := len(g.Loop.Instrs)
	taken := make([]bool, n)
	var sets [][]int

	add := func(set []int) {
		if len(set) == 0 {
			return
		}
		sort.Ints(set)
		sets = append(sets, set)
		for _, v := range set {
			taken[v] = true
		}
	}

	for _, rec := range g.Recurrences(assigned) {
		if anyTaken(taken, rec.Nodes) {
			continue // SCCs are disjoint; defensive only
		}
		if len(sets) > 0 {
			add(pathNodes(g, taken, rec.Nodes))
		}
		add(rec.Nodes)
	}
	var rest []int
	for v := 0; v < n; v++ {
		if !taken[v] {
			rest = append(rest, v)
		}
	}
	add(rest)
	return sets
}

func anyTaken(taken []bool, nodes []int) bool {
	for _, v := range nodes {
		if taken[v] {
			return true
		}
	}
	return false
}

// pathNodes returns the untaken nodes lying on a directed path between the
// already-taken nodes and the target set (in either direction), computed
// over distance-0 edges.
func pathNodes(g *ir.Graph, taken []bool, target []int) []int {
	inTarget := make(map[int]bool, len(target))
	for _, v := range target {
		inTarget[v] = true
	}
	fromTaken := reach(g, func(v int) bool { return taken[v] }, true)
	toTaken := reach(g, func(v int) bool { return taken[v] }, false)
	fromTarget := reach(g, func(v int) bool { return inTarget[v] }, true)
	toTarget := reach(g, func(v int) bool { return inTarget[v] }, false)

	var path []int
	for v := range fromTaken {
		if toTarget[v] && !taken[v] && !inTarget[v] {
			path = append(path, v)
		}
	}
	for v := range fromTarget {
		if toTaken[v] && !taken[v] && !inTarget[v] {
			path = append(path, v)
		}
	}
	sort.Ints(path)
	return dedup(path)
}

// reach computes the set of nodes reachable from (forward=true) or reaching
// (forward=false) the seed predicate, over distance-0 edges.
func reach(g *ir.Graph, seed func(int) bool, forward bool) map[int]bool {
	seen := map[int]bool{}
	var stack []int
	for v := range g.Loop.Instrs {
		if seed(v) {
			seen[v] = true
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		edges := g.Out[v]
		if !forward {
			edges = g.In[v]
		}
		for _, ei := range edges {
			e := g.Loop.Edges[ei]
			if e.Distance != 0 {
				continue
			}
			w := e.To
			if !forward {
				w = e.From
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

func dedup(sorted []int) []int {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// orderSet appends the nodes of one set to the global order, alternating
// directions so that appended nodes have only predecessors or only
// successors already ordered.
func orderSet(g *ir.Graph, set []int, inOrder []bool, height, depth []int, emit func(int)) {
	remaining := make(map[int]bool, len(set))
	for _, v := range set {
		remaining[v] = true
	}
	for len(remaining) > 0 {
		// Frontier: nodes of the set adjacent to the current order.
		var r []int
		bottomUp := false
		for v := range remaining {
			if hasNeighborInOrder(g, v, inOrder, true) { // succ in order
				r = append(r, v)
			}
		}
		if len(r) > 0 {
			bottomUp = true
		} else {
			for v := range remaining {
				if hasNeighborInOrder(g, v, inOrder, false) { // pred in order
					r = append(r, v)
				}
			}
		}
		if len(r) == 0 {
			// Seed: the node with the greatest height (it heads the
			// longest chain), ordered top-down from there.
			r = []int{seedNode(set, remaining, height)}
		}
		sort.Ints(r)

		for len(r) > 0 {
			v := pick(r, bottomUp, height, depth)
			emit(v)
			delete(remaining, v)
			// Extend the frontier following the current direction.
			next := g.Preds(v)
			if !bottomUp {
				next = g.Succs(v)
			}
			for _, w := range next {
				if remaining[w] && !contains(r, w) {
					r = append(r, w)
				}
			}
			r = filterRemaining(r, remaining)
		}
		// Direction flips implicitly: the next frontier computation
		// re-derives it from the new order.
	}
}

func hasNeighborInOrder(g *ir.Graph, v int, inOrder []bool, succs bool) bool {
	ns := g.Succs(v)
	if !succs {
		ns = g.Preds(v)
	}
	for _, w := range ns {
		if w != v && inOrder[w] {
			return true
		}
	}
	return false
}

func seedNode(set []int, remaining map[int]bool, height []int) int {
	best, bestH := -1, -1
	for _, v := range set {
		if !remaining[v] {
			continue
		}
		if height[v] > bestH || (height[v] == bestH && v < best) {
			best, bestH = v, height[v]
		}
	}
	return best
}

// pick removes and returns the highest-priority node of the frontier:
// greatest depth for bottom-up, greatest height for top-down, ties by
// smallest ID.
func pick(r []int, bottomUp bool, height, depth []int) int {
	prio := height
	if bottomUp {
		prio = depth
	}
	bi := 0
	for i := 1; i < len(r); i++ {
		if prio[r[i]] > prio[r[bi]] || (prio[r[i]] == prio[r[bi]] && r[i] < r[bi]) {
			bi = i
		}
	}
	v := r[bi]
	r[bi] = r[len(r)-1]
	return v
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func filterRemaining(r []int, remaining map[int]bool) []int {
	out := r[:0]
	for _, v := range r {
		if remaining[v] {
			out = append(out, v)
		}
	}
	return out
}

// heights returns, per node, the longest latency path to any sink over
// distance-0 edges (the node's own latency excluded, successors' included),
// computed by bounded relaxation so that malformed zero-distance cycles
// cannot hang the compiler.
func heights(g *ir.Graph, assigned []int) []int {
	return longest(g, assigned, true)
}

// depths returns, per node, the longest latency path from any source over
// distance-0 edges.
func depths(g *ir.Graph, assigned []int) []int {
	return longest(g, assigned, false)
}

func longest(g *ir.Graph, assigned []int, toSink bool) []int {
	n := len(g.Loop.Instrs)
	val := make([]int, n)
	for round := 0; round < n; round++ {
		changed := false
		for _, e := range g.Loop.Edges {
			if e.Distance != 0 {
				continue
			}
			w := g.Loop.EdgeLatency(e, assigned)
			if toSink {
				if d := val[e.To] + w; d > val[e.From] {
					val[e.From] = d
					changed = true
				}
			} else {
				if d := val[e.From] + w; d > val[e.To] {
					val[e.To] = d
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return val
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

// referenceProfiles gives each memory instruction a fixed, varied profile:
// hit rates and local ratios spread over [0, 1] by instruction ID.
func referenceProfiles(l *ir.Loop) map[int]latassign.MemProfile {
	prof := map[int]latassign.MemProfile{}
	for _, id := range l.MemInstrs() {
		prof[id] = latassign.MemProfile{Hit: float64(id%11) / 10, Local: float64(id%5) / 4}
	}
	return prof
}

// TestOrderMatchesReference: for every corpus loop at every reference
// factor, Order returns the reference's order under the default latencies
// of both ladders and under latassign's result (with referenceProfiles).
func TestOrderMatchesReference(t *testing.T) {
	cfg := arch.Default()
	ladder := latassign.InterleavedLadder(cfg)
	for _, l := range referenceLoops(t) {
		for _, u := range referenceFactors {
			ul := unroll.Unroll(l, u)
			g := ir.NewGraph(ul)
			for i, lat := range [][]int{
				ul.DefaultLatencies(ladder.Max()),
				ul.DefaultLatencies(latassign.UnifiedLadder(cfg).Max()),
				latassign.Assign(ul, g, cfg, ladder, referenceProfiles(ul)).Assigned,
			} {
				if got, want := sms.Order(g, lat), referenceOrder(g, lat); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s ×%d, latencies %d: Order %v, reference %v", l.Name, u, i, got, want)
				}
			}
		}
	}
}
