package ir

import (
	"slices"
	"sort"
)

// Graph is an adjacency view over a Loop's dependence edges.
type Graph struct {
	Loop *Loop
	// Out[v] and In[v] list edge indices leaving/entering v, ascending:
	// views, capped at their length, into one flat array each (nil when
	// empty).
	Out, In [][]int
	// succs and preds are the distinct sorted neighbor lists, precomputed
	// once so Succs/Preds are allocation-free.
	succs, preds [][]int
	// engines are the compiled recurrence evaluators, one per cyclic SCC
	// in Tarjan discovery order.
	engines []*RecEngine
}

// NewGraph builds the adjacency view of a loop, precomputes the neighbor
// lists and compiles a RecEngine for every cyclic SCC.
func NewGraph(l *Loop) *Graph {
	n := len(l.Instrs)
	g := &Graph{Loop: l}
	g.Out = adjacency(l.Edges, n, func(e *Edge) int { return e.From })
	g.In = adjacency(l.Edges, n, func(e *Edge) int { return e.To })
	g.succs = neighbors(l.Edges, g.Out, func(e *Edge) int { return e.To })
	g.preds = neighbors(l.Edges, g.In, func(e *Edge) int { return e.From })
	for _, comp := range g.SCCs() {
		if g.hasCycle(comp) {
			g.engines = append(g.engines, NewRecEngine(g, comp))
		}
	}
	return g
}

// adjacency lists, per node, the indices of the edges whose end (From or
// To) is that node, in edge-index order: a counting sort into one flat
// array, each list a view capped at its own length and nil when empty.
func adjacency(edges []Edge, n int, end func(*Edge) int) [][]int {
	lists := make([][]int, n)
	start := make([]int, n+1)
	for i := range edges {
		start[end(&edges[i])+1]++
	}
	for v := range n {
		start[v+1] += start[v]
	}
	flat := make([]int, len(edges))
	fill := start[:n]
	for i := range edges {
		v := end(&edges[i])
		flat[fill[v]] = i
		fill[v]++
	}
	// fill[v] now holds the end of v's list, which is where v+1's starts.
	lo := 0
	for v := range n {
		if hi := fill[v]; hi > lo {
			lists[v] = flat[lo:hi:hi]
			lo = hi
		}
	}
	return lists
}

// neighbors returns, per node, the distinct far ends of its adjacency list
// in ascending order, sorted and deduplicated in place in one flat array
// (nil for a node with no edges).
func neighbors(edges []Edge, adj [][]int, far func(*Edge) int) [][]int {
	total := 0
	for _, a := range adj {
		total += len(a)
	}
	lists := make([][]int, len(adj))
	flat := make([]int, 0, total)
	for v, a := range adj {
		if len(a) == 0 {
			continue
		}
		lo := len(flat)
		for _, ei := range a {
			flat = append(flat, far(&edges[ei]))
		}
		ns := flat[lo:]
		slices.Sort(ns)
		ns = slices.Compact(ns)
		flat = flat[:lo+len(ns)]
		lists[v] = flat[lo:len(flat):len(flat)]
	}
	return lists
}

// Succs returns the distinct successor instruction IDs of v in ascending
// order. The slice is shared; callers must not modify it.
func (g *Graph) Succs(v int) []int { return g.succs[v] }

// Preds returns the distinct predecessor instruction IDs of v in ascending
// order. The slice is shared; callers must not modify it.
func (g *Graph) Preds(v int) []int { return g.preds[v] }

// RecEngines returns the compiled recurrence evaluators of the loop, one per
// cyclic SCC in Tarjan discovery order.
func (g *Graph) RecEngines() []*RecEngine { return g.engines }

// SCCs returns the strongly connected components of the dependence graph in
// Tarjan discovery order. Components are sorted internally by instruction ID
// and are views, capped at their length, into one array per call.
// Trivial components (single node without a self edge) are included; use
// Recurrences to keep only true recurrences.
func (g *Graph) SCCs() [][]int {
	n := len(g.Loop.Instrs)
	if n == 0 {
		return nil
	}
	ints := make([]int, 4*n)
	index, low := ints[:n], ints[n:2*n]
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	// Tarjan's stack pops each component as a contiguous tail, which is
	// copied into members; every node lands in exactly one component.
	stack := ints[2*n : 2*n : 3*n]
	members := ints[3*n : 3*n : 4*n]
	comps := make([][]int, 0, n)
	next := 0

	// Iterative Tarjan to survive large unrolled bodies without deep
	// recursion. One frame stack serves every root.
	type frame struct {
		v, ei int
	}
	var frames []frame
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames = append(frames[:0], frame{root, 0})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(g.Out[f.v]) {
				e := g.Loop.Edges[g.Out[f.v][f.ei]]
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
				top := len(stack) - 1
				for stack[top] != v {
					top--
				}
				lo := len(members)
				members = append(members, stack[top:]...)
				for _, w := range stack[top:] {
					onStack[w] = false
				}
				stack = stack[:top]
				comp := members[lo:len(members):len(members)]
				slices.Sort(comp)
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// Recurrence is a cyclic strongly connected component of the DDG together
// with its current initiation-interval lower bound.
type Recurrence struct {
	// Nodes are the member instruction IDs (sorted). Shared with the
	// graph's engine; callers must not modify it.
	Nodes []int
	// II is the minimum initiation interval imposed by the recurrence for
	// the latency vector passed to Recurrences/RecII.
	II int
	// Eng is the compiled evaluator for this recurrence, for incremental
	// II queries during the latency-assignment search.
	Eng *RecEngine
}

// Recurrences returns the true recurrences of the loop (SCCs that contain a
// cycle), each with its II computed for the given latency assignment, sorted
// by decreasing II (most constraining first) with ties broken by smallest
// member ID for determinism.
func (g *Graph) Recurrences(assigned []int) []Recurrence {
	recs := make([]Recurrence, 0, len(g.engines))
	for _, e := range g.engines {
		recs = append(recs, Recurrence{Nodes: e.Nodes, II: e.II(assigned), Eng: e})
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].II != recs[j].II {
			return recs[i].II > recs[j].II
		}
		return recs[i].Nodes[0] < recs[j].Nodes[0]
	})
	return recs
}

// hasCycle reports whether the component (given as a sorted node list)
// contains at least one dependence cycle: more than one node, or a self edge.
func (g *Graph) hasCycle(comp []int) bool {
	if len(comp) > 1 {
		return true
	}
	v := comp[0]
	for _, ei := range g.Out[v] {
		if g.Loop.Edges[ei].To == v {
			return true
		}
	}
	return false
}

// RecII computes the minimum initiation interval imposed by the recurrence
// over the given nodes for the latency vector `assigned`: the smallest II
// such that no cycle inside the component has positive slack deficit, i.e.
// for every cycle, sum(latency) <= II * sum(distance). Computed by binary
// search on II with a positive-cycle (Bellman-Ford) feasibility test, which
// is exact without enumerating elementary circuits.
//
// RecII rebuilds the component view from all loop edges on every call; it is
// retained as the naive reference implementation that the golden tests check
// RecEngine against. Hot paths use the engines from RecEngines/Recurrences.
func (g *Graph) RecII(nodes []int, assigned []int) int {
	idx := make(map[int]int, len(nodes))
	for i, v := range nodes {
		idx[v] = i
	}
	// Dense edge view of the component: endpoints re-indexed, latencies
	// resolved once. This function sits on the hot path of the
	// latency-assignment search.
	type cedge struct{ from, to, lat, dist int }
	var edges []cedge
	sumLat := 0
	for _, e := range g.Loop.Edges {
		fi, ok1 := idx[e.From]
		ti, ok2 := idx[e.To]
		if !ok1 || !ok2 {
			continue
		}
		lt := g.Loop.EdgeLatency(e, assigned)
		edges = append(edges, cedge{fi, ti, lt, e.Distance})
		sumLat += lt
	}
	if len(edges) == 0 {
		return 1
	}
	dist := make([]int, len(nodes))
	// feasible reports whether no cycle has sum(lat − II·dist) > 0,
	// by Bellman-Ford longest-path relaxation bounded to |nodes| rounds.
	feasible := func(ii int) bool {
		for i := range dist {
			dist[i] = 0
		}
		for round := 0; round <= len(nodes); round++ {
			changed := false
			for _, e := range edges {
				if d := dist[e.from] + e.lat - ii*e.dist; d > dist[e.to] {
					dist[e.to] = d
					changed = true
				}
			}
			if !changed {
				return true
			}
		}
		return false
	}
	// A cycle's latency can never exceed the component's total latency,
	// so sumLat bounds the answer.
	lo, hi := 1, sumLat+1
	for lo < hi {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
