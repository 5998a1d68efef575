package ir

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// RecEngine is a compiled, reusable evaluator for the recurrence-constrained
// initiation interval of one cyclic strongly connected component.
//
// The component's distance-0 edges form a DAG: Loop.Validate rejects a
// distance-0 cycle, and unrolling keeps them acyclic. So every cycle of the
// component passes through at least one of its k loop-carried edges
// (distance ≥ 1), and the engine condenses the component onto them.
// Building it numbers the nodes in a topological order of the DAG, splits
// every edge latency into a fixed part plus a reference to the owning
// instruction's assigned latency, and records which carried edges a
// distance-0 path joins. For each latency vector, resolve runs one
// longest-path pass over the DAG from the head of each carried edge and
// weighs the k-node carried graph: an arc a→b weighs the longest distance-0
// path from head(a) to tail(b) plus lat(b), and has distance dist(b). A
// cycle of the carried graph is a closed walk of the component with the
// same latency and distance sums, and each cycle of the component is
// matched by one of the carried graph with the same distance sum and at
// least its latency. So both have a positive cycle at exactly the same IIs,
// and the II probes run on the carried graph alone.
//
// A query costs O(k·|E|): the k longest-path passes, plus a search whose
// probes relax at most k² arcs. Every recurrence of the workload suite has
// one or two carried edges, against hundreds of edges in its component at
// unroll ×8. Queries reuse the engine's scratch buffers and allocate
// nothing.
//
// The engine answers four queries:
//
//   - II(assigned): the component's II for a latency vector;
//   - IIWithChange(assigned, instr, lat, curII): the II if one instruction's
//     latency were changed, with warm binary-search bounds derived from the
//     current II (lowering a latency can only keep or decrease the II,
//     raising it can only keep or increase it);
//   - FeasibleWithChange(assigned, instr, lat, ii): a single feasibility
//     probe, for predicates like "stays ≤ target" that need no full search;
//   - WitnessCycle(assigned, ii, carried): a probe of an infeasible ii that
//     names the instructions whose latencies its positive cycle carries —
//     the only ones whose lowering can make ii feasible.
//
// Graph.RecII is retained as the naive reference implementation; the golden
// tests assert both agree on every component of the workload suite.
type RecEngine struct {
	// Nodes lists the member instruction IDs in ascending order. Shared
	// with the graph; callers must not modify it.
	Nodes []int
	// edges holds the component's dependences with endpoints numbered in
	// topological order of the distance-0 edges. edges[:zero] are the
	// distance-0 edges sorted by source, edges[zero:] the k carried edges.
	// first[v] is the index of the first distance-0 edge whose source is
	// v or later; in[inStart[v]:inStart[v+1]] lists v's distance-0
	// in-edges.
	edges   []recEdge
	zero    int
	first   []int
	inStart []int
	in      []int
	// arcs is the carried graph, over carried-edge indices.
	arcs []arc
	// Scratch buffers reused across evaluations. lat is each edge's
	// latency and w each arc's weight. long holds k rows of |Nodes|
	// entries: long[a·|Nodes|+v] is the longest distance-0 path from the
	// head of carried edge a to v, or unreached (entries before the head
	// are never written). dist, pred and mark back feasible's relaxation
	// over the carried graph: pred[b] is the arc that last raised dist[b]
	// (-1 if none did), and stamp is the last walk number written to mark
	// (monotone, so mark never needs clearing). cycle is a carried edge
	// on the cycle the last feasible call found in its predecessor graph
	// (-1 if it found none); WitnessCycle reads the cycle back from it.
	lat   []int
	long  []int
	w     []int
	dist  []int
	pred  []int
	mark  []int
	stamp int
	cycle int
}

// recEdge is one dependence of the component with endpoints re-indexed to
// component-local node numbers and its latency pre-split.
type recEdge struct {
	from, to int // component-local endpoint indices, in topological order
	dist     int // iteration distance
	fixed    int // latency independent of the assignment (anti 0, out/mem 1)
	latOf    int // instruction whose assigned latency the edge carries, or -1
}

// arc is one edge a→b of the carried graph: a distance-0 path leads from
// the head of carried edge a to the tail of carried edge b.
type arc struct {
	from, to int // carried-edge indices a and b
	dist     int // dist(b)
}

// unreached marks a node no distance-0 path reaches from the pass's source.
const unreached = math.MinInt

// NewRecEngine compiles the component given by its sorted member node IDs.
func NewRecEngine(g *Graph, nodes []int) *RecEngine {
	n := len(nodes)
	out := 0
	for _, v := range nodes {
		out += len(g.Out[v])
	}
	edges := make([]recEdge, 0, out)
	zeroArcs := make([][2]int, 0, out)
	for vi, v := range nodes {
		for _, ei := range g.Out[v] {
			ed := g.Loop.Edges[ei]
			ti, ok := slices.BinarySearch(nodes, ed.To)
			if !ok {
				continue
			}
			re := recEdge{from: vi, to: ti, dist: ed.Distance, latOf: -1}
			switch ed.Kind {
			case RegFlow:
				re.latOf = ed.From
			case RegAnti:
				// latency 0
			case RegOut, MemDep:
				re.fixed = 1
			default:
				//ivliw:invariant exhaustive switch over the dependence Kind enum, mirroring Loop.EdgeLatency
				panic(fmt.Sprintf("ir: unknown dependence kind %d", int(ed.Kind)))
			}
			edges = append(edges, re)
			if re.dist == 0 {
				zeroArcs = append(zeroArcs, [2]int{re.from, re.to})
			}
		}
	}
	order := topoOrder(n, zeroArcs)
	if len(order) < n {
		//ivliw:invariant Loop.Validate rejects distance-0 cycles, core.Compile validates its input loop, and unroll.Unroll keeps distance-0 edges acyclic (a distance-d edge of copy j reaches copy j+d, or wraps with distance ≥ 1)
		panic(fmt.Sprintf("ir: recurrence at instruction %d has a distance-0 cycle", nodes[0]))
	}
	pos := make([]int, n)
	for p, v := range order {
		pos[v] = p
	}
	for i := range edges {
		edges[i].from, edges[i].to = pos[edges[i].from], pos[edges[i].to]
	}
	// Distance-0 edges first, by source; carried edges keep their order.
	key := func(ed recEdge) int {
		if ed.dist == 0 {
			return ed.from
		}
		return n
	}
	slices.SortStableFunc(edges, func(a, b recEdge) int { return cmp.Compare(key(a), key(b)) })

	e := &RecEngine{Nodes: nodes, edges: edges, zero: len(zeroArcs)}
	e.first = make([]int, n+1)
	for v, i := 0, 0; v <= n; v++ {
		for i < e.zero && edges[i].from < v {
			i++
		}
		e.first[v] = i
	}
	e.inStart = make([]int, n+1)
	for _, ed := range edges[:e.zero] {
		e.inStart[ed.to+1]++
	}
	for v := 0; v < n; v++ {
		e.inStart[v+1] += e.inStart[v]
	}
	e.in = make([]int, e.zero)
	fill := slices.Clone(e.inStart[:n])
	for i, ed := range edges[:e.zero] {
		e.in[fill[ed.to]] = i
		fill[ed.to]++
	}

	carried := edges[e.zero:]
	reach := make([]bool, n)
	for a := range carried {
		h := carried[a].to
		clear(reach)
		reach[h] = true
		for _, ed := range edges[e.first[h]:e.zero] {
			if reach[ed.from] {
				reach[ed.to] = true
			}
		}
		for b := range carried {
			if reach[carried[b].from] {
				e.arcs = append(e.arcs, arc{from: a, to: b, dist: carried[b].dist})
			}
		}
	}

	k := len(carried)
	e.lat = make([]int, len(edges))
	e.long = make([]int, k*n)
	e.w = make([]int, len(e.arcs))
	e.dist = make([]int, k)
	e.pred = make([]int, k)
	e.mark = make([]int, k)
	return e
}

// topoOrder returns nodes 0..n-1 in a topological order of the arcs
// (Kahn's algorithm, taking ready nodes first in, first out). The order is
// shorter than n when the arcs contain a cycle.
func topoOrder(n int, arcs [][2]int) []int {
	// Successor lists in compressed form: succ[start[v]:start[v+1]]. The
	// counts go in one slot ahead so that the fill pass leaves start exact.
	indeg := make([]int, n)
	start := make([]int, n+2)
	for _, a := range arcs {
		indeg[a[1]]++
		start[a[0]+2]++
	}
	for v := 2; v <= n; v++ {
		start[v] += start[v-1]
	}
	succ := make([]int, len(arcs))
	for _, a := range arcs {
		succ[start[a[0]+1]] = a[1]
		start[a[0]+1]++
	}
	order := make([]int, 0, n)
	for v := range indeg {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, w := range succ[start[v]:start[v+1]] {
			if indeg[w]--; indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	return order
}

// resolve fills the per-edge latency scratch for the assignment, overriding
// instruction instr to latency lat (instr < 0: no override), weighs the
// carried graph, and returns the sum of all edge latencies — an upper bound
// on any simple-path length and hence on the II.
//
// The longest-path pass from head h relaxes the distance-0 edges in
// source order, which is topological, so each node's length is final
// before its out-edges are read. Nodes before h cannot be reached and are
// skipped.
func (e *RecEngine) resolve(assigned []int, instr, lat int) int {
	sum := 0
	for i := range e.edges {
		ed := &e.edges[i]
		lt := ed.fixed
		if ed.latOf >= 0 {
			if ed.latOf == instr {
				lt += lat
			} else {
				lt += assigned[ed.latOf]
			}
		}
		e.lat[i] = lt
		sum += lt
	}
	n := len(e.Nodes)
	carried := e.edges[e.zero:]
	for a := range carried {
		h := carried[a].to
		row := e.long[a*n : (a+1)*n]
		row[h] = 0
		for v := h + 1; v < n; v++ {
			row[v] = unreached
		}
		for i := e.first[h]; i < e.zero; i++ {
			ed := &e.edges[i]
			if d := row[ed.from]; d != unreached && d+e.lat[i] > row[ed.to] {
				row[ed.to] = d + e.lat[i]
			}
		}
	}
	for i := range e.arcs {
		ar := &e.arcs[i]
		b := e.zero + ar.to
		e.w[i] = e.long[ar.from*n+e.edges[b].from] + e.lat[b]
	}
	return sum
}

// feasible reports whether no cycle of the carried graph, and hence of the
// component, has positive weight under w − ii·dist, by Bellman-Ford
// longest-path relaxation over the carried graph bounded to k+1 rounds. Two
// early exits prove a positive cycle sooner:
//
//   - a distance above limit, the resolve() latency sum: each distance is
//     the weight of a walk of the component, which cannot exceed the
//     heaviest simple path unless the walk contains a positive cycle;
//   - a cycle in the predecessor graph, checked in O(k) after every round
//     that changed a distance.
//
// The second is the longest-path form of the predecessor-graph test (CLRS
// Lemma 24.16; Cherkassky & Goldberg 1999). A distance only ever rises, so
// the arc (a, b) recorded in pred[b] keeps dist[b] ≤ dist[a] + w(a, b).
// Just before the relaxation that closed the cycle, that arc held strictly,
// so the cycle's weight is positive. pred records arcs, not nodes, so the
// argument holds for exactly the arcs WitnessCycle reads back. A carried
// graph with one node closes its self-loop in the first round whenever the
// II is infeasible.
func (e *RecEngine) feasible(ii, limit int) bool {
	dist, pred := e.dist, e.pred
	for i := range dist {
		dist[i] = 0
		pred[i] = -1
	}
	e.cycle = -1
	for round := 0; round <= len(dist); round++ {
		changed := false
		for i := range e.arcs {
			ar := &e.arcs[i]
			if d := dist[ar.from] + e.w[i] - ii*ar.dist; d > dist[ar.to] {
				if d > limit {
					return false
				}
				dist[ar.to] = d
				pred[ar.to] = i
				changed = true
			}
		}
		if !changed {
			return true
		}
		if e.cycle = e.predCycle(); e.cycle >= 0 {
			return false
		}
	}
	return false
}

// predCycle returns a node on a cycle of the predecessor graph, in which
// each carried-graph node points to the source of its pred arc (a forest
// unless it closes a cycle), or -1 if there is none. Each node is walked
// toward its root at most once per call: a walk stops at a root, at a node
// an earlier walk of this call already cleared, or — proving a cycle — at a
// node of its own.
func (e *RecEngine) predCycle() int {
	pred, mark, arcs := e.pred, e.mark, e.arcs
	base := e.stamp
	for v := range pred {
		if mark[v] > base {
			continue
		}
		e.stamp++
		walk := e.stamp
		u := v
		for u >= 0 && mark[u] <= base {
			mark[u] = walk
			if p := pred[u]; p >= 0 {
				u = arcs[p].from
			} else {
				u = -1
			}
		}
		if u >= 0 && mark[u] == walk {
			return u
		}
	}
	return -1
}

// searchII binary-searches the smallest feasible II in [lo, hi]; hi must be
// known feasible (lo−1 need not be probed: II ≥ 1 always holds for lo = 1,
// and warm bounds guarantee it otherwise).
func (e *RecEngine) searchII(lo, hi, limit int) int {
	for lo < hi {
		mid := (lo + hi) / 2
		if e.feasible(mid, limit) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// II returns the component's minimum initiation interval for the latency
// vector `assigned` (indexed by instruction ID).
func (e *RecEngine) II(assigned []int) int {
	if len(e.arcs) == 0 {
		return 1
	}
	limit := e.resolve(assigned, -1, 0)
	return e.searchII(1, limit+1, limit)
}

// IIWithChange returns the component's II as if instruction instr were
// assigned latency lat, leaving `assigned` untouched. curII must be the
// component's II for the unmodified vector; it warms the search bounds:
// a lowered latency searches [1, curII], a raised one [curII, sumLat].
func (e *RecEngine) IIWithChange(assigned []int, instr, lat, curII int) int {
	return e.IIWithChangeIn(assigned, instr, lat, curII, 1)
}

// IIWithChangeIn is IIWithChange with a caller-supplied lower bound lo on
// the result — a latency-independent floor such as the component's II with
// every load at the ladder minimum. The no-change case (the perturbation
// leaves the II at curII) is detected with a single feasibility probe at
// curII−1 before any search runs. lo applies to the lowering direction; a
// raise searches [curII, sumLat] as usual.
//
// A lowering by δ = assigned[instr] − lat also raises lo to curII − δ. Some
// simple cycle is positive at curII−1, and its iteration distance is at
// least one. It leaves instr through at most one of its edges, so it loses
// at most δ of latency and stays positive at every ii < curII − δ.
func (e *RecEngine) IIWithChangeIn(assigned []int, instr, lat, curII, lo int) int {
	if len(e.arcs) == 0 {
		return 1
	}
	if lat == assigned[instr] {
		return curII
	}
	limit := e.resolve(assigned, instr, lat)
	if lat > assigned[instr] {
		return e.searchII(curII, limit+1, limit)
	}
	lo = max(lo, curII-(assigned[instr]-lat))
	if lo >= curII || !e.feasible(curII-1, limit) {
		return curII
	}
	return e.searchII(lo, curII-1, limit)
}

// FeasibleWithChange reports whether the component admits initiation
// interval ii when instruction instr is assigned latency lat — one
// feasibility probe, no search.
func (e *RecEngine) FeasibleWithChange(assigned []int, instr, lat, ii int) bool {
	if len(e.arcs) == 0 {
		return true
	}
	limit := e.resolve(assigned, instr, lat)
	return e.feasible(ii, limit)
}

// WitnessCycle probes ii under the unmodified assignment. When ii is
// infeasible and the probe ends at a cycle of its predecessor graph — a
// positive cycle of the carried graph — it sets carried[v] for every
// instruction v whose latency the cycle carries and reports true: the
// latency of each of its carried edges, and of each edge on the longest
// distance-0 paths its arcs stand for. That closed walk of the component
// is positive, and lowering any instruction left unset keeps its weight,
// so ii stays infeasible. It reports false and leaves carried untouched
// when ii is feasible or the probe ends at the latency-sum bound, which
// names no cycle. carried is indexed by instruction ID.
func (e *RecEngine) WitnessCycle(assigned []int, ii int, carried []bool) bool {
	if len(e.arcs) == 0 || e.feasible(ii, e.resolve(assigned, -1, 0)) || e.cycle < 0 {
		return false
	}
	for b := e.cycle; ; {
		ar := &e.arcs[e.pred[b]]
		e.markArc(ar.from, ar.to, carried)
		if b = ar.from; b == e.cycle {
			return true
		}
	}
}

// markArc marks the latency owners of arc a→b as resolve weighed it:
// carried edge b and a longest distance-0 path from the head of a to the
// tail of b. The path is walked back from its end, each step taking the
// first in-edge whose source's length plus latency equals the node's.
func (e *RecEngine) markArc(a, b int, carried []bool) {
	n := len(e.Nodes)
	mark := func(ed *recEdge) {
		if ed.latOf >= 0 {
			carried[ed.latOf] = true
		}
	}
	cb := &e.edges[e.zero+b]
	mark(cb)
	h, row := e.edges[e.zero+a].to, e.long[a*n:(a+1)*n]
	for v := cb.from; v != h; {
		u := -1
		for _, i := range e.in[e.inStart[v]:e.inStart[v+1]] {
			ed := &e.edges[i]
			if ed.from >= h && row[ed.from] != unreached && row[ed.from]+e.lat[i] == row[v] {
				mark(ed)
				u = ed.from
				break
			}
		}
		if u < 0 {
			//ivliw:invariant resolve set row[v] from one of v's in-edges, whose source it had already finished
			panic(fmt.Sprintf("ir: no tight in-edge at node %d on a longest path", v))
		}
		v = u
	}
}
