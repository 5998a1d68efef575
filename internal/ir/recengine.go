package ir

import "fmt"

// RecEngine is a compiled, reusable evaluator for the recurrence-constrained
// initiation interval of one cyclic strongly connected component. Building
// the engine re-indexes the component's endpoints once and splits every edge
// latency into a fixed part plus a reference to the owning instruction's
// assigned latency, so repeated II queries — the inner loop of the
// latency-assignment search — touch only the component's own edges and reuse
// the same scratch buffers instead of re-scanning all loop edges per call.
//
// The engine answers three queries:
//
//   - II(assigned): the component's II for a latency vector;
//   - IIWithChange(assigned, instr, lat, curII): the II if one instruction's
//     latency were changed, with warm binary-search bounds derived from the
//     current II (lowering a latency can only keep or decrease the II,
//     raising it can only keep or increase it);
//   - FeasibleWithChange(assigned, instr, lat, ii): a single feasibility
//     probe, for predicates like "stays ≤ target" that need no full search.
//
// Graph.RecII is retained as the naive reference implementation; the golden
// tests assert both agree on every component of the workload suite.
type RecEngine struct {
	// Nodes lists the member instruction IDs in ascending order. Shared
	// with the graph; callers must not modify it.
	Nodes []int
	edges []recEdge
	// dist and lat are scratch buffers reused across evaluations; pred and
	// mark back the predecessor-cycle check in feasible, and stamp is the
	// last walk number written to mark (monotone, so mark never needs
	// clearing).
	dist  []int
	lat   []int
	pred  []int
	mark  []int
	stamp int
}

// recEdge is one dependence of the component with endpoints re-indexed to
// component-local node numbers and its latency pre-split.
type recEdge struct {
	from, to int // component-local endpoint indices
	dist     int // iteration distance
	fixed    int // latency independent of the assignment (anti 0, out/mem 1)
	latOf    int // instruction whose assigned latency the edge carries, or -1
}

// NewRecEngine compiles the component given by its sorted member node IDs.
func NewRecEngine(g *Graph, nodes []int) *RecEngine {
	e := &RecEngine{
		Nodes: nodes,
		dist:  make([]int, len(nodes)),
		pred:  make([]int, len(nodes)),
		mark:  make([]int, len(nodes)),
	}
	local := make(map[int]int, len(nodes))
	for i, v := range nodes {
		local[v] = i
	}
	for _, v := range nodes {
		for _, ei := range g.Out[v] {
			ed := g.Loop.Edges[ei]
			ti, ok := local[ed.To]
			if !ok {
				continue
			}
			re := recEdge{from: local[v], to: ti, dist: ed.Distance, latOf: -1}
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
			e.edges = append(e.edges, re)
		}
	}
	e.lat = make([]int, len(e.edges))
	return e
}

// resolve fills the per-edge latency scratch for the assignment, overriding
// instruction instr to latency lat (instr < 0: no override), and returns the
// sum of all edge latencies — an upper bound on any simple-path length and
// hence on the II.
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
	return sum
}

// feasible reports whether no cycle of the component has positive weight
// under lat − ii·dist, by Bellman-Ford longest-path relaxation bounded to
// |nodes|+1 rounds. Two early exits prove a positive cycle sooner:
//
//   - a distance above limit, the resolve() latency sum, which no simple
//     path can exceed;
//   - a cycle in the predecessor graph, checked in O(|nodes|) after every
//     round that changed a distance.
//
// The second is the longest-path form of the predecessor-graph test (CLRS
// Lemma 24.16; Cherkassky & Goldberg 1999). A distance only ever rises, so
// the edge (u, v) that last set pred[v] = u keeps dist[v] ≤ dist[u] +
// w(u, v). Just before the relaxation that closed the cycle, that edge held
// strictly, so the cycle's weight is positive. The check matters because a
// recurrence one cycle short of feasibility gains only about one cycle of
// slack per round: its distances never exceed limit, and it would otherwise
// run every round before the bound rejects it.
func (e *RecEngine) feasible(ii, limit int) bool {
	dist, pred := e.dist, e.pred
	for i := range dist {
		dist[i] = 0
		pred[i] = -1
	}
	for round := 0; round <= len(e.Nodes); round++ {
		changed := false
		for i := range e.edges {
			ed := &e.edges[i]
			if d := dist[ed.from] + e.lat[i] - ii*ed.dist; d > dist[ed.to] {
				if d > limit {
					return false
				}
				dist[ed.to] = d
				pred[ed.to] = ed.from
				changed = true
			}
		}
		if !changed {
			return true
		}
		if e.predCycle() {
			return false
		}
	}
	return false
}

// predCycle reports whether the predecessor graph pred (a forest unless it
// closes a cycle) contains a cycle. Each node is walked toward its root at
// most once per call: a walk stops at a root, at a node an earlier walk of
// this call already cleared, or — proving a cycle — at a node of its own.
func (e *RecEngine) predCycle() bool {
	pred, mark := e.pred, e.mark
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
			u = pred[u]
		}
		if u >= 0 && mark[u] == walk {
			return true
		}
	}
	return false
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
	if len(e.edges) == 0 {
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
// every load at the ladder minimum, or the result of a smaller candidate
// latency for the same instruction. The no-change case (the perturbation
// leaves the II at curII) is detected with a single feasibility probe at
// curII−1 before any search runs. lo applies to the lowering direction; a
// raise searches [curII, sumLat] as usual.
func (e *RecEngine) IIWithChangeIn(assigned []int, instr, lat, curII, lo int) int {
	if len(e.edges) == 0 {
		return 1
	}
	if lat == assigned[instr] {
		return curII
	}
	limit := e.resolve(assigned, instr, lat)
	if lat > assigned[instr] {
		return e.searchII(curII, limit+1, limit)
	}
	if lo >= curII || !e.feasible(curII-1, limit) {
		return curII
	}
	return e.searchII(lo, curII-1, limit)
}

// FeasibleWithChange reports whether the component admits initiation
// interval ii when instruction instr is assigned latency lat — one
// Bellman-Ford probe, no search.
func (e *RecEngine) FeasibleWithChange(assigned []int, instr, lat, ii int) bool {
	if len(e.edges) == 0 {
		return true
	}
	limit := e.resolve(assigned, instr, lat)
	return e.feasible(ii, limit)
}
