// Package sms implements the node ordering of Swing Modulo Scheduling
// (Llosa, González, Ayguadé, Valero — PACT'96), the ordering used by both
// the BASE algorithm and the proposed interleaved-cache algorithm (§4.2 and
// §4.3.1 Step 3).
//
// The ordering gives priority to recurrences according to the constraints
// they impose on the II, from most to least constraining, inserting the
// nodes on paths between already-ordered sets in between. Within a set,
// nodes are appended alternating top-down (following successors, picking the
// node of greatest height first) and bottom-up (following predecessors,
// picking the node of greatest depth first), which guarantees that every
// node except at most one seed per connected component has only predecessors
// or only successors already in the ordered list — the property that keeps
// register pressure low.
package sms

import (
	"fmt"
	"slices"

	"ivliw/internal/ir"
)

// Order returns the instruction IDs of the loop in swing modulo scheduling
// order for the given latency assignment. The graph's distance-0 edges must
// form a DAG, as they do for every graph ir.NewGraph accepts.
func Order(g *ir.Graph, assigned []int) []int {
	n := len(g.Loop.Instrs)
	height, depth := heightsDepths(g, assigned)

	o := &orderer{
		g: g, height: height, depth: depth,
		inOrder:  make([]bool, n),
		rem:      make([]bool, n),
		frontier: make([]bool, n),
	}
	for _, set := range nodeSets(g, assigned) {
		o.orderSet(set)
	}
	return o.order
}

// nodeSets partitions the nodes into ordered priority sets: recurrences by
// decreasing II, each preceded by the nodes on paths connecting it to the
// already-selected sets, with all remaining nodes in a final set. Every set
// is sorted.
func nodeSets(g *ir.Graph, assigned []int) [][]int {
	n := len(g.Loop.Instrs)
	taken := make([]bool, n)
	var sets [][]int

	add := func(set []int) {
		if len(set) == 0 {
			return
		}
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

// pathNodes returns, in ascending order, the untaken nodes lying on a
// directed path between the already-taken nodes and the target set (in
// either direction), computed over distance-0 edges.
func pathNodes(g *ir.Graph, taken []bool, target []int) []int {
	inTarget := make([]bool, len(taken))
	for _, v := range target {
		inTarget[v] = true
	}
	fromTaken := reach(g, taken, true)
	toTaken := reach(g, taken, false)
	fromTarget := reach(g, inTarget, true)
	toTarget := reach(g, inTarget, false)

	var path []int
	for v := range taken {
		if taken[v] || inTarget[v] {
			continue
		}
		if fromTaken[v] && toTarget[v] || fromTarget[v] && toTaken[v] {
			path = append(path, v)
		}
	}
	return path
}

// reach marks the nodes reachable from (forward=true) or reaching
// (forward=false) the seed nodes, seeds included, over distance-0 edges.
func reach(g *ir.Graph, seed []bool, forward bool) []bool {
	seen := slices.Clone(seed)
	var stack []int
	for v, s := range seed {
		if s {
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

// orderer carries the state of one Order: the order built so far, the
// nodes of the current set not yet ordered (rem) and the nodes on the
// current frontier, each marked by instruction ID.
type orderer struct {
	g             *ir.Graph
	height, depth []int
	order         []int
	inOrder       []bool
	rem           []bool
	frontier      []bool
	r             []int // the frontier's nodes, in no particular order
}

// orderSet appends the nodes of one sorted set to the global order,
// alternating directions so that appended nodes have only predecessors or
// only successors already ordered.
func (o *orderer) orderSet(set []int) {
	for _, v := range set {
		o.rem[v] = true
	}
	for left := len(set); left > 0; {
		// Frontier: nodes of the set adjacent to the current order.
		bottomUp := o.collect(set, true) // succ in order
		if !bottomUp {
			o.collect(set, false) // pred in order
		}
		if len(o.r) == 0 {
			// Seed: the node with the greatest height (it heads the
			// longest chain), ordered top-down from there.
			o.push(o.seedNode(set))
		}

		for len(o.r) > 0 {
			v := o.pick(bottomUp)
			o.order = append(o.order, v)
			o.inOrder[v] = true
			o.rem[v] = false
			left--
			// Extend the frontier following the current direction.
			next := o.g.Preds(v)
			if !bottomUp {
				next = o.g.Succs(v)
			}
			for _, w := range next {
				if o.rem[w] && !o.frontier[w] {
					o.push(w)
				}
			}
		}
		// Direction flips implicitly: the next frontier computation
		// re-derives it from the new order.
	}
}

// collect puts on the (empty) frontier every unordered node of the set with
// a successor (succs) or a predecessor (!succs) in the order, and reports
// whether it found any.
func (o *orderer) collect(set []int, succs bool) bool {
	for _, v := range set {
		if o.rem[v] && hasNeighborInOrder(o.g, v, o.inOrder, succs) {
			o.push(v)
		}
	}
	return len(o.r) > 0
}

func (o *orderer) push(v int) {
	o.r = append(o.r, v)
	o.frontier[v] = true
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

// seedNode returns the unordered node of the set with the greatest height,
// ties by smallest ID.
func (o *orderer) seedNode(set []int) int {
	best, bestH := -1, -1
	for _, v := range set {
		if o.rem[v] && o.height[v] > bestH {
			best, bestH = v, o.height[v]
		}
	}
	return best
}

// pick removes and returns the highest-priority node of the frontier:
// greatest depth for bottom-up, greatest height for top-down, ties by
// smallest ID.
func (o *orderer) pick(bottomUp bool) int {
	prio := o.height
	if bottomUp {
		prio = o.depth
	}
	r := o.r
	bi := 0
	for i := 1; i < len(r); i++ {
		if prio[r[i]] > prio[r[bi]] || (prio[r[i]] == prio[r[bi]] && r[i] < r[bi]) {
			bi = i
		}
	}
	v := r[bi]
	r[bi] = r[len(r)-1]
	o.r = r[:len(r)-1]
	o.frontier[v] = false
	return v
}

// heightsDepths returns, per node, the longest latency path to any sink
// (height: the node's own latency excluded, successors' included) and from
// any source (depth) over distance-0 edges: one pass each over a
// topological order of those edges, which must form a DAG.
func heightsDepths(g *ir.Graph, assigned []int) (height, depth []int) {
	l := g.Loop
	n := len(l.Instrs)
	order := topoOrder(g)
	height = make([]int, n)
	depth = make([]int, n)
	for _, v := range order {
		for _, ei := range g.In[v] {
			if e := l.Edges[ei]; e.Distance == 0 {
				depth[v] = max(depth[v], depth[e.From]+l.EdgeLatency(e, assigned))
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		for _, ei := range g.Out[v] {
			if e := l.Edges[ei]; e.Distance == 0 {
				height[v] = max(height[v], height[e.To]+l.EdgeLatency(e, assigned))
			}
		}
	}
	return height, depth
}

// topoOrder returns the nodes in a topological order of the distance-0
// edges (Kahn's algorithm).
func topoOrder(g *ir.Graph) []int {
	n := len(g.Loop.Instrs)
	indeg := make([]int, n)
	for _, e := range g.Loop.Edges {
		if e.Distance == 0 {
			indeg[e.To]++
		}
	}
	order := make([]int, 0, n)
	for v, d := range indeg {
		if d == 0 {
			order = append(order, v)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, ei := range g.Out[order[i]] {
			if e := g.Loop.Edges[ei]; e.Distance == 0 {
				if indeg[e.To]--; indeg[e.To] == 0 {
					order = append(order, e.To)
				}
			}
		}
	}
	if len(order) < n {
		//ivliw:invariant ir.NewGraph builds a RecEngine for every cyclic SCC, and NewRecEngine panics on a distance-0 cycle, so the distance-0 edges of any graph reaching here are acyclic
		panic(fmt.Sprintf("sms: loop %s has a distance-0 cycle", g.Loop.Name))
	}
	return order
}
