// Package chains builds memory dependent chains (§4.3.2): groups of memory
// instructions connected by memory dependences. The interleaved-cache
// scheduling algorithm guarantees memory correctness by scheduling every
// instruction of a chain in the same cluster, because serialization of
// memory accesses is guaranteed within a cluster. Memory dependences in the
// DDG are conservative: they include both true dependences and unresolved
// (may-alias) dependences, as produced by IMPACT-style disambiguation.
package chains

import "ivliw/internal/ir"

// Chain is a maximal set of memory instructions connected (in either
// direction, at any dependence distance) by memory dependence edges.
type Chain struct {
	// ID is the dense chain index within the loop.
	ID int
	// Members are the member instruction IDs, sorted.
	Members []int
}

// Set is the chain decomposition of one loop.
type Set struct {
	// Chains lists all chains, including singleton memory instructions.
	Chains []Chain
	// chainOf maps an instruction ID to its chain ID (-1 for non-memory).
	chainOf []int
}

// Build computes the memory dependent chains of the loop by union-find over
// its memory dependence edges.
func Build(l *ir.Loop) *Set {
	parent := make([]int, len(l.Instrs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, e := range l.Edges {
		if e.Kind == ir.MemDep {
			union(e.From, e.To)
		}
	}

	// Chains are numbered in ascending order of their roots (a root is
	// the smallest instruction of its set). size[r] counts root r's
	// members and chainAt[r] is its chain; the members fill one flat
	// array, grouped by chain, each group in ID order.
	n := len(l.Instrs)
	ints := make([]int, 3*n)
	root, size, chainAt := ints[:n], ints[n:2*n], ints[2*n:]
	mems := 0
	for _, in := range l.Instrs {
		if in.IsMem() {
			root[in.ID] = find(in.ID)
			size[root[in.ID]]++
			mems++
		}
	}
	s := &Set{chainOf: make([]int, n)}
	members := make([]int, mems)
	lo := 0
	for r, k := range size {
		if k > 0 {
			chainAt[r] = len(s.Chains)
			s.Chains = append(s.Chains, Chain{ID: len(s.Chains), Members: members[lo : lo : lo+k]})
			lo += k
		}
	}
	for _, in := range l.Instrs {
		c := -1
		if in.IsMem() {
			c = chainAt[root[in.ID]]
			s.Chains[c].Members = append(s.Chains[c].Members, in.ID)
		}
		s.chainOf[in.ID] = c
	}
	return s
}

// ChainOf returns the chain ID of the instruction, or -1 for non-memory
// instructions.
func (s *Set) ChainOf(id int) int { return s.chainOf[id] }

// Len returns the number of members of the instruction's chain (0 for
// non-memory instructions).
func (s *Set) Len(id int) int {
	c := s.chainOf[id]
	if c < 0 {
		return 0
	}
	return len(s.Chains[c].Members)
}

// AveragePreferred returns the chain's average preferred cluster: the
// cluster maximizing the sum of the members' per-cluster access histograms
// (hist returns the access-count distribution of one instruction; nil or
// empty histograms contribute nothing). Ties resolve to the lowest cluster.
// Returns 0 if no member has profile information.
func (c Chain) AveragePreferred(clusters int, hist func(id int) []float64) int {
	sum := make([]float64, clusters)
	for _, m := range c.Members {
		h := hist(m)
		for i := 0; i < len(h) && i < clusters; i++ {
			sum[i] += h[i]
		}
	}
	best := 0
	for i := 1; i < clusters; i++ {
		if sum[i] > sum[best] {
			best = i
		}
	}
	return best
}
