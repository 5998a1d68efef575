// Package sched implements the cluster-assigning modulo scheduler of §4.2
// and §4.3.1 Step 4: instructions are taken in swing order and inserted in
// the partial schedule without backtracking; the set of candidate clusters
// is ordered to minimize register-to-register communications and balance the
// workload; memory instructions follow one of the paper's heuristics:
//
//   - BASE: the unified-cache algorithm — memory instructions are placed
//     like any other instruction (the cache is equally distant from every
//     cluster).
//   - IBC (Interleaved Build Chains): a memory dependent chain is bound to
//     whatever cluster minimizes communications for the *first* member
//     scheduled; the remaining members follow it.
//   - IPBC (Interleaved Pre-Build Chains): chains are computed before
//     scheduling and every member goes to the chain's average preferred
//     cluster (from profiling).
//
// Inter-cluster register flow dependences get explicit copy operations that
// occupy one of the register-to-register buses for BusCycleRatio consecutive
// cycles of the modulo reservation table and add CommLatency cycles before
// the consumer may issue. If any instruction cannot be placed, the II is
// increased and scheduling restarts (iterative modulo scheduling).
package sched

import (
	"fmt"
	"slices"

	"ivliw/internal/arch"
	"ivliw/internal/ir"
)

// Heuristic selects the cluster-assignment policy for memory instructions.
type Heuristic int

const (
	// Base treats memory instructions like any other instruction and is
	// the algorithm used for unified-cache and multiVLIW machines.
	Base Heuristic = iota
	// IBC builds a chain's cluster binding when its first member is
	// scheduled (minimizing communications).
	IBC
	// IPBC pre-binds every chain to its average preferred cluster.
	IPBC
)

// String returns the heuristic name used in figures.
func (h Heuristic) String() string {
	switch h {
	case Base:
		return "BASE"
	case IBC:
		return "IBC"
	case IPBC:
		return "IPBC"
	}
	return fmt.Sprintf("Heuristic(%d)", int(h))
}

// Options configures one scheduling run.
type Options struct {
	// Heuristic is the memory cluster-assignment policy.
	Heuristic Heuristic
	// ChainOf maps instruction IDs to chain IDs (-1 for non-memory).
	// Required for IBC and IPBC unless NoChains is set.
	ChainOf func(id int) int
	// Preferred maps a memory instruction ID to its target cluster under
	// IPBC (already averaged over its chain by the caller). Ignored by
	// BASE and IBC.
	Preferred func(id int) int
	// NoChains disables the chain constraint (the Figure 4/7 ablation
	// "without memory dependent chains": memory instructions are freely
	// scheduled in their preferred cluster).
	NoChains bool
	// MaxII bounds the II search; 0 means MII + 256.
	MaxII int
}

// Placement locates one instruction in the schedule.
type Placement struct {
	// Cycle is the absolute issue cycle within the flat schedule.
	Cycle int
	// Cluster is the executing cluster.
	Cluster int
}

// Copy is an explicit inter-cluster register communication.
type Copy struct {
	// From and To are the producer and consumer instruction IDs.
	From, To int
	// FromCluster and ToCluster are the endpoints.
	FromCluster, ToCluster int
	// Cycle is the absolute cycle the transfer starts.
	Cycle int
}

// Schedule is a complete modulo schedule of one loop.
type Schedule struct {
	// Loop is the scheduled loop.
	Loop *ir.Loop
	// Assigned is the latency vector the schedule was built against.
	Assigned []int
	// II is the initiation interval.
	II int
	// SC is the stage count (number of overlapped iterations).
	SC int
	// Place locates each instruction (indexed by ID).
	Place []Placement
	// Copies are the inserted inter-cluster communications.
	Copies []Copy
	// MII is the lower bound the search started from.
	MII int
}

// WorkloadBalance returns the §5.2 balance metric of the schedule:
// instructions in the most loaded cluster over total instructions, a value
// in [1/N, 1] where 1/N is perfect balance.
func (s *Schedule) WorkloadBalance(clusters int) float64 {
	if len(s.Place) == 0 {
		return 0
	}
	counts := make([]int, clusters)
	for _, p := range s.Place {
		counts[p.Cluster]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / float64(len(s.Place))
}

// ConsumerSlack returns, for a memory instruction, the number of cycles
// between its issue and the earliest dependent register-flow consumer, in
// schedule time (II-adjusted for loop-carried edges). This is the latency
// the hardware can tolerate before stalling. Returns (slack, false) when the
// instruction has no register-flow consumer (e.g. stores), meaning it never
// stalls the pipeline.
func (s *Schedule) ConsumerSlack(id int) (int, bool) {
	slack, found := 0, false
	for _, e := range s.Loop.Edges {
		if e.Kind != ir.RegFlow || e.From != id {
			continue
		}
		d := s.Place[e.To].Cycle + s.II*e.Distance - s.Place[id].Cycle
		if !found || d < slack {
			slack, found = d, true
		}
	}
	return slack, found
}

// scheduler carries the state of one Run. flow is built once; the
// reservation tables and scratch buffers are reset per II attempt and
// reused, so placing a node allocates nothing once they have grown.
type scheduler struct {
	loop     *ir.Loop
	g        *ir.Graph
	cfg      arch.Config
	assigned []int
	order    []int
	opt      Options
	// flow[v] lists v's non-self register-flow edges as indices into
	// loop.Edges, ascending: the order copies are planned in.
	flow [][]int

	ii           int
	place        []Placement
	placed       []bool
	fu           []int // [(cluster*NumFUKinds + fuKind)*ii + slot] usage count
	bus          []int // [slot] register-bus usage count
	copies       []Copy
	chainCluster map[int]int
	load         []int // [cluster] instructions placed in the cluster

	near     []int // [cluster] placed flow neighbours of the node in the cluster
	cands    []int // candidate clusters of the node, most preferred first
	reserved []int // bus slots taken by the copies planned so far
}

// Run schedules the loop: the node order must come from sms.Order over the
// same latency assignment. It returns an error only if no feasible schedule
// exists within the II budget.
func Run(l *ir.Loop, g *ir.Graph, cfg arch.Config, assigned []int, order []int, opt Options) (*Schedule, error) {
	if opt.ChainOf == nil {
		opt.ChainOf = func(int) int { return -1 }
	}
	if opt.Preferred == nil {
		opt.Preferred = func(int) int { return 0 }
	}
	mii := ir.MII(g, cfg, assigned)
	maxII := opt.MaxII
	if maxII <= 0 {
		maxII = mii + 256
	}
	s := newScheduler(l, g, cfg, assigned, order, opt)
	for ii := mii; ii <= maxII; ii++ {
		if sched, ok := s.attempt(ii); ok {
			sched.MII = mii
			return sched, nil
		}
	}
	return nil, fmt.Errorf("sched: no schedule for %s within II %d..%d", l.Name, mii, maxII)
}

func newScheduler(l *ir.Loop, g *ir.Graph, cfg arch.Config, assigned []int, order []int, opt Options) *scheduler {
	n := len(l.Instrs)
	s := &scheduler{
		loop: l, g: g, cfg: cfg, assigned: assigned, order: order, opt: opt,
		flow:         make([][]int, n),
		place:        make([]Placement, n),
		placed:       make([]bool, n),
		chainCluster: map[int]int{},
		load:         make([]int, cfg.Clusters),
		near:         make([]int, cfg.Clusters),
		cands:        make([]int, 0, cfg.Clusters),
	}
	// A non-self edge is in exactly one of In[v] and Out[v], both ascending;
	// merging them yields v's flow edges in global edge order. Each flow
	// edge is listed at both of its endpoints.
	flows := 0
	for _, e := range l.Edges {
		if e.Kind == ir.RegFlow && e.From != e.To {
			flows++
		}
	}
	buf := make([]int, 0, 2*flows)
	for v := range n {
		start := len(buf)
		in, out := g.In[v], g.Out[v]
		for len(in) > 0 || len(out) > 0 {
			var ei int
			if len(out) == 0 || len(in) > 0 && in[0] < out[0] {
				ei, in = in[0], in[1:]
			} else {
				ei, out = out[0], out[1:]
			}
			if e := &l.Edges[ei]; e.Kind == ir.RegFlow && e.From != e.To {
				buf = append(buf, ei)
			}
		}
		s.flow[v] = buf[start:len(buf):len(buf)]
	}
	return s
}

// attempt tries to schedule every node at the given II.
func (s *scheduler) attempt(ii int) (*Schedule, bool) {
	s.ii = ii
	clear(s.place)
	clear(s.placed)
	s.fu = zeroed(s.fu, s.cfg.Clusters*int(arch.NumFUKinds)*ii)
	s.bus = zeroed(s.bus, ii)
	s.copies = s.copies[:0]
	clear(s.chainCluster)
	clear(s.load)

	for _, v := range s.order {
		if !s.scheduleNode(v) {
			return nil, false
		}
	}
	// Bottom-up placement can produce negative cycles; normalize so the
	// schedule starts at a stage boundary (shifting by a multiple of II
	// keeps the modulo reservation tables valid).
	minCycle, maxCycle := s.place[s.order[0]].Cycle, s.place[s.order[0]].Cycle
	for _, p := range s.place {
		if p.Cycle < minCycle {
			minCycle = p.Cycle
		}
		if p.Cycle > maxCycle {
			maxCycle = p.Cycle
		}
	}
	shift := 0
	for minCycle+shift < 0 {
		shift += s.ii
	}
	if shift > 0 {
		for i := range s.place {
			s.place[i].Cycle += shift
		}
		for i := range s.copies {
			s.copies[i].Cycle += shift
		}
		maxCycle += shift
	}
	if len(s.copies) == 0 {
		s.copies = nil // a schedule without copies has nil Copies
	}
	return &Schedule{
		Loop:     s.loop,
		Assigned: s.assigned,
		II:       s.ii,
		SC:       maxCycle/s.ii + 1,
		Place:    s.place,
		Copies:   s.copies,
	}, true
}

// zeroed returns buf resized to n zero entries. It grows the capacity as
// append does, so the attempts of one Run, whose sizes rise with the II,
// reallocate only a few times.
func zeroed(buf []int, n int) []int {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// scheduleNode places one instruction, trying candidate clusters in
// preference order and cycles within an II-wide window: upward from the
// earliest start when predecessors are placed (capped by the latest start
// when successors are too), downward from the latest start when only
// successors are (bottom-up sweeps of the swing order), and upward from
// cycle 0 for seeds.
func (s *scheduler) scheduleNode(v int) bool {
	ch := s.chainID(v)
	for _, c := range s.candidateClusters(v, ch) {
		est, lst, hasPred, hasSucc, ok := s.window(v, c)
		if !ok {
			continue
		}
		first, step, tries := 0, 1, s.ii
		switch {
		case hasPred:
			first = est
			if hasSucc && lst-est+1 < tries {
				tries = lst - est + 1
			}
		case hasSucc:
			first, step = lst, -1
		}
		for k := 0; k < tries; k++ {
			if s.tryPlace(v, c, first+step*k) {
				if ch >= 0 {
					if _, bound := s.chainCluster[ch]; !bound {
						s.chainCluster[ch] = c
					}
				}
				return true
			}
		}
	}
	return false
}

// chainID returns the chain of v if chain constraints apply to it.
func (s *scheduler) chainID(v int) int {
	if s.opt.Heuristic == Base || s.opt.NoChains || !s.loop.Instrs[v].IsMem() {
		return -1
	}
	return s.opt.ChainOf(v)
}

// candidateClusters returns the clusters to try for v (whose chain is ch),
// most preferred first. The slice is reused by the next call.
func (s *scheduler) candidateClusters(v, ch int) []int {
	cands := s.cands[:0]
	// Chain-bound memory instructions have no choice.
	if ch >= 0 {
		if c, bound := s.chainCluster[ch]; bound {
			return append(cands, c)
		}
		if s.opt.Heuristic == IPBC {
			return append(cands, s.opt.Preferred(v))
		}
	} else if s.loop.Instrs[v].IsMem() && s.opt.Heuristic == IPBC {
		// NoChains ablation: free scheduling in the preferred cluster.
		return append(cands, s.opt.Preferred(v))
	}

	// Order all clusters by (fewest new communications, best balance,
	// index). The communications of cluster c are v's flow edges to placed
	// neighbours outside c, so fewest communications is most near[c].
	clear(s.near)
	for _, ei := range s.flow[v] {
		e := &s.loop.Edges[ei]
		u := e.From
		if u == v {
			u = e.To
		}
		if s.placed[u] {
			s.near[s.place[u].Cluster]++
		}
	}
	for c := 0; c < s.cfg.Clusters; c++ {
		i := len(cands)
		cands = append(cands, c)
		for ; i > 0 && s.preferred(c, cands[i-1]); i-- {
			cands[i] = cands[i-1]
		}
		cands[i] = c
	}
	return cands
}

// preferred reports whether cluster a orders before cluster b: more placed
// flow neighbours, then fewer instructions, then the lower index.
func (s *scheduler) preferred(a, b int) bool {
	if s.near[a] != s.near[b] {
		return s.near[a] > s.near[b]
	}
	if s.load[a] != s.load[b] {
		return s.load[a] < s.load[b]
	}
	return a < b
}

// window computes the earliest and latest feasible issue cycle of v in
// cluster c from its already-placed neighbors, including inter-cluster
// communication latency on register-flow edges. Cycles may be negative;
// hasPred/hasSucc report whether any placed neighbor constrains each side.
func (s *scheduler) window(v, c int) (est, lst int, hasPred, hasSucc, ok bool) {
	const inf = 1 << 30
	est, lst = -inf, inf
	for _, ei := range s.g.In[v] {
		e := s.loop.Edges[ei]
		if e.From == v || !s.placed[e.From] {
			continue
		}
		cross := s.place[e.From].Cluster != c
		if e.Kind == ir.RegAnti && cross {
			continue // different register files: no constraint
		}
		lat := s.loop.EdgeLatency(e, s.assigned)
		if e.Kind == ir.RegFlow && cross {
			lat += s.cfg.CommLatency()
		}
		est = max(est, s.place[e.From].Cycle+lat-s.ii*e.Distance)
		hasPred = true
	}
	for _, ei := range s.g.Out[v] {
		e := s.loop.Edges[ei]
		if e.To == v || !s.placed[e.To] {
			continue
		}
		cross := s.place[e.To].Cluster != c
		if e.Kind == ir.RegAnti && cross {
			continue
		}
		lat := s.loop.EdgeLatency(e, s.assigned)
		if e.Kind == ir.RegFlow && cross {
			lat += s.cfg.CommLatency()
		}
		lst = min(lst, s.place[e.To].Cycle-lat+s.ii*e.Distance)
		hasSucc = true
	}
	return est, lst, hasPred, hasSucc, !(hasPred && hasSucc && est > lst)
}

// tryPlace attempts to commit v to (cluster c, cycle t): the functional unit
// must be free and every cross-cluster register-flow edge to an
// already-placed neighbor must find a bus slot. Copies are planned in edge
// order, each reserving its bus slots before the next is planned; on
// success all reservations stand, on failure all are undone.
func (s *scheduler) tryPlace(v, c, t int) bool {
	kind := ir.FUFor(s.loop.Instrs[v].Class)
	slot := (c*int(arch.NumFUKinds)+int(kind))*s.ii + mod(t, s.ii)
	if s.fu[slot] >= s.cfg.FUsPerCluster[kind] {
		return false
	}

	s.reserved = s.reserved[:0]
	planned := len(s.copies)
	for _, ei := range s.flow[v] {
		e := &s.loop.Edges[ei]
		var cp Copy
		var lo, hi int
		if e.To == v {
			p := e.From
			if !s.placed[p] || s.place[p].Cluster == c {
				continue
			}
			cp = Copy{From: p, To: v, FromCluster: s.place[p].Cluster, ToCluster: c}
			lo = s.place[p].Cycle + s.assigned[p] - s.ii*e.Distance
			hi = t - s.cfg.CommLatency()
		} else {
			cons := e.To
			if !s.placed[cons] || s.place[cons].Cluster == c {
				continue
			}
			cp = Copy{From: v, To: cons, FromCluster: c, ToCluster: s.place[cons].Cluster}
			lo = t + s.assigned[v]
			hi = s.place[cons].Cycle + s.ii*e.Distance - s.cfg.CommLatency()
		}
		tc, ok := s.reserveBus(lo, hi)
		if !ok {
			for _, sl := range s.reserved {
				s.bus[sl]--
			}
			s.copies = s.copies[:planned]
			return false
		}
		cp.Cycle = tc
		s.copies = append(s.copies, cp)
	}

	s.fu[slot]++
	s.place[v] = Placement{Cycle: t, Cluster: c}
	s.placed[v] = true
	s.load[c]++
	return true
}

// reserveBus takes the earliest start in [lo, hi] with a free register bus
// for BusCycleRatio consecutive modulo slots and records the slots in
// s.reserved. Bus occupancy repeats every II cycles, so no start past
// lo+II-1 can be free when none before it is.
func (s *scheduler) reserveBus(lo, hi int) (int, bool) {
	for tc := lo; tc <= min(hi, lo+s.ii-1); tc++ {
		free := true
		for k := 0; k < s.cfg.BusCycleRatio; k++ {
			if s.bus[mod(tc+k, s.ii)] >= s.cfg.RegBuses {
				free = false
				break
			}
		}
		if free {
			for k := 0; k < s.cfg.BusCycleRatio; k++ {
				sl := mod(tc+k, s.ii)
				s.bus[sl]++
				s.reserved = append(s.reserved, sl)
			}
			return tc, true
		}
	}
	return 0, false
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
