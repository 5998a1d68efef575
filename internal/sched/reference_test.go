package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ivliw/internal/arch"
	"ivliw/internal/chains"
	"ivliw/internal/ir"
	"ivliw/internal/sms"
)

// The reference scheduler below is the retained pre-rewrite implementation,
// kept verbatim (only its identifiers renamed) so the tests can demand that
// Run produces the same Schedule — II, SC, MII, Place and Copies in order —
// on every input.

// refScheduler carries the per-attempt state.
type refScheduler struct {
	loop     *ir.Loop
	g        *ir.Graph
	cfg      arch.Config
	assigned []int
	order    []int
	opt      Options

	ii           int
	place        []Placement
	placed       []bool
	fu           [][]int // [cluster][fuKind*ii + slot] usage count
	bus          []int   // [slot] register-bus usage count
	copies       []Copy
	chainCluster map[int]int
}

// referenceRun is Run as the scheduler stood before its placement loop was
// made allocation-free: it rescans every loop edge per candidate cluster and
// builds each candidate-cycle list and copy plan afresh.
func referenceRun(l *ir.Loop, g *ir.Graph, cfg arch.Config, assigned []int, order []int, opt Options) (*Schedule, error) {
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
	for ii := mii; ii <= maxII; ii++ {
		s := &refScheduler{
			loop: l, g: g, cfg: cfg, assigned: assigned, order: order, opt: opt, ii: ii,
		}
		if sched, ok := s.attempt(); ok {
			sched.MII = mii
			return sched, nil
		}
	}
	return nil, fmt.Errorf("sched: no schedule for %s within II %d..%d", l.Name, mii, maxII)
}

// attempt tries to schedule every node at the current II.
func (s *refScheduler) attempt() (*Schedule, bool) {
	n := len(s.loop.Instrs)
	s.place = make([]Placement, n)
	s.placed = make([]bool, n)
	s.fu = make([][]int, s.cfg.Clusters)
	for c := range s.fu {
		s.fu[c] = make([]int, int(arch.NumFUKinds)*s.ii)
	}
	s.bus = make([]int, s.ii)
	s.copies = nil
	s.chainCluster = map[int]int{}

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
	return &Schedule{
		Loop:     s.loop,
		Assigned: s.assigned,
		II:       s.ii,
		SC:       maxCycle/s.ii + 1,
		Place:    s.place,
		Copies:   s.copies,
	}, true
}

// scheduleNode places one instruction, trying candidate clusters in
// preference order and cycles within an II-wide window: upward from the
// earliest start when predecessors are placed, downward from the latest
// start when only successors are (bottom-up sweeps of the swing order), and
// upward from cycle 0 for seeds.
func (s *refScheduler) scheduleNode(v int) bool {
	for _, c := range s.candidateClusters(v) {
		est, lst, hasPred, hasSucc, ok := s.window(v, c)
		if !ok {
			continue
		}
		var cycles []int
		switch {
		case hasPred:
			hi := est + s.ii - 1
			if hasSucc && lst < hi {
				hi = lst
			}
			for t := est; t <= hi; t++ {
				cycles = append(cycles, t)
			}
		case hasSucc:
			for t := lst; t > lst-s.ii; t-- {
				cycles = append(cycles, t)
			}
		default:
			for t := 0; t < s.ii; t++ {
				cycles = append(cycles, t)
			}
		}
		for _, t := range cycles {
			if s.tryPlace(v, c, t) {
				if ch := s.chainID(v); ch >= 0 {
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
func (s *refScheduler) chainID(v int) int {
	if s.opt.Heuristic == Base || s.opt.NoChains || !s.loop.Instrs[v].IsMem() {
		return -1
	}
	return s.opt.ChainOf(v)
}

// candidateClusters returns the clusters to try for v, most preferred first.
func (s *refScheduler) candidateClusters(v int) []int {
	in := s.loop.Instrs[v]

	// Chain-bound memory instructions have no choice.
	if ch := s.chainID(v); ch >= 0 {
		if c, bound := s.chainCluster[ch]; bound {
			return []int{c}
		}
		if s.opt.Heuristic == IPBC {
			return []int{s.opt.Preferred(v)}
		}
	} else if in.IsMem() && s.opt.Heuristic == IPBC {
		// NoChains ablation: free scheduling in the preferred cluster.
		return []int{s.opt.Preferred(v)}
	}

	// Order all clusters by (fewest new communications, best balance).
	type cand struct {
		c    int
		comm int // register-flow neighbors placed in other clusters
		load int // instructions already placed in c
	}
	cands := make([]cand, s.cfg.Clusters)
	loads := make([]int, s.cfg.Clusters)
	for i, p := range s.place {
		if s.placed[i] {
			loads[p.Cluster]++
		}
	}
	for c := 0; c < s.cfg.Clusters; c++ {
		comm := 0
		for _, e := range s.loop.Edges {
			if e.Kind != ir.RegFlow {
				continue
			}
			switch {
			case e.From == v && e.To != v && s.placed[e.To] && s.place[e.To].Cluster != c:
				comm++
			case e.To == v && e.From != v && s.placed[e.From] && s.place[e.From].Cluster != c:
				comm++
			}
		}
		cands[c] = cand{c: c, comm: comm, load: loads[c]}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].comm != cands[j].comm {
			return cands[i].comm < cands[j].comm
		}
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		return cands[i].c < cands[j].c
	})
	out := make([]int, len(cands))
	for i, cd := range cands {
		out[i] = cd.c
	}
	return out
}

// window computes the earliest and latest feasible issue cycle of v in
// cluster c from its already-placed neighbors, including inter-cluster
// communication latency on register-flow edges. Cycles may be negative;
// hasPred/hasSucc report whether any placed neighbor constrains each side.
func (s *refScheduler) window(v, c int) (est, lst int, hasPred, hasSucc, ok bool) {
	const inf = 1 << 30
	est, lst = -inf, inf
	for _, e := range s.loop.Edges {
		if e.To == v && e.From != v && s.placed[e.From] {
			if e.Kind == ir.RegAnti && s.place[e.From].Cluster != c {
				continue // different register files: no constraint
			}
			lat := s.loop.EdgeLatency(e, s.assigned)
			if e.Kind == ir.RegFlow && s.place[e.From].Cluster != c {
				lat += s.cfg.CommLatency()
			}
			if t := s.place[e.From].Cycle + lat - s.ii*e.Distance; t > est {
				est = t
			}
			hasPred = true
		}
		if e.From == v && e.To != v && s.placed[e.To] {
			if e.Kind == ir.RegAnti && s.place[e.To].Cluster != c {
				continue
			}
			lat := s.loop.EdgeLatency(e, s.assigned)
			if e.Kind == ir.RegFlow && s.place[e.To].Cluster != c {
				lat += s.cfg.CommLatency()
			}
			if t := s.place[e.To].Cycle - lat + s.ii*e.Distance; t < lst {
				lst = t
			}
			hasSucc = true
		}
	}
	return est, lst, hasPred, hasSucc, !(hasPred && hasSucc && est > lst)
}

// tryPlace attempts to commit v to (cluster c, cycle t): the functional unit
// must be free and every cross-cluster register-flow edge to an
// already-placed neighbor must find a bus slot. On success all reservations
// are made.
func (s *refScheduler) tryPlace(v, c, t int) bool {
	kind := ir.FUFor(s.loop.Instrs[v].Class)
	slot := int(kind)*s.ii + mod(t, s.ii)
	if s.fu[c][slot] >= s.cfg.FUsPerCluster[kind] {
		return false
	}

	// Plan the copies this placement needs.
	type plan struct{ copyOp Copy }
	var plans []plan
	busDelta := make(map[int]int)
	reserveBus := func(from, lo, hi int) (int, bool) {
		// Find the earliest start in [lo, hi] with a free bus for
		// BusCycleRatio consecutive modulo slots.
		for tc := lo; tc <= hi; tc++ {
			free := true
			for k := 0; k < s.cfg.BusCycleRatio; k++ {
				sl := mod(tc+k, s.ii)
				if s.bus[sl]+busDelta[sl] >= s.cfg.RegBuses {
					free = false
					break
				}
			}
			if free {
				for k := 0; k < s.cfg.BusCycleRatio; k++ {
					busDelta[mod(tc+k, s.ii)]++
				}
				return tc, true
			}
		}
		return 0, false
	}

	for _, e := range s.loop.Edges {
		if e.Kind != ir.RegFlow {
			continue
		}
		switch {
		case e.To == v && e.From != v && s.placed[e.From] && s.place[e.From].Cluster != c:
			p := e.From
			lo := s.place[p].Cycle + s.assigned[p] - s.ii*e.Distance
			hi := t - s.cfg.CommLatency()
			tc, ok := reserveBus(p, lo, hi)
			if !ok {
				return false
			}
			plans = append(plans, plan{Copy{From: p, To: v, FromCluster: s.place[p].Cluster, ToCluster: c, Cycle: tc}})
		case e.From == v && e.To != v && s.placed[e.To] && s.place[e.To].Cluster != c:
			cons := e.To
			lo := t + s.assigned[v]
			hi := s.place[cons].Cycle + s.ii*e.Distance - s.cfg.CommLatency()
			tc, ok := reserveBus(v, lo, hi)
			if !ok {
				return false
			}
			plans = append(plans, plan{Copy{From: v, To: cons, FromCluster: c, ToCluster: s.place[cons].Cluster, Cycle: tc}})
		}
	}

	// Commit.
	s.fu[c][slot]++
	for sl, d := range busDelta {
		s.bus[sl] += d
	}
	for _, p := range plans {
		s.copies = append(s.copies, p.copyOp)
	}
	s.place[v] = Placement{Cycle: t, Cluster: c}
	s.placed[v] = true
	return true
}

// scheduleDiff describes the first difference between Run's result and the
// reference's on the same input, or returns "" when they are identical:
// the same error, or the same II, SC, MII, Place and Copies in order.
func scheduleDiff(got, want *Schedule, gotErr, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
		}
		return ""
	}
	if reflect.DeepEqual(got, want) {
		return ""
	}
	if got.II != want.II || got.SC != want.SC || got.MII != want.MII {
		return fmt.Sprintf("II/SC/MII %d/%d/%d, reference %d/%d/%d", got.II, got.SC, got.MII, want.II, want.SC, want.MII)
	}
	for i := range want.Place {
		if got.Place[i] != want.Place[i] {
			return fmt.Sprintf("instr %d at %+v, reference %+v", i, got.Place[i], want.Place[i])
		}
	}
	for i, c := range want.Copies {
		if i < len(got.Copies) && got.Copies[i] != c {
			return fmt.Sprintf("copy %d is %+v, reference %+v", i, got.Copies[i], c)
		}
	}
	return fmt.Sprintf("%d copies (nil %t), reference %d (nil %t)",
		len(got.Copies), got.Copies == nil, len(want.Copies), want.Copies == nil)
}

// TestRunMatchesReferenceOnSuite pins Run to the reference scheduler on every
// loop and unroll candidate the paper's figure configurations compile, and
// runs the schedule verifier on each result.
func TestRunMatchesReferenceOnSuite(t *testing.T) {
	for _, sc := range figureConfigs() {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			schedules, copies := 0, 0
			for _, in := range suiteInputs(sc) {
				got, gotErr := in.run()
				want, wantErr := in.runReference()
				if d := scheduleDiff(got, want, gotErr, wantErr); d != "" {
					t.Fatalf("%s: %s", in.name, d)
				}
				if gotErr != nil {
					t.Fatalf("%s: %v", in.name, gotErr)
				}
				verify(t, got, in.cfg)
				schedules++
				copies += len(got.Copies)
			}
			t.Logf("%d schedules, %d copies", schedules, copies)
		})
	}
}

// randomLoop builds a seeded loop with the shapes the suite lacks:
// loop-carried flow edges back to earlier nodes, self edges, parallel edges
// between one pair, tight recurrence rings, and hub nodes with flow edges
// on both sides.
func randomLoop(rng *rand.Rand) *ir.Loop {
	n := 3 + rng.Intn(22)
	b := ir.NewBuilder("rand", 100, 1)
	var mems []int
	for i := 0; i < n; i++ {
		m := ir.MemInfo{Sym: "a", Offset: int64(4 * i), Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096}
		switch rng.Intn(6) {
		case 0:
			mems = append(mems, b.Load("ld", m))
		case 1:
			mems = append(mems, b.Store("st", m))
		case 2:
			b.Op("fp", ir.OpFPALU)
		case 3:
			b.Op("mul", ir.OpMul)
		default:
			b.Op("op", ir.OpIntALU)
		}
	}
	// Distance-0 edges only run forward, so every cycle is loop-carried.
	density := 0.05 + 0.2*rng.Float64()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				b.Flow(i, j)
				if rng.Intn(6) == 0 {
					b.FlowD(i, j, rng.Intn(2))
				}
			}
			if rng.Float64() < density/3 {
				b.FlowD(j, i, 1+rng.Intn(3))
			}
			if rng.Float64() < density/4 {
				b.Anti(i, j, 0)
			}
		}
		if rng.Intn(6) == 0 {
			b.FlowD(i, i, 1+rng.Intn(2))
		}
	}
	// A ring i < j < k closed by a distance-1 edge is a recurrence whose
	// last placed node has both neighbours placed.
	if i, j, k := rng.Intn(n), rng.Intn(n), rng.Intn(n); i < j && j < k {
		b.Flow(i, j).Flow(j, k).FlowD(k, i, 1)
	}
	for k := rng.Intn(3); k > 0; k-- {
		hub := rng.Intn(n)
		for d := 0; d < 3; d++ {
			if p := rng.Intn(n); p < hub {
				b.Flow(p, hub)
			} else if p > hub {
				b.FlowD(p, hub, 1)
			}
			if s := rng.Intn(n); s > hub {
				b.Flow(hub, s)
			} else if s < hub {
				b.FlowD(hub, s, 1+rng.Intn(2))
			}
		}
	}
	for k := 0; k+1 < len(mems); k++ {
		if rng.Intn(3) == 0 {
			b.MemEdge(mems[k], mems[k+1], 0)
		}
	}
	return b.MustBuild()
}

// TestRunMatchesReferenceOnRandomLoops pins Run to the reference scheduler on
// seeded random loops with tight register buses, random latencies and
// preferred clusters, under every heuristic with and without chains, on 2, 4
// and 8 clusters, with swing and naive node orders.
func TestRunMatchesReferenceOnRandomLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	lats := []int{1, 2, 5, 10, 15}
	runs, aliased, copies := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		l := randomLoop(rng)
		g := ir.NewGraph(l)
		cfg := arch.Default()
		cfg.Clusters = []int{2, 4, 8}[rng.Intn(3)]
		cfg.RegBuses = 1 + rng.Intn(2)
		cfg.BusCycleRatio = 1 + rng.Intn(3)
		assigned := l.DefaultLatencies(15)
		for _, id := range l.MemInstrs() {
			if l.Instrs[id].IsLoad() {
				assigned[id] = lats[rng.Intn(len(lats))]
			}
		}
		order := sms.Order(g, assigned)
		if rng.Intn(4) == 0 {
			for i := range order {
				order[i] = i
			}
		}
		pref := make([]int, len(l.Instrs))
		for i := range pref {
			pref[i] = rng.Intn(cfg.Clusters)
		}
		cs := chains.Build(l)
		// Some placements fail at every II; a short budget keeps those cheap.
		maxII := ir.MII(g, cfg, assigned) + 24
		for _, h := range []Heuristic{Base, IBC, IPBC} {
			for _, noChains := range []bool{false, true} {
				in := runInput{
					name: fmt.Sprintf("trial %d %v noChains=%t (%d clusters, %d buses, ratio %d)",
						trial, h, noChains, cfg.Clusters, cfg.RegBuses, cfg.BusCycleRatio),
					loop: l, g: g, cfg: cfg, assigned: assigned, order: order,
					opt: Options{
						Heuristic: h, NoChains: noChains, ChainOf: cs.ChainOf, MaxII: maxII,
						Preferred: func(id int) int { return pref[id] },
					},
				}
				got, gotErr := in.run()
				want, wantErr := in.runReference()
				if d := scheduleDiff(got, want, gotErr, wantErr); d != "" {
					t.Fatalf("%s: %s", in.name, d)
				}
				if gotErr != nil {
					continue
				}
				verifyPlacement(t, got, cfg)
				// A copy that outlasts the II may overuse its bus: the
				// known defect TestBusOveruseWhenCopyOutlastsII pins.
				if got.II >= cfg.BusCycleRatio {
					verifyBuses(t, got, cfg)
				} else {
					aliased++
				}
				runs++
				copies += len(got.Copies)
			}
		}
	}
	t.Logf("%d schedules (%d with II below BusCycleRatio), %d copies", runs, aliased, copies)
}

// TestBusOveruseWhenCopyOutlastsII pins a known defect that Run shares with
// the reference scheduler. A copy holds its bus for BusCycleRatio cycles;
// when that exceeds the II, the copy takes one modulo slot more than once,
// but each slot is checked against the bus count before any of the copy's
// own uses. The paper's machine (ratio 2, 4 buses) never overuses a bus this
// way. A fix changes schedules, so it must update this test and the
// reference together.
func TestBusOveruseWhenCopyOutlastsII(t *testing.T) {
	cfg := arch.Default()
	cfg.RegBuses, cfg.BusCycleRatio = 1, 2
	b := ir.NewBuilder("alias", 100, 1)
	m := ir.MemInfo{Sym: "a", Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096}
	ld := b.Load("ld", m)
	st := b.Store("st", m)
	b.Flow(ld, st)
	l := b.MustBuild()
	g := ir.NewGraph(l)
	assigned := l.DefaultLatencies(1)
	in := runInput{
		loop: l, g: g, cfg: cfg, assigned: assigned, order: sms.Order(g, assigned),
		opt: Options{Heuristic: IPBC, NoChains: true, Preferred: func(id int) int { return id }},
	}
	got, gotErr := in.run()
	want, wantErr := in.runReference()
	if d := scheduleDiff(got, want, gotErr, wantErr); d != "" {
		t.Fatal(d)
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	verifyPlacement(t, got, cfg)
	if got.II != 1 || len(got.Copies) != 1 {
		t.Fatalf("II %d with %d copies, want the load→store copy at II 1", got.II, len(got.Copies))
	}
	// Both cycles of the one copy fall in modulo slot 0 of the one bus.
	uses := 0
	for k := 0; k < cfg.BusCycleRatio; k++ {
		if mod(got.Copies[0].Cycle+k, got.II) == 0 {
			uses++
		}
	}
	if uses <= cfg.RegBuses {
		t.Errorf("slot 0 carries %d copy cycles on %d buses: the overuse is gone", uses, cfg.RegBuses)
	}
}
