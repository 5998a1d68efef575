package sched

import (
	"math/rand"
	"testing"

	"ivliw/internal/arch"
	"ivliw/internal/chains"
	"ivliw/internal/ir"
	"ivliw/internal/paperex"
	"ivliw/internal/sms"
)

// verify checks every structural invariant of a schedule: II at least MII,
// all instructions placed, modulo FU capacity respected, dependence
// constraints met (with communication latency on cross-cluster flow edges),
// exactly one copy per cross-cluster flow edge, and register-bus capacity
// respected.
func verify(t *testing.T, s *Schedule, cfg arch.Config) {
	t.Helper()
	verifyPlacement(t, s, cfg)
	verifyBuses(t, s, cfg)
}

// verifyPlacement checks every invariant verify does except register-bus
// capacity.
func verifyPlacement(t *testing.T, s *Schedule, cfg arch.Config) {
	t.Helper()
	l := s.Loop
	if s.II < 1 || s.SC < 1 {
		t.Fatalf("II=%d SC=%d", s.II, s.SC)
	}
	if s.II < s.MII {
		t.Errorf("II %d below MII %d", s.II, s.MII)
	}
	// FU capacity per modulo slot.
	type key struct{ cluster, kind, slot int }
	fu := map[key]int{}
	for id, p := range s.Place {
		if p.Cluster < 0 || p.Cluster >= cfg.Clusters {
			t.Fatalf("instr %d in cluster %d", id, p.Cluster)
		}
		k := key{p.Cluster, int(ir.FUFor(l.Instrs[id].Class)), p.Cycle % s.II}
		fu[k]++
		if fu[k] > cfg.FUsPerCluster[arch.FUKind(k.kind)] {
			t.Errorf("FU overuse at %+v", k)
		}
	}
	// Dependences. The copies of one producer/consumer pair serve the
	// pair's cross-cluster flow edges in edge order, one copy per edge.
	copiesOf := map[[2]int][]Copy{}
	for _, c := range s.Copies {
		k := [2]int{c.From, c.To}
		copiesOf[k] = append(copiesOf[k], c)
	}
	for _, e := range l.Edges {
		from, to := s.Place[e.From], s.Place[e.To]
		lat := l.EdgeLatency(e, s.Assigned)
		cross := from.Cluster != to.Cluster
		if e.Kind == ir.RegAnti && cross {
			continue
		}
		need := lat
		if e.Kind == ir.RegFlow && cross && e.From != e.To {
			need += cfg.CommLatency()
			k := [2]int{e.From, e.To}
			if len(copiesOf[k]) == 0 {
				t.Errorf("missing copy for cross-cluster flow edge %d→%d", e.From, e.To)
				continue
			}
			c := copiesOf[k][0]
			copiesOf[k] = copiesOf[k][1:]
			if c.FromCluster != from.Cluster || c.ToCluster != to.Cluster {
				t.Errorf("copy %d→%d runs cluster %d→%d, want %d→%d", e.From, e.To, c.FromCluster, c.ToCluster, from.Cluster, to.Cluster)
			}
			if c.Cycle < from.Cycle+s.Assigned[e.From]-s.II*e.Distance {
				t.Errorf("copy %d→%d starts at %d before value ready", e.From, e.To, c.Cycle)
			}
			if c.Cycle+cfg.CommLatency() > to.Cycle+s.II*e.Distance {
				t.Errorf("copy %d→%d arrives after consumer issues", e.From, e.To)
			}
		}
		if e.From == e.To {
			if lat > s.II*e.Distance {
				t.Errorf("self edge on %d violated: lat %d > II*dist %d", e.From, lat, s.II*e.Distance)
			}
			continue
		}
		if to.Cycle-from.Cycle+s.II*e.Distance < need {
			t.Errorf("edge %d→%d (%v,d=%d) violated: slack %d < %d",
				e.From, e.To, e.Kind, e.Distance, to.Cycle-from.Cycle+s.II*e.Distance, need)
		}
	}
	for k, cs := range copiesOf {
		if len(cs) > 0 {
			t.Errorf("%d copies %d→%d serve no cross-cluster flow edge", len(cs), k[0], k[1])
		}
	}
}

// verifyBuses checks that no modulo slot carries more copies than there are
// register buses.
func verifyBuses(t *testing.T, s *Schedule, cfg arch.Config) {
	t.Helper()
	bus := make([]int, s.II)
	for _, c := range s.Copies {
		for k := 0; k < cfg.BusCycleRatio; k++ {
			bus[((c.Cycle+k)%s.II+s.II)%s.II]++
		}
	}
	for slot, n := range bus {
		if n > cfg.RegBuses {
			t.Errorf("bus overuse at modulo slot %d: %d > %d", slot, n, cfg.RegBuses)
		}
	}
}

func schedulePaper(t *testing.T, h Heuristic, noChains bool) (*Schedule, paperex.Nodes) {
	t.Helper()
	l, n := paperex.Loop()
	g := ir.NewGraph(l)
	cfg := arch.Default()
	assigned := l.DefaultLatencies(15)
	assigned[n.N1], assigned[n.N2], assigned[n.N6] = 4, 1, 1
	order := sms.Order(g, assigned)
	cs := chains.Build(l)
	pref := paperex.PreferredClusters(n)
	chainPref := map[int]int{}
	for _, c := range cs.Chains {
		votes := make([]float64, cfg.Clusters)
		for _, m := range c.Members {
			votes[pref[m]]++
		}
		best := 0
		for i := range votes {
			if votes[i] > votes[best] {
				best = i
			}
		}
		for _, m := range c.Members {
			chainPref[m] = best
		}
	}
	s, err := Run(l, g, cfg, assigned, order, Options{
		Heuristic: h,
		NoChains:  noChains,
		ChainOf:   cs.ChainOf,
		Preferred: func(id int) int { return chainPref[id] },
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, s, cfg)
	return s, n
}

// TestPaperExampleIPBC: with IPBC, n6 goes to its preferred cluster 1 and
// the chain n1, n2, n4 to its average preferred cluster 0 (§4.3.3).
func TestPaperExampleIPBC(t *testing.T) {
	s, n := schedulePaper(t, IPBC, false)
	if s.II != 8 {
		t.Errorf("II = %d, want 8 (the recurrence-bound MII)", s.II)
	}
	for _, id := range []int{n.N1, n.N2, n.N4} {
		if got := s.Place[id].Cluster; got != 0 {
			t.Errorf("chain member %d in cluster %d, want 0", id, got)
		}
	}
	if got := s.Place[n.N6].Cluster; got != 1 {
		t.Errorf("n6 in cluster %d, want its preferred cluster 1", got)
	}
}

// TestPaperExampleIBC: with IBC, chain members share one cluster (whichever
// minimizes communications) — and REC1's instructions cluster together.
func TestPaperExampleIBC(t *testing.T) {
	s, n := schedulePaper(t, IBC, false)
	c := s.Place[n.N1].Cluster
	for _, id := range []int{n.N2, n.N4} {
		if s.Place[id].Cluster != c {
			t.Errorf("IBC chain split: n1 in %d, %d in %d", c, id, s.Place[id].Cluster)
		}
	}
	// IBC minimizes communications: REC1's dataflow ops land with the
	// chain.
	if s.Place[n.N3].Cluster != c {
		t.Errorf("n3 in cluster %d, want %d (with its producers/consumers)", s.Place[n.N3].Cluster, c)
	}
}

// TestPaperExampleNoChains: the ablation frees each memory instruction to
// its own preferred cluster: n4 may leave the chain's cluster.
func TestPaperExampleNoChains(t *testing.T) {
	l, n := paperex.Loop()
	g := ir.NewGraph(l)
	cfg := arch.Default()
	assigned := l.DefaultLatencies(15)
	assigned[n.N1], assigned[n.N2], assigned[n.N6] = 4, 1, 1
	order := sms.Order(g, assigned)
	pref := paperex.PreferredClusters(n)
	s, err := Run(l, g, cfg, assigned, order, Options{
		Heuristic: IPBC,
		NoChains:  true,
		Preferred: func(id int) int { return pref[id] },
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, s, cfg)
	if got := s.Place[n.N4].Cluster; got != 1 {
		t.Errorf("n4 in cluster %d, want its own preferred cluster 1", got)
	}
	if got := s.Place[n.N1].Cluster; got != 0 {
		t.Errorf("n1 in cluster %d, want 0", got)
	}
}

// TestResourceLimitedII: 9 independent memory ops on 4 single-memory-unit
// clusters force II >= 3.
func TestResourceLimitedII(t *testing.T) {
	cfg := arch.Default()
	b := ir.NewBuilder("mem9", 100, 1)
	for i := 0; i < 9; i++ {
		b.Load("ld", ir.MemInfo{Sym: "a", Offset: int64(64 * i), Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
	}
	l := b.MustBuild()
	g := ir.NewGraph(l)
	assigned := l.DefaultLatencies(15)
	s, err := Run(l, g, cfg, assigned, sms.Order(g, assigned), Options{Heuristic: Base})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, s, cfg)
	if s.II < 3 {
		t.Errorf("II = %d, want >= 3 (9 mem ops / 4 units)", s.II)
	}
}

// TestIPBCSingleClusterPressure: forcing many memory ops into one preferred
// cluster inflates the II beyond the machine-wide ResMII — the compute-time
// cost of IPBC the paper describes for jpegenc loop 67.
func TestIPBCSingleClusterPressure(t *testing.T) {
	cfg := arch.Default()
	b := ir.NewBuilder("hot", 100, 1)
	var ids []int
	for i := 0; i < 6; i++ {
		ids = append(ids, b.Load("ld", ir.MemInfo{Sym: "a", Offset: int64(16 * i), Stride: 16, StrideKnown: true, Gran: 4, SymBytes: 4096}))
	}
	l := b.MustBuild()
	g := ir.NewGraph(l)
	assigned := l.DefaultLatencies(15)
	order := sms.Order(g, assigned)
	sBase, err := Run(l, g, cfg, assigned, order, Options{Heuristic: Base})
	if err != nil {
		t.Fatal(err)
	}
	sIPBC, err := Run(l, g, cfg, assigned, order, Options{
		Heuristic: IPBC,
		NoChains:  true,
		Preferred: func(id int) int { return 0 }, // all prefer cluster 0
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, sBase, cfg)
	verify(t, sIPBC, cfg)
	if sIPBC.II < 6 {
		t.Errorf("IPBC II = %d, want >= 6 (6 loads on one memory unit)", sIPBC.II)
	}
	if sBase.II >= sIPBC.II {
		t.Errorf("BASE II %d not smaller than IPBC II %d", sBase.II, sIPBC.II)
	}
	for _, id := range ids {
		if sIPBC.Place[id].Cluster != 0 {
			t.Errorf("IPBC load %d in cluster %d, want 0", id, sIPBC.Place[id].Cluster)
		}
	}
}

// TestCopiesCostSlots: a producer feeding consumers pinned to another
// cluster requires copies; the verifier checks bus timing.
func TestCopiesCostSlots(t *testing.T) {
	cfg := arch.Default()
	b := ir.NewBuilder("comm", 100, 1)
	p := b.Op("prod", ir.OpIntALU)
	var loads []int
	for i := 0; i < 3; i++ {
		ld := b.Load("ld", ir.MemInfo{Sym: "a", Offset: int64(16 * i), Stride: 16, StrideKnown: true, Gran: 4, SymBytes: 4096, Indirect: true, IndirectSpan: 4096})
		b.Flow(p, ld)
		loads = append(loads, ld)
	}
	l := b.MustBuild()
	g := ir.NewGraph(l)
	assigned := l.DefaultLatencies(15)
	order := sms.Order(g, assigned)
	pin := map[int]int{loads[0]: 1, loads[1]: 2, loads[2]: 3}
	s, err := Run(l, g, cfg, assigned, order, Options{
		Heuristic: IPBC,
		NoChains:  true,
		Preferred: func(id int) int { return pin[id] },
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, s, cfg)
	if len(s.Copies) < 2 {
		t.Errorf("got %d copies, want >= 2 (producer cannot be in 3 clusters)", len(s.Copies))
	}
}

// TestConsumerSlack: stores have no slack (no consumers); a load's slack is
// at least its assigned latency.
func TestConsumerSlack(t *testing.T) {
	cfg := arch.Default()
	b := ir.NewBuilder("s", 100, 1)
	ld := b.Load("ld", ir.MemInfo{Sym: "a", Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
	add := b.Op("add", ir.OpIntALU)
	st := b.Store("st", ir.MemInfo{Sym: "b", Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
	b.Flow(ld, add).Flow(add, st)
	l := b.MustBuild()
	g := ir.NewGraph(l)
	assigned := l.DefaultLatencies(15)
	s, err := Run(l, g, cfg, assigned, sms.Order(g, assigned), Options{Heuristic: Base})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, s, cfg)
	if slack, ok := s.ConsumerSlack(ld); !ok || slack < assigned[ld] {
		t.Errorf("load slack = %d,%v, want >= %d", slack, ok, assigned[ld])
	}
	if _, ok := s.ConsumerSlack(st); ok {
		t.Error("store must have no register-flow consumer")
	}
}

func TestWorkloadBalance(t *testing.T) {
	cfg := arch.Default()
	b := ir.NewBuilder("bal", 100, 1)
	for i := 0; i < 8; i++ {
		b.Op("op", ir.OpIntALU)
	}
	l := b.MustBuild()
	g := ir.NewGraph(l)
	assigned := l.DefaultLatencies(15)
	s, err := Run(l, g, cfg, assigned, sms.Order(g, assigned), Options{Heuristic: Base})
	if err != nil {
		t.Fatal(err)
	}
	wb := s.WorkloadBalance(cfg.Clusters)
	if wb < 0.25 || wb > 0.5 {
		t.Errorf("balance of 8 independent ops = %g, want near 0.25", wb)
	}
}

// TestRandomLoops fuzzes the scheduler and the invariant verifier.
func TestRandomLoops(t *testing.T) {
	cfg := arch.Default()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(20)
		b := ir.NewBuilder("rand", 100, 1)
		ids := make([]int, n)
		var mems []int
		for i := 0; i < n; i++ {
			switch rng.Intn(5) {
			case 0:
				ids[i] = b.Load("ld", ir.MemInfo{Sym: "a", Offset: int64(4 * i), Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
				mems = append(mems, ids[i])
			case 1:
				ids[i] = b.Store("st", ir.MemInfo{Sym: "b", Offset: int64(4 * i), Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
				mems = append(mems, ids[i])
			case 2:
				ids[i] = b.Op("fp", ir.OpFPALU)
			default:
				ids[i] = b.Op("op", ir.OpIntALU)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.12 {
					b.Flow(ids[i], ids[j])
				}
			}
		}
		for k := 0; k+1 < len(mems); k += 2 {
			if rng.Float64() < 0.5 {
				b.MemEdge(mems[k], mems[k+1], 0)
			}
		}
		if rng.Float64() < 0.5 && n >= 2 {
			b.FlowD(ids[n-1], ids[0], 1)
		}
		l := b.MustBuild()
		g := ir.NewGraph(l)
		assigned := l.DefaultLatencies(15)
		order := sms.Order(g, assigned)
		cs := chains.Build(l)
		for _, h := range []Heuristic{Base, IBC, IPBC} {
			s, err := Run(l, g, cfg, assigned, order, Options{
				Heuristic: h,
				ChainOf:   cs.ChainOf,
				Preferred: func(id int) int { return id % cfg.Clusters },
			})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, h, err)
			}
			verify(t, s, cfg)
			// Chain members must share a cluster under IBC/IPBC.
			if h != Base {
				for _, c := range cs.Chains {
					cl := s.Place[c.Members[0]].Cluster
					for _, m := range c.Members {
						if s.Place[m].Cluster != cl {
							t.Errorf("trial %d %v: chain %d split", trial, h, c.ID)
						}
					}
				}
			}
		}
	}
}

func TestHeuristicString(t *testing.T) {
	if Base.String() != "BASE" || IBC.String() != "IBC" || IPBC.String() != "IPBC" {
		t.Error("heuristic names changed")
	}
}
