package ivliw_test

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"ivliw"
	"ivliw/internal/addrspace"
	"ivliw/internal/arch"
	"ivliw/internal/core"
	"ivliw/internal/ir"
	"ivliw/internal/latassign"
	"ivliw/internal/paperex"
	"ivliw/internal/sched"
	"ivliw/internal/workload"
)

// Example_quickstart builds a SAXPY-like loop, compiles it with the paper's
// IPBC heuristic for the Table 2 machine (4 clusters, word-interleaved L1)
// with 16-entry Attraction Buffers, simulates it, and prints the schedule
// quality and memory behaviour.
//
// Selective unrolling picks the factor 4, the cluster count: each unrolled
// copy of a stride-4 word access then always touches one cluster's words,
// and IPBC places it there, so no access is remote: 640 local hits, 65
// local misses and 63 accesses combined with an outstanding fill. The
// schedule meets its lower bound, and its compute cycles are
// II·(iterations + stages − 1) = 3·(64 + 7 − 1) = 210, with no stall.
func Example_quickstart() {
	cfg := ivliw.DefaultConfig()
	cfg.AttractionBuffers = true

	// for (i = 0; i < 256; i++) y[i] = a * x[i] + y[i]
	word := func(sym string) ivliw.MemInfo {
		return ivliw.MemInfo{Sym: sym, Kind: ivliw.Heap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096}
	}
	b := ivliw.NewLoop("saxpy", 256, 1)
	ldx := b.Load("ld x[i]", word("x"))
	ldy := b.Load("ld y[i]", word("y"))
	mul := b.Op("mul", ivliw.OpFPALU)
	add := b.Op("add", ivliw.OpFPALU)
	st := b.Store("st y[i]", word("y"))
	b.Flow(ldx, mul).Flow(mul, add).Flow(ldy, add).Flow(add, st)
	// y[i] is loaded and stored in place: the disambiguator keeps them
	// dependent, forming a memory dependent chain.
	b.MemEdge(ldy, st, 0)
	loop, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	prog, err := ivliw.NewProgram(cfg, []*ivliw.Loop{loop})
	if err != nil {
		log.Fatal(err)
	}
	compiled, err := prog.Compile(loop, ivliw.CompileOptions{
		Heuristic: ivliw.IPBC,
		Unroll:    ivliw.Selective, // no-unroll vs unroll×4 vs OUF, best Texec wins
	})
	if err != nil {
		log.Fatal(err)
	}
	s := compiled.Schedule
	fmt.Printf("unroll factor: %d (selective unrolling)\n", compiled.UnrollFactor)
	fmt.Printf("II: %d  (lower bound %d)   stages: %d   inter-cluster copies: %d\n", s.II, s.MII, s.SC, len(s.Copies))
	fmt.Printf("workload balance: %.2f (0.25 = perfect on 4 clusters)\n\n", s.WorkloadBalance(cfg.Clusters))

	res := prog.Run(compiled)
	fmt.Printf("simulated %d iterations: %d cycles (%d compute + %d stall)\n",
		res.Iters, res.TotalCycles(), res.ComputeCycles, res.StallCycles)
	fmt.Printf("memory accesses: %d total, %.1f%% local hits\n", res.TotalAccesses(), 100*res.LocalHitRatio())
	names := []string{"local hits", "remote hits", "local misses", "remote misses", "combined"}
	for c, n := range res.Accesses {
		fmt.Printf("  %-13s %6d\n", names[c], n)
	}
	// Output:
	// unroll factor: 4 (selective unrolling)
	// II: 3  (lower bound 3)   stages: 7   inter-cluster copies: 0
	// workload balance: 0.25 (0.25 = perfect on 4 clusters)
	//
	// simulated 64 iterations: 210 cycles (210 compute + 0 stall)
	// memory accesses: 768 total, 83.3% local hits
	//   local hits       640
	//   remote hits        0
	//   local misses      65
	//   remote misses      0
	//   combined          63
}

// chainKernel builds an epicdec-style loop: nMem memory operations linked
// into one may-alias chain over several arrays.
func chainKernel(nMem int) *ivliw.Loop {
	b := ivliw.NewLoop("epic.unquant", 160, 1)
	var mems []int
	prev := -1
	for k := 0; k < nMem; k++ {
		m := ivliw.MemInfo{
			Sym: fmt.Sprintf("buf%d", k), Kind: ivliw.Heap,
			Offset: int64(4 * k), Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 384,
		}
		if k%3 == 2 {
			st := b.Store(fmt.Sprintf("st%d", k), m)
			if prev >= 0 {
				b.Flow(prev, st)
			}
			mems = append(mems, st)
			continue
		}
		ld := b.Load(fmt.Sprintf("ld%d", k), m)
		op := b.Op("op", ivliw.OpIntALU)
		op2 := b.Op("op2", ivliw.OpIntALU)
		b.Flow(ld, op).Flow(op, op2)
		if prev >= 0 {
			b.Flow(prev, op)
		}
		prev = op2
		mems = append(mems, ld)
	}
	for k := 0; k+1 < len(mems); k++ {
		b.MemEdge(mems[k], mems[k+1], 0)
	}
	b.MemEdge(mems[len(mems)-1], mems[0], 1)
	return b.MustBuild()
}

// Example_attractionBuffers demonstrates the §5.2 Attraction Buffer study on
// an epicdec-like loop: a chain of 19 memory operations that IPBC must
// schedule in one cluster, so few of its accesses hit locally (17.7%
// without buffers). It measures the stall without buffers, with 16- and
// 8-entry buffers, and with each buffer plus the compiler's hints, which
// mark only the K most beneficial loads as attractable (K bounded by the
// buffer capacity) so that a loop with more memory instructions than
// entries does not thrash the buffer.
//
// The 16-entry buffer alone removes 1.5% of the stall, and 5.8% with hints.
// The 8-entry buffer alone removes none: with 19 memory instructions
// contending for 8 entries its stall and local hits equal the unbuffered
// run's. With hints it removes 3.2%. Across the five rows, less stall
// always comes with more local hits.
func Example_attractionBuffers() {
	measure := func(cfg ivliw.Config) (stall int64, localPct float64) {
		loop := chainKernel(19) // the 19-memory-op epicdec loop of §5.2
		prog, err := ivliw.NewProgram(cfg, []*ivliw.Loop{loop})
		if err != nil {
			log.Fatal(err)
		}
		c, err := prog.Compile(loop, ivliw.CompileOptions{Heuristic: ivliw.IPBC, Unroll: ivliw.NoUnroll})
		if err != nil {
			log.Fatal(err)
		}
		res := prog.Run(c)
		return res.StallCycles, 100 * res.LocalHitRatio()
	}
	base := ivliw.DefaultConfig()
	ab16 := base
	ab16.AttractionBuffers = true
	ab16hints := ab16
	ab16hints.ABHints = true
	ab8 := ab16
	ab8.ABEntries = 8
	ab8hints := ab8
	ab8hints.ABHints = true

	fmt.Printf("%-36s %10s %8s\n", "configuration", "stall", "local%")
	rows := []struct {
		name string
		cfg  ivliw.Config
	}{
		{"no Attraction Buffers", base},
		{"16-entry 2-way AB", ab16},
		{"16-entry 2-way AB + hints", ab16hints},
		{"8-entry 2-way AB", ab8},
		{"8-entry 2-way AB + hints", ab8hints},
	}
	var first int64
	for i, r := range rows {
		stall, local := measure(r.cfg)
		if i == 0 {
			first = stall
		}
		fmt.Printf("%-36s %10d %7.1f%%   (%.3fx)\n", r.name, stall, local, float64(stall)/float64(first))
	}
	// Output:
	// configuration                             stall   local%
	// no Attraction Buffers                      6318    17.7%   (1.000x)
	// 16-entry 2-way AB                          6224    18.5%   (0.985x)
	// 16-entry 2-way AB + hints                  5950    21.1%   (0.942x)
	// 8-entry 2-way AB                           6318    17.7%   (1.000x)
	// 8-entry 2-way AB + hints                   6114    19.3%   (0.968x)
}

// firHistDot builds three kernels with distinct memory behaviour: a strided
// FIR filter (unrollable, alignable), a histogram with indirect accesses
// (the jpeg/pegwit pattern), and a dot-product reduction (the
// latency-assignment pattern).
func firHistDot() []*ivliw.Loop {
	word := func(sym string, offset, bytes int64) ivliw.MemInfo {
		return ivliw.MemInfo{Sym: sym, Kind: ivliw.Heap, Offset: offset, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: bytes}
	}

	b := ivliw.NewLoop("fir", 512, 1)
	var taps []int
	for k := 0; k < 3; k++ {
		ld := b.Load(fmt.Sprintf("ld s[i+%d]", k), word("sig", int64(4*k), 4096))
		m := b.Op("mul", ivliw.OpFPALU)
		b.Flow(ld, m)
		taps = append(taps, m)
	}
	a1 := b.Op("add", ivliw.OpFPALU)
	b.Flow(taps[0], a1).Flow(taps[1], a1)
	a2 := b.Op("add", ivliw.OpFPALU)
	b.Flow(a1, a2).Flow(taps[2], a2)
	b.Flow(a2, b.Store("st out[i]", word("fout", 0, 4096)))
	fir := b.MustBuild()

	b = ivliw.NewLoop("hist", 512, 1)
	idx := b.Load("ld px[i]", ivliw.MemInfo{
		Sym: "px", Kind: ivliw.Heap, Stride: 1, StrideKnown: true, Gran: 1, SymBytes: 512,
	})
	table := ivliw.MemInfo{Sym: "bins", Kind: ivliw.Global, Gran: 4, SymBytes: 1024, Indirect: true, IndirectSpan: 1024}
	bin := b.Load("ld bins[px]", table)
	b.Flow(idx, bin)
	inc := b.Op("inc", ivliw.OpIntALU)
	b.Flow(bin, inc)
	st := b.Store("st bins[px]", table)
	b.Flow(inc, st)
	// Read-modify-write of the same table: a memory dependent chain (plus a
	// loop-carried dependence — the next bin may alias).
	b.MemEdge(bin, st, 0)
	b.MemEdge(st, bin, 1)
	hist := b.MustBuild()

	b = ivliw.NewLoop("dot", 512, 1)
	lx := b.Load("ld x[i]", word("dx", 0, 2048))
	ly := b.Load("ld y[i]", word("dy", 0, 2048))
	m := b.Op("mul", ivliw.OpFPALU)
	b.Flow(lx, m).Flow(ly, m)
	acc := b.Op("acc", ivliw.OpFPALU)
	b.Flow(m, acc).FlowD(acc, acc, 1)
	dot := b.MustBuild()

	return []*ivliw.Loop{fir, hist, dot}
}

// Example_cacheOrganizations compares the paper's machine organizations —
// word-interleaved with and without Attraction Buffers, the coherent
// multiVLIW, and unified caches with 1- and 5-cycle latencies — on a small
// FIR + histogram + dot-product program, with Figure 8's method: total
// cycles normalized to the unified L=1 cache.
//
// The interleaved machine pays in stall: 1708 cycles under IPBC, against
// 140 on the unified caches. Attraction Buffers raise IPBC's local hits
// from 43.3% to 58.7% and remove 13% of that stall. IBC with buffers has
// the fewest local hits (34.4%) but the fewest interleaved cycles (1.401),
// because it schedules tighter (3263 compute cycles against 3390). The
// multiVLIW matches the unified L=1 cache. The unified L=5 cache stalls no
// more than L=1, but its longer load latency stretches the schedules from
// 3248 to 5314 compute cycles, which makes it the slowest machine here.
func Example_cacheOrganizations() {
	interleavedAB := ivliw.DefaultConfig()
	interleavedAB.AttractionBuffers = true
	machines := []struct {
		name      string
		cfg       ivliw.Config
		heuristic ivliw.Heuristic
	}{
		{"interleaved IPBC", ivliw.DefaultConfig(), ivliw.IPBC},
		{"interleaved IPBC + AB", interleavedAB, ivliw.IPBC},
		{"interleaved IBC + AB", interleavedAB, ivliw.IBC},
		{"multiVLIW (IBC)", ivliw.MultiVLIWConfig(), ivliw.IBC},
		{"unified L=1", ivliw.UnifiedConfig(1), ivliw.BASE},
		{"unified L=5", ivliw.UnifiedConfig(5), ivliw.BASE},
	}
	type total struct{ compute, stall, accesses, localHits int64 }
	totals := make([]total, len(machines))
	for i, m := range machines {
		loops := firHistDot()
		prog, err := ivliw.NewProgram(m.cfg, loops)
		if err != nil {
			log.Fatalf("%s: %v", m.name, err)
		}
		for _, l := range loops {
			c, err := prog.Compile(l, ivliw.CompileOptions{Heuristic: m.heuristic, Unroll: ivliw.Selective})
			if err != nil {
				log.Fatalf("%s/%s: %v", m.name, l.Name, err)
			}
			res := prog.Run(c)
			totals[i].compute += res.ComputeCycles
			totals[i].stall += res.StallCycles
			totals[i].accesses += res.TotalAccesses()
			totals[i].localHits += res.Accesses[0]
		}
	}
	baseline := totals[4].compute + totals[4].stall // unified L=1, as in Figure 8

	fmt.Printf("%-24s %10s %10s %8s %11s\n", "machine", "compute", "stall", "local%", "normalized")
	for i, m := range machines {
		t := totals[i]
		fmt.Printf("%-24s %10d %10d %7.1f%% %11.3f\n", m.name, t.compute, t.stall,
			100*float64(t.localHits)/float64(t.accesses), float64(t.compute+t.stall)/float64(baseline))
	}
	// Output:
	// machine                     compute      stall   local%  normalized
	// interleaved IPBC               3390       1708    43.3%       1.505
	// interleaved IPBC + AB          3390       1487    58.7%       1.439
	// interleaved IBC + AB           3263       1485    34.4%       1.401
	// multiVLIW (IBC)                3263        126    79.4%       1.000
	// unified L=1                    3248        140    93.3%       1.000
	// unified L=5                    5314        140    93.3%       1.610
}

// Example_latencyWalkthrough replays the paper's §4.3.3 worked example
// (Figure 3): an 8-node dependence graph with two recurrences whose
// memory-instruction latencies are lowered step by step by the benefit
// function until the loop reaches its minimum initiation interval, with the
// final slack re-absorption that leaves n1 at a 4-cycle latency. The final
// latencies are the paper's, and the final RecMII equals the target MII.
func Example_latencyWalkthrough() {
	loop, n := paperex.Loop()
	g := ir.NewGraph(loop)
	cfg := arch.Default()
	ladder := latassign.InterleavedLadder(cfg)

	fmt.Println("Figure 3 DDG: REC1 = {n1,n2,n3,n4}, REC2 = {n6,n7,n8}, n5 feeds n1")
	fmt.Printf("latency classes: local hit %d, remote hit %d, local miss %d, remote miss %d\n\n",
		ladder[0], ladder[1], ladder[2], ladder[3])

	assigned := loop.DefaultLatencies(ladder.Max())
	for i, rec := range g.Recurrences(assigned) {
		fmt.Printf("REC%d initial II = %d (all loads at remote-miss latency)\n", i+1, rec.II)
	}

	prof := map[int]latassign.MemProfile{}
	for id, p := range paperex.Profiles(n) {
		prof[id] = latassign.MemProfile{Hit: p.Hit, Local: p.Local}
	}
	res := latassign.Assign(loop, g, cfg, ladder, prof)
	fmt.Printf("\ntarget MII = %d (the II if every load were a local hit)\n\n", res.TargetMII)

	fmt.Println("benefit-driven latency changes:")
	for _, s := range res.Steps {
		name := loop.Instrs[s.Instr].Name
		if s.Slack {
			fmt.Printf("  %-8s %2d -> %2d   slack re-absorption (II raised back to MII)\n", name, s.From, s.To)
			continue
		}
		fmt.Printf("  %-8s %2d -> %2d   ∆II=%-2d  ∆stall=%-5.2f  B=%.2f\n",
			name, s.From, s.To, s.DeltaII, s.DeltaStall, s.B)
	}

	fmt.Println("\nfinal load latencies (paper: n1=4, n2=1, n6=1):")
	for _, id := range []int{n.N1, n.N2, n.N6} {
		fmt.Printf("  %-8s %d cycles\n", loop.Instrs[id].Name, res.Assigned[id])
	}
	fmt.Printf("\nfinal RecMII = %d (target MII %d)\n", ir.RecMII(g, res.Assigned), res.TargetMII)
	// Output:
	// Figure 3 DDG: REC1 = {n1,n2,n3,n4}, REC2 = {n6,n7,n8}, n5 feeds n1
	// latency classes: local hit 1, remote hit 5, local miss 10, remote miss 15
	//
	// REC1 initial II = 33 (all loads at remote-miss latency)
	// REC2 initial II = 22 (all loads at remote-miss latency)
	//
	// target MII = 8 (the II if every load were a local hit)
	//
	// benefit-driven latency changes:
	//   n2.load  15 -> 10   ∆II=5   ∆stall=0.25   B=20.00
	//   n2.load  10 ->  5   ∆II=5   ∆stall=0.50   B=10.00
	//   n1.load  15 -> 10   ∆II=5   ∆stall=1.00   B=5.00
	//   n1.load  10 ->  5   ∆II=5   ∆stall=2.00   B=2.50
	//   n2.load   5 ->  1   ∆II=4   ∆stall=2.20   B=1.82
	//   n1.load   5 ->  1   ∆II=4   ∆stall=2.80   B=1.43
	//   n1.load   1 ->  4   slack re-absorption (II raised back to MII)
	//   n6.load  15 -> 10   ∆II=5   ∆stall=0.25   B=20.00
	//   n6.load  10 ->  5   ∆II=5   ∆stall=0.50   B=10.00
	//   n6.load   5 ->  1   ∆II=4   ∆stall=2.20   B=1.82
	//
	// final load latencies (paper: n1=4, n2=1, n6=1):
	//   n1.load  4 cycles
	//   n2.load  1 cycles
	//   n6.load  1 cycles
	//
	// final RecMII = 8 (target MII 8)
}

// Example_schedule prints the modulo schedule the paper's pipeline builds
// for the first loop of gsmdec (gsmdec.ltp) on the Table 2 machine, under
// IPBC with selective unrolling: the unroll factor, II and MII, stage
// count, inter-cluster copies and workload balance; the latency assignment
// steps; each instruction's cycle and cluster, and for a memory
// instruction its assigned latency, profiled hit rate, preferred cluster
// and memory dependent chain; and the copies on the register buses.
//
// Selective unrolling picks the factor 4. The unrolled loop is
// resource-bound: its 32 integer operations on the machine's 4 integer
// units set the MII of 8, which the schedule meets with every load at the
// 15-cycle remote-miss latency, so latency assignment takes no step. Every
// memory instruction prefers cluster 0 and IPBC places it there, but the
// integer operations of each unrolled copy j run on cluster j, so copies 1
// to 3 each move a loaded value out to their cluster and the result back
// to cluster 0 for the store: 6 copies, and a balance of 0.40 (0.25 is
// perfect on 4 clusters). No memory instruction is in a chain of two or
// more, so no chain is printed.
func Example_schedule() {
	spec, ok := workload.ByName("gsmdec")
	if !ok {
		log.Fatal("no benchmark gsmdec")
	}
	cfg := arch.Default()
	loop := spec.Loops[0].Loop
	profDS := addrspace.Dataset{Seed: spec.ProfileSeed, Aligned: true}
	profLay := addrspace.NewLayout(spec.AllLoops(), cfg, profDS)
	h, um := sched.IPBC, core.Selective
	c, err := core.Compile(loop, cfg, profLay, profDS, core.Options{Heuristic: h, Unroll: um})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("loop %s  (%s cache, %v, %v unrolling)\n", loop.Name, cfg.Org, h, um)
	fmt.Printf("unroll factor %d   II %d (MII %d)   stages %d   copies %d   balance %.2f\n\n",
		c.UnrollFactor, c.Schedule.II, c.Schedule.MII, c.Schedule.SC,
		len(c.Schedule.Copies), c.Schedule.WorkloadBalance(cfg.Clusters))

	if len(c.Latency.Steps) > 0 {
		fmt.Println("latency assignment steps (target MII", c.Latency.TargetMII, "):")
		for _, s := range c.Latency.Steps {
			if s.Slack {
				fmt.Printf("  %-14s %2d -> %2d  (slack re-absorption)\n",
					c.Loop.Instrs[s.Instr].Name, s.From, s.To)
				continue
			}
			fmt.Printf("  %-14s %2d -> %2d  ∆II=%-3d ∆stall=%-6.2f B=%.2f\n",
				c.Loop.Instrs[s.Instr].Name, s.From, s.To, s.DeltaII, s.DeltaStall, s.B)
		}
		fmt.Println()
	}

	fmt.Println("schedule (cycle, cluster):")
	ids := make([]int, len(c.Loop.Instrs))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		pa, pb := c.Schedule.Place[ids[a]], c.Schedule.Place[ids[b]]
		if pa.Cycle != pb.Cycle {
			return pa.Cycle < pb.Cycle
		}
		return ids[a] < ids[b]
	})
	for _, id := range ids {
		in := c.Loop.Instrs[id]
		p := c.Schedule.Place[id]
		extra := ""
		if in.IsMem() {
			st := c.Profile.Stats(id)
			extra = fmt.Sprintf("  lat=%-2d hit=%.2f pref=c%d", c.Schedule.Assigned[id],
				st.HitRate(), c.Preferred[id])
			if ch := c.Chains.ChainOf(id); ch >= 0 && c.Chains.Len(id) > 1 {
				extra += fmt.Sprintf(" chain=%d", ch)
			}
		}
		// The name column is padded; a line that ends with it is trimmed.
		line := fmt.Sprintf("  t=%-4d c%-2d %-6s %-14s%s", p.Cycle, p.Cluster, in.Class, in.Name, extra)
		fmt.Println(strings.TrimRight(line, " "))
	}
	if len(c.Schedule.Copies) > 0 {
		fmt.Println("\ninter-cluster copies (bus transfers):")
		for _, cp := range c.Schedule.Copies {
			fmt.Printf("  t=%-4d %s(c%d) -> %s(c%d)\n", cp.Cycle,
				c.Loop.Instrs[cp.From].Name, cp.FromCluster,
				c.Loop.Instrs[cp.To].Name, cp.ToCluster)
		}
	}
	// Output:
	// loop gsmdec.ltp  (interleaved cache, IPBC, selective unrolling)
	// unroll factor 4   II 8 (MII 8)   stages 4   copies 6   balance 0.40
	//
	// schedule (cycle, cluster):
	//   t=0    c0  load   ld.u0           lat=15 hit=0.97 pref=c0
	//   t=1    c0  load   ld.u1           lat=15 hit=0.00 pref=c0
	//   t=2    c0  load   ld.u2           lat=15 hit=1.00 pref=c0
	//   t=3    c0  load   ld.u3           lat=15 hit=0.00 pref=c0
	//   t=15   c0  int    op.u0
	//   t=16   c0  int    op.u0
	//   t=17   c0  int    op.u0
	//   t=18   c0  int    op.u0
	//   t=18   c1  int    op.u1
	//   t=19   c0  int    op.u0
	//   t=19   c1  int    op.u1
	//   t=19   c2  int    op.u2
	//   t=20   c0  int    op.u0
	//   t=20   c1  int    op.u1
	//   t=20   c2  int    op.u2
	//   t=20   c3  int    op.u3
	//   t=21   c0  int    op.u0
	//   t=21   c1  int    op.u1
	//   t=21   c2  int    op.u2
	//   t=21   c3  int    op.u3
	//   t=22   c0  int    op.u0
	//   t=22   c1  int    op.u1
	//   t=22   c2  int    op.u2
	//   t=22   c3  int    op.u3
	//   t=23   c0  store  st.u0           lat=1  hit=0.00 pref=c0
	//   t=23   c1  int    op.u1
	//   t=23   c2  int    op.u2
	//   t=23   c3  int    op.u3
	//   t=24   c1  int    op.u1
	//   t=24   c2  int    op.u2
	//   t=24   c3  int    op.u3
	//   t=25   c1  int    op.u1
	//   t=25   c2  int    op.u2
	//   t=25   c3  int    op.u3
	//   t=26   c2  int    op.u2
	//   t=26   c3  int    op.u3
	//   t=27   c3  int    op.u3
	//   t=28   c0  store  st.u1           lat=1  hit=1.00 pref=c0
	//   t=29   c0  store  st.u2           lat=1  hit=0.00 pref=c0
	//   t=30   c0  store  st.u3           lat=1  hit=1.00 pref=c0
	//
	// inter-cluster copies (bus transfers):
	//   t=16   ld.u1(c0) -> op.u1(c1)
	//   t=26   op.u1(c1) -> st.u1(c0)
	//   t=17   ld.u2(c0) -> op.u2(c2)
	//   t=27   op.u2(c2) -> st.u2(c0)
	//   t=18   ld.u3(c0) -> op.u3(c3)
	//   t=28   op.u3(c3) -> st.u3(c0)
}
