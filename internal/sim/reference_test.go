package sim

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"ivliw/internal/addrspace"
	"ivliw/internal/arch"
	"ivliw/internal/cache"
	"ivliw/internal/chains"
	"ivliw/internal/ir"
	"ivliw/internal/sched"
	"ivliw/internal/sms"
	"ivliw/internal/stats"
	"ivliw/internal/workload"
)

// The reference simulator below runs one configuration with the simulator's
// original algorithms, from before its per-access path was optimized, so
// the tests can demand that RunLoop and every RunLoopBatch lane produce the
// same stats.Loop on every input:
//
//   - every (time, iteration, index) access is materialized and sorted;
//   - each address comes from Layout.Addr;
//   - home cluster and block come from division, and the hierarchy is driven
//     through its address-based Hierarchy.Access;
//   - the combining table is a map from subblock key to completion;
//   - the MSHRs are a linearly scanned slice of completions.
//
// It shares with the simulator only what the access path never touched: the
// resource-pool model (acquire), the stall charge (stallAndAttribute) and
// the static Figure 5 classification (rhCauses).

// refEvent is one access: instruction index k issues iteration iter at t.
type refEvent struct {
	t, iter int64
	k       int
}

// referenceEvents materializes every access of a run and sorts it into
// global issue order.
func referenceEvents(cycles []int64, ii, iters int64) []refEvent {
	var evs []refEvent
	for k, c := range cycles {
		for i := int64(0); i < iters; i++ {
			evs = append(evs, refEvent{t: c + i*ii, iter: i, k: k})
		}
	}
	slices.SortFunc(evs, func(a, b refEvent) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.iter, b.iter), cmp.Compare(a.k, b.k))
	})
	return evs
}

// kernelEvents lists the accesses in the order runAccesses visits them:
// kernel windows upward, each in kernelOrder.
func kernelEvents(cycles []int64, ii, iters int64) []refEvent {
	order, stages := kernelOrder(cycles, ii)
	var evs []refEvent
	for w, end := slices.Min(stages), slices.Max(stages)+iters; w < end; w++ {
		for _, k := range order {
			if i := w - stages[k]; i >= 0 && i < iters {
				evs = append(evs, refEvent{t: cycles[k] + i*ii, iter: i, k: k})
			}
		}
	}
	return evs
}

// referenceRunLoop is RunLoop for one configuration, computed the original
// way.
func referenceRunLoop(s *sched.Schedule, lay *addrspace.Layout, ds addrspace.Dataset,
	cfg arch.Config, hier cache.Hierarchy, iters int64, meta Meta) stats.Loop {
	defer hier.FlushBuffers()
	out := stats.Loop{
		Name: s.Loop.Name, II: s.II, SC: s.SC, MII: s.MII, Copies: len(s.Copies),
		Balance: s.WorkloadBalance(cfg.Clusters), BodyInstrs: len(s.Loop.Instrs),
		Iters: iters, Invocations: 1,
		ComputeCycles: int64(s.II) * (iters + int64(s.SC) - 1),
	}
	mems := s.Loop.MemInstrs()
	cycles := make([]int64, len(mems))
	for k, id := range mems {
		cycles[k] = int64(s.Place[id].Cycle)
	}
	interleaved := cfg.Org == arch.Interleaved
	busFree := make([]int64, cfg.MemBuses)
	portFree := make([]int64, cfg.NextLevelPorts)
	hold := int64(cfg.BusCycleRatio)
	lats := cfg.MemLatencies()
	pending := map[int64]int64{}
	var fills []int64
	var stalled int64
	for _, ev := range referenceEvents(cycles, int64(s.II), iters) {
		id := mems[ev.k]
		in := s.Loop.Instrs[id]
		cluster := s.Place[id].Cluster
		slack, hasCons := s.ConsumerSlack(id)
		load := in.IsLoad()
		attract := load && (meta.Attractable == nil || meta.Attractable(id)) && in.Mem.Gran <= cfg.Interleave
		addr := lay.Addr(in, ev.iter, ds)
		sbKey := addr/int64(cfg.BlockBytes)*int64(cfg.Clusters) + int64(cfg.HomeCluster(addr))
		t := ev.t + stalled

		if c, ok := pending[sbKey]; interleaved && ok && t < c {
			out.Accesses[stats.Combined]++
			stalled += stallAndAttribute(&out, int64(slack), hasCons, c-t, stats.Combined, nil)
			continue
		}
		r := hier.Access(cluster, addr, !load, attract)
		if interleaved && in.Mem.Gran > cfg.Interleave {
			switch r.Class {
			case arch.LocalHit:
				r.Class = arch.RemoteHit
			case arch.LocalMiss:
				r.Class = arch.RemoteMiss
			}
		}
		var wait int64
		if interleaved && cfg.MSHRs > 0 && r.Class != arch.LocalHit {
			live := fills[:0]
			for _, c := range fills {
				if c > t {
					live = append(live, c)
				}
			}
			fills = live
			if len(fills) >= cfg.MSHRs {
				first := 0
				for i, c := range fills {
					if c < fills[first] {
						first = i
					}
				}
				wait = fills[first] - t
				fills = slices.Delete(fills, first, first+1)
			}
			t += wait
		}
		var class stats.Class
		var actual int64
		if cfg.Org == arch.Unified {
			if r.Class == arch.LocalHit {
				class, actual = stats.LHit, int64(cfg.UnifiedHitLatency())
			} else {
				class, actual = stats.LMiss, int64(cfg.UnifiedMissLatency())+acquire(portFree, t, hold)
			}
		} else {
			if cfg.Org == arch.MultiVLIW && !load {
				acquire(busFree, t, hold)
			}
			switch r.Class {
			case arch.LocalHit:
				class, actual = stats.LHit, int64(lats[arch.LocalHit])
			case arch.RemoteHit:
				class, actual = stats.RHit, int64(lats[arch.RemoteHit])
				actual += acquire(busFree, t, hold)
				actual += acquire(busFree, t+actual-hold, hold)
			case arch.LocalMiss:
				class, actual = stats.LMiss, int64(lats[arch.LocalMiss])+acquire(portFree, t, hold)
			case arch.RemoteMiss:
				class, actual = stats.RMiss, int64(lats[arch.RemoteMiss])
				actual += acquire(busFree, t, hold)
				actual += acquire(portFree, t+hold, hold)
			}
			if interleaved && class != stats.LHit {
				pending[sbKey] = t + actual
				if cfg.MSHRs > 0 {
					fills = append(fills, t+actual)
				}
			}
		}
		out.Accesses[class]++
		var cs []stats.Cause
		if class == stats.RHit {
			cs = rhCauses(s, cfg, meta, id, cluster)
		}
		stalled += stallAndAttribute(&out, int64(slack), hasCons, actual+wait, class, cs)
	}
	return out
}

// TestKernelOrderMatchesSortedEvents: walking kernel windows in kernelOrder
// visits exactly the sorted event list, for random cycle sets that include
// equal cycles, equal residues, negative cycles and spans of several stages.
func TestKernelOrderMatchesSortedEvents(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 2000; trial++ {
		ii := int64(1 + rng.IntN(7))
		cycles := make([]int64, 1+rng.IntN(10))
		for k := range cycles {
			if k > 0 && rng.IntN(4) == 0 {
				cycles[k] = cycles[rng.IntN(k)] // an equal cycle
				continue
			}
			cycles[k] = int64(rng.IntN(int(6*ii))) - 2*ii
		}
		iters := int64(1 + rng.IntN(12))
		got, want := kernelEvents(cycles, ii, iters), referenceEvents(cycles, ii, iters)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cycles %v, II %d, iters %d:\n kernel %v\n sorted %v", cycles, ii, iters, got, want)
		}
	}
}

// randomConfig draws a valid machine over every organization, Attraction
// Buffers off and on with and without hints, MSHRs 0 and 1–16, 1–8 memory
// buses, bus ratio 1–3, and geometries that are often not powers of two.
func randomConfig(rng *rand.Rand) arch.Config {
	c := arch.Default()
	c.Org = []arch.CacheOrg{arch.Interleaved, arch.MultiVLIW, arch.Unified}[rng.IntN(3)]
	c.UnifiedLatency = 1 + rng.IntN(5)
	c.Clusters = []int{1, 2, 3, 4, 6, 8}[rng.IntN(6)]
	c.Interleave = []int{1, 2, 3, 4, 8}[rng.IntN(5)]
	c.BlockBytes = c.Clusters * c.Interleave * (1 + rng.IntN(3))
	c.Assoc = 1 + rng.IntN(4)
	c.CacheBytes = c.Clusters * c.Assoc * (1 + rng.IntN(8)) * c.BlockBytes
	c.MemBuses = 1 + rng.IntN(8)
	c.NextLevelPorts = 1 + rng.IntN(8)
	c.BusCycleRatio = 1 + rng.IntN(3)
	if rng.IntN(3) > 0 {
		c.MSHRs = 1 + rng.IntN(16)
	}
	c.AttractionBuffers = rng.IntN(3) > 0
	c.ABHints = c.AttractionBuffers && rng.IntN(2) == 0
	c.ABAssoc = 1 + rng.IntN(2)
	c.ABEntries = c.ABAssoc * (1 + rng.IntN(16))
	return c
}

// checkAgainstReference simulates every loop of a synthetic benchmark that
// schedules for cfg, for iters iterations each, sharing one hierarchy per
// lane across the loops as pipeline.SimulateBatch does. The lanes are cfg
// and the given number of simulate-only siblings; for each, RunLoop, its
// RunLoopBatch lane and the reference must agree. It reports how many loops
// ran.
func checkAgainstReference(t *testing.T, seed uint64, cfg arch.Config, h sched.Heuristic, siblings int, iters int64) int {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, uint64(siblings)))
	bench, err := workload.Synthesize(workload.SynthSpec{
		Name: "ref", Seed: seed, Kernels: 1 + rng.IntN(3),
		Gran:           []int{1, 2, 4, 8}[rng.IntN(4)],
		FootprintBytes: int64(64 << rng.IntN(8)),
		IndirectPct:    rng.IntN(40), ReductionPct: rng.IntN(30), ChainPct: rng.IntN(30),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []arch.Config{cfg}
	for len(cfgs) <= siblings {
		cfgs = append(cfgs, mutateSimOnly(t, rng, cfg))
	}
	ds := addrspace.Dataset{Seed: bench.ExecSeed, Aligned: rng.IntN(2) == 0}
	lay := addrspace.NewLayout(bench.AllLoops(), cfg, ds)
	serial := make([]cache.Hierarchy, len(cfgs))
	batch := make([]cache.Hierarchy, len(cfgs))
	ref := make([]cache.Hierarchy, len(cfgs))
	for l := range cfgs {
		serial[l], batch[l], ref[l] = mustHier(t, cfgs[l]), mustHier(t, cfgs[l]), mustHier(t, cfgs[l])
	}
	lats := []int{1, 2, 5, 10, 15}
	ran := 0
	for _, ls := range bench.Loops {
		l := ls.Loop
		g := ir.NewGraph(l)
		assigned := l.DefaultLatencies(15)
		for _, id := range l.MemInstrs() {
			if l.Instrs[id].IsLoad() {
				assigned[id] = lats[rng.IntN(len(lats))]
			}
		}
		pref := make([]int, len(l.Instrs))
		disp := make([]float64, len(l.Instrs))
		attract := make([]bool, len(l.Instrs))
		for i := range pref {
			pref[i], disp[i], attract[i] = rng.IntN(cfg.Clusters), rng.Float64(), rng.IntN(2) == 0
		}
		s, err := sched.Run(l, g, cfg, assigned, sms.Order(g, assigned), sched.Options{
			Heuristic: h, ChainOf: chains.Build(l).ChainOf,
			Preferred: func(id int) int { return pref[id] },
			MaxII:     ir.MII(g, cfg, assigned) + 32,
		})
		if err != nil {
			continue // a loop that does not schedule is skipped
		}
		meta := Meta{
			Preferred:  func(id int) int { return pref[id] },
			Dispersion: func(id int) float64 { return disp[id] },
		}
		if cfg.ABHints {
			meta.Attractable = func(id int) bool { return attract[id] }
		}
		got := RunLoopBatch(s, lay, ds, cfgs, batch, iters, meta)
		for i, c := range cfgs {
			want := referenceRunLoop(s, lay, ds, c, ref[i], iters, meta)
			name := fmt.Sprintf("seed %d, %s, %v, lane %d of %d (%s, MSHRs %d, buses %d, AB %t/%d hints %t), iters %d",
				seed, l.Name, h, i, len(cfgs), c.ID(), c.MSHRs, c.MemBuses, c.AttractionBuffers, c.ABEntries, c.ABHints, iters)
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%s: RunLoopBatch differs from the reference:\n batch %+v\n ref   %+v", name, got[i], want)
			}
			if one := RunLoop(s, lay, ds, c, serial[i], iters, meta); !reflect.DeepEqual(one, want) {
				t.Fatalf("%s: RunLoop differs from the reference:\n run %+v\n ref %+v", name, one, want)
			}
		}
		ran++
	}
	return ran
}

// TestRunLoopMatchesReference drives RunLoop and RunLoopBatch against the
// reference simulator on random synthetic loops and random machines.
func TestRunLoopMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	loops := 0
	for trial := 0; trial < 150; trial++ {
		cfg := randomConfig(rng)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		h := []sched.Heuristic{sched.Base, sched.IBC, sched.IPBC}[rng.IntN(3)]
		loops += checkAgainstReference(t, rng.Uint64(), cfg, h, rng.IntN(4), int64(1+rng.IntN(300)))
	}
	if loops < 150 {
		t.Fatalf("only %d loops scheduled — the inputs no longer exercise the simulator", loops)
	}
}

// FuzzSimulate is the differential fuzz target from loop to cycles: a
// synthetic benchmark scheduled for the fuzzed machine must simulate the
// same under RunLoop, every lane of a batch of 1–4 simulate-only siblings,
// and the reference simulator.
func FuzzSimulate(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, clusters, interleave, org, heuristic, buses, ratio, abEntries, mshrs uint8, iters uint16) {
		cfg := arch.Default()
		cfg.Clusters = int(clusters % 9)
		cfg.Interleave = int(interleave % 9)
		cfg.BlockBytes = 2 * cfg.Clusters * cfg.Interleave
		cfg.CacheBytes = 16 * cfg.Clusters * cfg.BlockBytes
		cfg.Org = arch.CacheOrg(org % 3)
		cfg.MemBuses = int(buses % 9)
		cfg.BusCycleRatio = int(ratio % 4)
		cfg.AttractionBuffers = abEntries%33 > 0
		cfg.ABEntries = int(abEntries % 33)
		cfg.ABHints = abEntries >= 128
		cfg.MSHRs = int(mshrs % 17)
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		h := sched.Heuristic(heuristic % 3)
		if checkAgainstReference(t, seed, cfg, h, int(seed%4), int64(1+iters%512)) == 0 {
			t.Skip("no loop schedules")
		}
	})
}
