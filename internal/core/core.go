// Package core implements the paper's complete scheduling algorithms as
// single-call pipelines:
//
//  1. compute the unrolling factor and unroll the loop   (internal/unroll)
//  2. assign latencies to memory instructions            (internal/latassign)
//  3. order the instructions                              (internal/sms)
//  4. assign clusters and schedule                        (internal/sched)
//
// with profiling (internal/profile) feeding hit rates, preferred clusters
// and local-access ratios into steps 1, 2 and 4. The same pipeline serves
// the interleaved machine (IBC/IPBC heuristics, 4-latency ladder), the
// unified-cache machine (BASE heuristic, 2-latency ladder) and the
// multiVLIW (IBC heuristic, 4-latency ladder), selected by the
// configuration's cache organization.
package core

import (
	"fmt"

	"ivliw/internal/addrspace"
	"ivliw/internal/arch"
	"ivliw/internal/chains"
	"ivliw/internal/ir"
	"ivliw/internal/latassign"
	"ivliw/internal/profile"
	"ivliw/internal/sched"
	"ivliw/internal/sim"
	"ivliw/internal/sms"
	"ivliw/internal/unroll"
)

// UnrollMode selects the unrolling policy (§4.3.1 Step 1 / §5.1).
type UnrollMode int

const (
	// NoUnroll leaves the loop body unchanged.
	NoUnroll UnrollMode = iota
	// UnrollxN unrolls every loop N times (the number of clusters).
	UnrollxN
	// OUFUnroll unrolls by the optimal unrolling factor.
	OUFUnroll
	// Selective tries no unrolling, unroll×N and OUF and keeps the one
	// with the smallest estimated execution time (the paper's default).
	Selective
)

// String returns the mode name used in reports.
func (m UnrollMode) String() string {
	switch m {
	case NoUnroll:
		return "no-unroll"
	case UnrollxN:
		return "unrollxN"
	case OUFUnroll:
		return "OUF"
	case Selective:
		return "selective"
	}
	return fmt.Sprintf("UnrollMode(%d)", int(m))
}

// Options configures a compilation.
type Options struct {
	// Heuristic is the memory cluster-assignment heuristic. For unified
	// configurations it is forced to BASE.
	Heuristic sched.Heuristic
	// Unroll is the unrolling policy.
	Unroll UnrollMode
	// NoChains disables memory dependent chains (ablation).
	NoChains bool
	// ProfileIters overrides the profiled trip count (0: the loop's
	// AvgIters).
	ProfileIters int
	// MaxII bounds the scheduler's II search (0: default).
	MaxII int
	// NoLatAssign disables the latency-assignment pass (ablation): every
	// load keeps the maximum latency, so recurrences through loads pay
	// the full remote-miss round trip in their II.
	NoLatAssign bool
	// NaiveOrder replaces the swing modulo scheduling order with plain
	// instruction order (ablation of the §4.3.1 Step 3 design choice).
	NaiveOrder bool
}

// Compiled is the result of running the full pipeline on one loop.
type Compiled struct {
	// Schedule is the final modulo schedule of the (unrolled) loop.
	Schedule *sched.Schedule
	// Loop is the unrolled loop the schedule refers to.
	Loop *ir.Loop
	// UnrollFactor is the factor actually applied.
	UnrollFactor int
	// Profile is the profiling result over the unrolled loop.
	Profile *profile.Profile
	// Chains is the chain decomposition of the unrolled loop.
	Chains *chains.Set
	// Latency is the latency-assignment trace.
	Latency latassign.Result
	// Preferred maps each memory instruction to the cluster the scheduler
	// targeted (chain-averaged under IPBC); used for stall attribution.
	Preferred map[int]int
	// Attractable marks instructions allowed to allocate into Attraction
	// Buffers (all loads unless ABHints trimmed the set).
	Attractable map[int]bool
	// Texec is the execution-time estimate used by selective unrolling.
	Texec int64
}

// Meta builds the simulator annotations for this compilation.
func (c *Compiled) Meta() sim.Meta {
	return sim.Meta{
		Preferred:   func(id int) int { return c.Preferred[id] },
		Dispersion:  func(id int) float64 { return c.Profile.Stats(id).Dispersion() },
		Attractable: func(id int) bool { return c.Attractable[id] },
	}
}

// Compile runs the full pipeline on one loop. profLay must be the layout of
// the *profile* data set (the compiler never sees the execution inputs).
func Compile(l *ir.Loop, cfg arch.Config, profLay *addrspace.Layout, profDS addrspace.Dataset, opt Options) (*Compiled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if cfg.Org == arch.Unified {
		opt.Heuristic = sched.Base
	}
	candidates, err := unrollCandidates(l, cfg, profLay, profDS, opt)
	if err != nil {
		return nil, err
	}
	var best *Compiled
	for _, u := range candidates {
		c, err := compileAt(l, u, cfg, profLay, profDS, opt)
		if err != nil {
			return nil, fmt.Errorf("core: %s (unroll %d): %w", l.Name, u, err)
		}
		if best == nil || c.Texec < best.Texec {
			best = c
		}
	}
	return best, nil
}

// unrollCandidates returns the unroll factors to explore for the mode.
func unrollCandidates(l *ir.Loop, cfg arch.Config, profLay *addrspace.Layout, profDS addrspace.Dataset, opt Options) ([]int, error) {
	switch opt.Unroll {
	case NoUnroll:
		return []int{1}, nil
	case UnrollxN:
		return []int{cfg.Clusters}, nil
	case OUFUnroll, Selective:
		iters := opt.ProfileIters
		if iters == 0 {
			iters = l.AvgIters
		}
		p := profile.Run(l, profLay, profDS, cfg, iters)
		hit := func(id int) float64 { return p.HitRate(id) }
		if opt.Unroll == OUFUnroll {
			return []int{unroll.OUF(l, cfg, hit)}, nil
		}
		return unroll.Candidates(l, cfg, hit), nil
	}
	return nil, fmt.Errorf("core: unknown unroll mode %d", int(opt.Unroll))
}

// compileAt runs steps 2..4 on the loop unrolled by u.
func compileAt(l *ir.Loop, u int, cfg arch.Config, profLay *addrspace.Layout, profDS addrspace.Dataset, opt Options) (*Compiled, error) {
	ul := unroll.Unroll(l, u)
	g := ir.NewGraph(ul)
	iters := opt.ProfileIters
	if iters == 0 {
		iters = ul.AvgIters
	}
	p := profile.Run(ul, profLay, profDS, cfg, iters)
	cs := chains.Build(ul)

	// Per-instruction target clusters: chain-averaged preferred cluster
	// under IPBC (or the instruction's own preferred cluster for the
	// no-chains ablation).
	mems := ul.MemInstrs()
	pref := make(map[int]int, len(mems))
	for _, id := range mems {
		pref[id] = p.Stats(id).Preferred()
	}
	if !opt.NoChains {
		// One buffer serves every member's histogram: AveragePreferred
		// adds each into its sum before asking for the next.
		var hist []float64
		for _, ch := range cs.Chains {
			avg := ch.AveragePreferred(cfg.Clusters, func(id int) []float64 {
				st := p.Stats(id)
				if st == nil {
					return nil
				}
				hist = hist[:0]
				for _, v := range st.Hist {
					hist = append(hist, float64(v))
				}
				return hist
			})
			for _, m := range ch.Members {
				pref[m] = avg
			}
		}
	}

	// Step 2: latency assignment.
	ladder := latassign.InterleavedLadder(cfg)
	if cfg.Org == arch.Unified {
		ladder = latassign.UnifiedLadder(cfg)
	}
	var la latassign.Result
	if opt.NoLatAssign {
		la = latassign.Result{Assigned: ul.DefaultLatencies(ladder.Max())}
		la.TargetMII = ir.MII(g, cfg, la.Assigned)
	} else {
		la = latassign.Assign(ul, g, cfg, ladder, memProfiles(ul, mems, cfg, p, pref, opt))
	}

	// Step 3: ordering.
	var order []int
	if opt.NaiveOrder {
		for i := range ul.Instrs {
			order = append(order, i)
		}
	} else {
		order = sms.Order(g, la.Assigned)
	}

	// Step 4: cluster assignment and scheduling.
	s, err := sched.Run(ul, g, cfg, la.Assigned, order, sched.Options{
		Heuristic: opt.Heuristic,
		NoChains:  opt.NoChains,
		ChainOf:   cs.ChainOf,
		Preferred: func(id int) int { return pref[id] },
		MaxII:     opt.MaxII,
	})
	if err != nil {
		return nil, err
	}

	c := &Compiled{
		Schedule:     s,
		Loop:         ul,
		UnrollFactor: u,
		Profile:      p,
		Chains:       cs,
		Latency:      la,
		Preferred:    pref,
		Attractable:  attractable(ul, mems, cfg, s, p),
		Texec:        unroll.TexecEstimate(ul.AvgIters, s.SC, s.II),
	}
	return c, nil
}

// memProfiles derives the (hit rate, expected local ratio) pairs the benefit
// function needs. The local ratio is the profiled fraction of accesses to
// the cluster the instruction will target: its (chain-averaged) preferred
// cluster under IPBC; with IBC or BASE the placement is unknown, so the
// expected ratio of a blind placement (1/N) is used. Elements bigger than
// the interleaving factor can never be local.
func memProfiles(l *ir.Loop, mems []int, cfg arch.Config, p *profile.Profile, pref map[int]int, opt Options) map[int]latassign.MemProfile {
	out := make(map[int]latassign.MemProfile, len(mems))
	for _, id := range mems {
		st := p.Stats(id)
		mp := latassign.MemProfile{Hit: st.HitRate()}
		switch {
		case cfg.Org == arch.Unified:
			mp.Local = 1
		case l.Instrs[id].Mem.Gran > cfg.Interleave:
			mp.Local = 0
		case opt.Heuristic == sched.IPBC:
			mp.Local = st.LocalRatio(pref[id])
		default:
			mp.Local = 1 / float64(cfg.Clusters)
		}
		out[id] = mp
	}
	return out
}

// attractable computes the §5.2 compiler hints: when ABHints is enabled,
// only the K most beneficial loads of each cluster may allocate into that
// cluster's Attraction Buffer, with K bounded by the buffer capacity; the
// benefit of a load is its expected number of remote accesses (accesses ×
// remote ratio). Without hints every load is attractable. mems lists the
// loop's memory instructions.
func attractable(l *ir.Loop, mems []int, cfg arch.Config, s *sched.Schedule, p *profile.Profile) map[int]bool {
	out := map[int]bool{}
	for _, id := range mems {
		if l.Instrs[id].IsLoad() {
			out[id] = true
		}
	}
	if !cfg.ABHints || !cfg.AttractionBuffers {
		return out
	}
	loads := make([][]int, cfg.Clusters) // cluster -> load IDs
	for _, id := range mems {
		if l.Instrs[id].IsLoad() {
			c := s.Place[id].Cluster
			loads[c] = append(loads[c], id)
		}
	}
	// A strided load keeps several attracted subblocks live before it
	// revisits one (the two words of a subblock are N·I bytes apart, i.e.
	// up to N iterations away, of which N−1 attract something new), so K
	// must stay well below the raw entry count or the buffer thrashes.
	// HintBudget returns ABHintK when set, else the ABEntries/8 default.
	k := cfg.HintBudget()
	for c, ids := range loads {
		if len(ids) <= k {
			continue
		}
		benefit := func(id int) float64 {
			st := p.Stats(id)
			return float64(st.Accesses) * (1 - st.LocalRatio(c))
		}
		// Insertion-sort by descending benefit (stable, tiny inputs).
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && benefit(ids[j]) > benefit(ids[j-1]); j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		for _, id := range ids[k:] {
			out[id] = false
		}
	}
	return out
}
