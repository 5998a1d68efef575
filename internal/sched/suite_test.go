package sched

import (
	"fmt"

	"ivliw/internal/addrspace"
	"ivliw/internal/arch"
	"ivliw/internal/chains"
	"ivliw/internal/ir"
	"ivliw/internal/latassign"
	"ivliw/internal/profile"
	"ivliw/internal/sms"
	"ivliw/internal/unroll"
	"ivliw/internal/workload"
)

// unrollPolicy mirrors the core package's unrolling modes that the paper's
// figures compile with.
type unrollPolicy int

const (
	noUnroll unrollPolicy = iota
	oufUnroll
	selectiveUnroll
)

// suiteConfig is one compile configuration, reduced to what reaches the
// scheduler's inputs. The Attraction Buffer variants of Figures 6 and 8
// compile to the same inputs as their buffer-less twins, so they are not
// listed separately.
type suiteConfig struct {
	name     string
	cfg      arch.Config
	h        Heuristic
	unroll   unrollPolicy
	aligned  bool
	noChains bool
}

func interleavedConfig(name string, clusters int, h Heuristic, u unrollPolicy, aligned, noChains bool) suiteConfig {
	cfg := arch.Default()
	cfg.Clusters = clusters
	return suiteConfig{name: name, cfg: cfg, h: h, unroll: u, aligned: aligned, noChains: noChains}
}

// figureConfigs returns every compile configuration of `ivliw-bench -exp
// all` (Figures 4–8 on the 4-cluster machine) plus IPBC with selective
// unrolling on 2 and 8 clusters.
func figureConfigs() []suiteConfig {
	return []suiteConfig{
		interleavedConfig("IPBC no-unroll", 4, IPBC, noUnroll, true, false),
		interleavedConfig("IPBC OUF no-align", 4, IPBC, oufUnroll, false, false),
		interleavedConfig("IPBC OUF", 4, IPBC, oufUnroll, true, false),
		interleavedConfig("IPBC OUF no-chains", 4, IPBC, oufUnroll, true, true),
		interleavedConfig("IBC", 4, IBC, selectiveUnroll, true, false),
		interleavedConfig("IPBC", 4, IPBC, selectiveUnroll, true, false),
		interleavedConfig("IPBC c2", 2, IPBC, selectiveUnroll, true, false),
		interleavedConfig("IPBC c8", 8, IPBC, selectiveUnroll, true, false),
		{name: "MultiVLIW", cfg: arch.MultiVLIWConfig(), h: IBC, unroll: selectiveUnroll, aligned: true},
		{name: "Unified L=1", cfg: arch.UnifiedConfig(1), h: Base, unroll: selectiveUnroll, aligned: true},
		{name: "Unified L=5", cfg: arch.UnifiedConfig(5), h: Base, unroll: selectiveUnroll, aligned: true},
	}
}

// runInput is the argument list of one Run call.
type runInput struct {
	name     string
	loop     *ir.Loop
	g        *ir.Graph
	cfg      arch.Config
	assigned []int
	order    []int
	opt      Options
}

// suiteInputs builds the Run inputs of one configuration over the 14-benchmark
// suite through the real compile stages — unroll, profile, chains, latency
// assignment, swing ordering — exactly as core.Compile feeds the scheduler:
// one input per loop and unroll candidate.
func suiteInputs(sc suiteConfig) []runInput {
	cfg := sc.cfg
	h := sc.h
	if cfg.Org == arch.Unified {
		h = Base
	}
	var out []runInput
	for _, bench := range workload.Suite() {
		ds := addrspace.Dataset{Seed: bench.ProfileSeed, Aligned: sc.aligned}
		lay := addrspace.NewLayout(bench.AllLoops(), cfg, ds)
		for _, ls := range bench.Loops {
			l := ls.Loop
			cands := []int{1}
			if sc.unroll != noUnroll {
				p := profile.Run(l, lay, ds, cfg, l.AvgIters)
				hit := func(id int) float64 { return p.HitRate(id) }
				if sc.unroll == oufUnroll {
					cands = []int{unroll.OUF(l, cfg, hit)}
				} else {
					cands = unroll.Candidates(l, cfg, hit)
				}
			}
			for _, u := range cands {
				in := stagedInput(l, u, cfg, lay, ds, h, sc.noChains)
				in.name = fmt.Sprintf("%s/%s/%s/u%d", sc.name, bench.Name, l.Name, u)
				out = append(out, in)
			}
		}
	}
	return out
}

// stagedInput runs compile steps 1–3 on l unrolled by u.
func stagedInput(l *ir.Loop, u int, cfg arch.Config, lay *addrspace.Layout, ds addrspace.Dataset, h Heuristic, noChains bool) runInput {
	ul := unroll.Unroll(l, u)
	g := ir.NewGraph(ul)
	p := profile.Run(ul, lay, ds, cfg, ul.AvgIters)
	cs := chains.Build(ul)
	pref := map[int]int{}
	for _, id := range ul.MemInstrs() {
		pref[id] = p.Stats(id).Preferred()
	}
	if !noChains {
		for _, ch := range cs.Chains {
			avg := ch.AveragePreferred(cfg.Clusters, func(id int) []float64 {
				return p.Stats(id).HistFloat()
			})
			for _, m := range ch.Members {
				pref[m] = avg
			}
		}
	}
	ladder := latassign.InterleavedLadder(cfg)
	if cfg.Org == arch.Unified {
		ladder = latassign.UnifiedLadder(cfg)
	}
	prof := map[int]latassign.MemProfile{}
	for _, id := range ul.MemInstrs() {
		st := p.Stats(id)
		mp := latassign.MemProfile{Hit: st.HitRate()}
		switch {
		case cfg.Org == arch.Unified:
			mp.Local = 1
		case ul.Instrs[id].Mem.Gran > cfg.Interleave:
			mp.Local = 0
		case h == IPBC:
			mp.Local = st.LocalRatio(pref[id])
		default:
			mp.Local = 1 / float64(cfg.Clusters)
		}
		prof[id] = mp
	}
	la := latassign.Assign(ul, g, cfg, ladder, prof)
	return runInput{
		loop: ul, g: g, cfg: cfg, assigned: la.Assigned, order: sms.Order(g, la.Assigned),
		opt: Options{
			Heuristic: h,
			NoChains:  noChains,
			ChainOf:   cs.ChainOf,
			Preferred: func(id int) int { return pref[id] },
		},
	}
}

func (in runInput) run() (*Schedule, error) {
	return Run(in.loop, in.g, in.cfg, in.assigned, in.order, in.opt)
}

func (in runInput) runReference() (*Schedule, error) {
	return referenceRun(in.loop, in.g, in.cfg, in.assigned, in.order, in.opt)
}
