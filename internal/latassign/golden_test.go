package latassign_test

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"ivliw/internal/arch"
	"ivliw/internal/ir"
	"ivliw/internal/latassign"
	"ivliw/internal/unroll"
	"ivliw/internal/workload"
)

// referenceAssign is the pre-engine latency-assignment pass, retained
// verbatim as the golden reference: every II is recomputed from scratch with
// the naive Graph.RecII, recurrence load lists are re-derived inside every
// bestStep call, and slack re-absorption binary-searches full RecII values.
// TestGoldenAssign asserts the engine-backed latassign.Assign produces
// bit-identical results across the whole workload suite.
func referenceAssign(l *ir.Loop, g *ir.Graph, cfg arch.Config, ld latassign.Ladder, prof map[int]latassign.MemProfile) latassign.Result {
	assigned := l.DefaultLatencies(ld.Max())
	ideal := l.DefaultLatencies(ld.Min())
	target := refRecMII(g, ideal)
	if res := ir.ResMII(l, cfg); res > target {
		target = res
	}
	res := latassign.Result{Assigned: assigned, TargetMII: target}
	for _, rec := range refRecurrences(g, assigned) {
		loads := refRecLoads(l, rec.Nodes)
		if len(loads) == 0 {
			continue
		}
		ii := g.RecII(rec.Nodes, assigned)
		last := -1
		for ii > target {
			step, ok := refBestStep(g, rec.Nodes, ld, prof, assigned, ii)
			if !ok {
				break
			}
			assigned[step.Instr] = step.To
			ii -= step.DeltaII
			last = step.Instr
			res.Steps = append(res.Steps, step)
		}
		if last >= 0 && ii < target {
			raised := refRaiseToTarget(g, rec.Nodes, assigned, last, ld.Max(), target)
			if raised != assigned[last] {
				res.Steps = append(res.Steps, latassign.Step{
					Instr: last, From: assigned[last], To: raised, Slack: true,
				})
				assigned[last] = raised
			}
		}
	}
	return res
}

func refRecMII(g *ir.Graph, assigned []int) int {
	mii := 1
	for _, r := range refRecurrences(g, assigned) {
		if r.II > mii {
			mii = r.II
		}
	}
	return mii
}

func refRecurrences(g *ir.Graph, assigned []int) []ir.Recurrence {
	var recs []ir.Recurrence
	for _, comp := range g.SCCs() {
		cyclic := len(comp) > 1
		if !cyclic {
			for _, ei := range g.Out[comp[0]] {
				if g.Loop.Edges[ei].To == comp[0] {
					cyclic = true
					break
				}
			}
		}
		if !cyclic {
			continue
		}
		recs = append(recs, ir.Recurrence{Nodes: comp, II: g.RecII(comp, assigned)})
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].II != recs[j].II {
			return recs[i].II > recs[j].II
		}
		return recs[i].Nodes[0] < recs[j].Nodes[0]
	})
	return recs
}

func refRecLoads(l *ir.Loop, nodes []int) []int {
	var loads []int
	for _, v := range nodes {
		if l.Instrs[v].IsLoad() {
			loads = append(loads, v)
		}
	}
	sort.Ints(loads)
	return loads
}

func refBestStep(g *ir.Graph, nodes []int, ld latassign.Ladder, prof map[int]latassign.MemProfile, assigned []int, curII int) (latassign.Step, bool) {
	best := latassign.Step{B: math.Inf(-1)}
	found := false
	for _, m := range refRecLoads(g.Loop, nodes) {
		cur := assigned[m]
		p := prof[m]
		oldStall := latassign.ExpectedStall(ld, p, cur)
		for _, la := range ld {
			if la >= cur {
				continue
			}
			assigned[m] = la
			newII := g.RecII(nodes, assigned)
			assigned[m] = cur
			dII := curII - newII
			dStall := latassign.ExpectedStall(ld, p, la) - oldStall
			b := refBenefit(dII, dStall)
			if !found || refBetter(b, dII, m, la, best) {
				best = latassign.Step{Instr: m, From: cur, To: la, DeltaII: dII, DeltaStall: dStall, B: b}
				found = true
			}
		}
	}
	if !found || best.DeltaII <= 0 {
		return latassign.Step{}, false
	}
	return best, true
}

func refBenefit(dII int, dStall float64) float64 {
	if dStall <= 0 {
		return math.Inf(1)
	}
	return float64(dII) / dStall
}

func refBetter(b float64, dII, instr, la int, cur latassign.Step) bool {
	switch {
	case b != cur.B:
		return b > cur.B
	case dII != cur.DeltaII:
		return dII > cur.DeltaII
	case instr != cur.Instr:
		return instr < cur.Instr
	default:
		return la > cur.To
	}
}

func refRaiseToTarget(g *ir.Graph, nodes []int, assigned []int, last, maxLat, target int) int {
	lo, hi := assigned[last], maxLat
	saved := assigned[last]
	for lo < hi {
		mid := (lo + hi + 1) / 2
		assigned[last] = mid
		if g.RecII(nodes, assigned) <= target {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	assigned[last] = saved
	return lo
}

// synthProfiles derives deterministic hit/local profiles from instruction
// IDs, covering the benefit function's whole input range.
func synthProfiles(l *ir.Loop) map[int]latassign.MemProfile {
	prof := map[int]latassign.MemProfile{}
	for _, id := range l.MemInstrs() {
		prof[id] = latassign.MemProfile{
			Hit:   float64((id*7)%11) / 10,
			Local: float64((id*3)%5) / 4,
		}
	}
	return prof
}

// TestGoldenAssign: the engine-backed Assign must be bit-identical to the
// naive reference — Steps (including benefit values), Assigned and
// TargetMII — on every loop of the workload suite, at unroll factors 1 and
// 4, under both ladders, with synthetic and worst-case (empty) profiles.
func TestGoldenAssign(t *testing.T) {
	icfg := arch.Default()
	ucfg := arch.UnifiedConfig(5)
	cases := []struct {
		name string
		cfg  arch.Config
		ld   latassign.Ladder
	}{
		{"interleaved", icfg, latassign.InterleavedLadder(icfg)},
		{"unified", ucfg, latassign.UnifiedLadder(ucfg)},
	}
	for _, spec := range workload.Suite() {
		for _, ls := range spec.Loops {
			for _, u := range []int{1, 4} {
				ul := unroll.Unroll(ls.Loop, u)
				g := ir.NewGraph(ul)
				for _, c := range cases {
					for _, prof := range []map[int]latassign.MemProfile{synthProfiles(ul), nil} {
						label := fmt.Sprintf("%s/%s/u%d/%s/prof=%v", spec.Name, ls.Loop.Name, u, c.name, prof != nil)
						want := referenceAssign(ul, g, c.cfg, c.ld, prof)
						got := latassign.Assign(ul, g, c.cfg, c.ld, prof)
						if got.TargetMII != want.TargetMII {
							t.Errorf("%s: TargetMII = %d, want %d", label, got.TargetMII, want.TargetMII)
						}
						if !reflect.DeepEqual(got.Assigned, want.Assigned) {
							t.Errorf("%s: Assigned = %v, want %v", label, got.Assigned, want.Assigned)
						}
						if !reflect.DeepEqual(got.Steps, want.Steps) {
							t.Errorf("%s: Steps = %+v, want %+v", label, got.Steps, want.Steps)
						}
					}
				}
			}
		}
	}
}

// TestGoldenAssignNonAscendingLadder: arch.Config.Validate permits machines
// whose remote-hit latency exceeds the local-miss latency, giving a ladder
// that is not ascending. The warm-bound chaining in bestStep must reset on
// such out-of-order candidates and still match the order-insensitive naive
// reference.
func TestGoldenAssignNonAscendingLadder(t *testing.T) {
	cfg := arch.Default()
	ld := latassign.Ladder{1, 11, 10, 21}
	for _, spec := range workload.Suite() {
		for _, ls := range spec.Loops {
			for _, u := range []int{1, 4} {
				ul := unroll.Unroll(ls.Loop, u)
				g := ir.NewGraph(ul)
				label := fmt.Sprintf("%s/%s/u%d", spec.Name, ls.Loop.Name, u)
				want := referenceAssign(ul, g, cfg, ld, synthProfiles(ul))
				got := latassign.Assign(ul, g, cfg, ld, synthProfiles(ul))
				if got.TargetMII != want.TargetMII {
					t.Errorf("%s: TargetMII = %d, want %d", label, got.TargetMII, want.TargetMII)
				}
				if !reflect.DeepEqual(got.Assigned, want.Assigned) {
					t.Errorf("%s: Assigned = %v, want %v", label, got.Assigned, want.Assigned)
				}
				if !reflect.DeepEqual(got.Steps, want.Steps) {
					t.Errorf("%s: Steps = %+v, want %+v", label, got.Steps, want.Steps)
				}
			}
		}
	}
}

// BenchmarkLatAssign measures the full latency-assignment pass on the shape
// that dominated the pre-engine profile (epicdec's 19-memory-op chain loop)
// at the 4- and 8-cluster unroll factors. ×8 has the longest recurrences
// and the most candidate loads, so it shows how the pass scales.
func BenchmarkLatAssign(b *testing.B) {
	spec, ok := workload.ByName("epicdec")
	if !ok {
		b.Fatal("epicdec missing")
	}
	cfg := arch.Default()
	ld := latassign.InterleavedLadder(cfg)
	for _, u := range []int{4, 8} {
		ul := unroll.Unroll(spec.Loops[0].Loop, u)
		g := ir.NewGraph(ul)
		prof := synthProfiles(ul)
		b.Run(fmt.Sprintf("x%d", u), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				latassign.Assign(ul, g, cfg, ld, prof)
			}
		})
	}
}
