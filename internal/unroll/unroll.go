// Package unroll implements the unrolling step of the proposed algorithm
// (§4.3.1 Step 1): per-instruction individual unrolling factors
//
//	Ui = N·I / gcd(N·I, Si mod N·I)
//
// the loop's optimal unrolling factor OUF = lcm(Ui) (capped at N·I), the
// body replication transform, and the candidate set used by selective
// unrolling (no unrolling, unroll×N, OUF).
package unroll

import (
	"strconv"

	"ivliw/internal/arch"
	"ivliw/internal/ir"
)

// IndividualFactor returns the individual unrolling factor of a memory
// instruction and whether the instruction participates in the OUF analysis.
// An instruction is considered only if it has a known stride, a hit rate
// greater than zero, and an access granularity not larger than the
// interleaving factor.
func IndividualFactor(m *ir.MemInfo, cfg arch.Config, hitRate float64) (int, bool) {
	if m == nil || !m.StrideKnown || m.Indirect || hitRate <= 0 || m.Gran > cfg.Interleave {
		return 1, false
	}
	ni := int64(cfg.NI())
	s := m.Stride % ni
	if s < 0 {
		s += ni
	}
	u := ni / gcd64(ni, s)
	return int(u), true
}

// OUF returns the optimal unrolling factor of the loop: the least common
// multiple of the individual factors of its considered memory instructions,
// capped at N·I. hitRate supplies the profiled hit rate per instruction ID.
func OUF(l *ir.Loop, cfg arch.Config, hitRate func(id int) float64) int {
	ni := cfg.NI()
	uf := 1
	for _, in := range l.Instrs {
		if !in.IsMem() {
			continue
		}
		u, ok := IndividualFactor(in.Mem, cfg, hitRate(in.ID))
		if !ok {
			continue
		}
		uf = lcm(uf, u)
		if uf >= ni {
			return ni
		}
	}
	return uf
}

// Candidates returns the distinct unrolling factors explored by selective
// unrolling, in increasing order: 1 (no unrolling), N (unroll×N) and OUF.
func Candidates(l *ir.Loop, cfg arch.Config, hitRate func(id int) float64) []int {
	set := map[int]bool{1: true, cfg.Clusters: true, OUF(l, cfg, hitRate): true}
	var out []int
	for u := 1; u <= cfg.NI(); u++ {
		if set[u] {
			out = append(out, u)
		}
	}
	return out
}

// Unroll replicates the loop body u times. Memory offsets of copy j advance
// by j original strides and every stride is multiplied by u, so that after
// OUF unrolling each strided access has a stride multiple of N·I and
// references one and only one cache module. A dependence (a→b, distance d)
// becomes, for each copy j, an edge from a's copy j to b's copy (j+d) mod u
// with distance (j+d) div u. The trip count shrinks accordingly.
//
// The copies' instructions and memory descriptors live in one backing array
// each, and their names ("<name>.u<j>" for copy j) in one string.
func Unroll(l *ir.Loop, u int) *ir.Loop {
	if u <= 1 {
		return l.Clone()
	}
	n := len(l.Instrs)
	nl := &ir.Loop{
		Name:     l.Name,
		AvgIters: maxInt(1, l.AvgIters/u),
		Weight:   l.Weight,
		Unroll:   l.Unroll * u,
	}
	mems, nameBytes := 0, 0
	for _, in := range l.Instrs {
		if in.Mem != nil {
			mems++
		}
		nameBytes += len(in.Name)
	}
	if n > 0 {
		nl.Instrs = make([]*ir.Instr, 0, u*n)
	}
	instrs := make([]ir.Instr, u*n)
	memInfos := make([]ir.MemInfo, u*mems)
	// Every copy's name is a substring of one string holding them all:
	// name k spans names[bounds[k]:bounds[k+1]].
	buf := make([]byte, 0, u*(nameBytes+n*len(".u"+strconv.Itoa(u-1))))
	bounds := make([]int, 1, u*n+1)
	for j := 0; j < u; j++ {
		for _, in := range l.Instrs {
			buf = append(buf, in.Name...)
			buf = append(buf, ".u"...)
			buf = strconv.AppendInt(buf, int64(j), 10)
			bounds = append(bounds, len(buf))
		}
	}
	names := string(buf)
	for j := 0; j < u; j++ {
		for _, in := range l.Instrs {
			k := len(nl.Instrs)
			ci := &instrs[k]
			*ci = *in
			ci.ID = j*n + in.ID
			ci.Name = names[bounds[k]:bounds[k+1]]
			if in.Mem != nil {
				m := &memInfos[0]
				memInfos = memInfos[1:]
				*m = *in.Mem
				m.Offset += m.Stride * int64(j)
				m.Stride *= int64(u)
				ci.Mem = m
			}
			nl.Instrs = append(nl.Instrs, ci)
		}
	}
	if len(l.Edges) > 0 {
		nl.Edges = make([]ir.Edge, 0, u*len(l.Edges))
	}
	for _, e := range l.Edges {
		for j := 0; j < u; j++ {
			tj := j + e.Distance
			nl.Edges = append(nl.Edges, ir.Edge{
				From:     j*n + e.From,
				To:       (tj%u)*n + e.To,
				Kind:     e.Kind,
				Distance: tj / u,
			})
		}
	}
	return nl
}

// TexecEstimate is the execution-time estimate used by selective unrolling:
// Texec = (avgIters + SC − 1) × II, where avgIters is the trip count of the
// (already unrolled) loop.
func TexecEstimate(avgIters, sc, ii int) int64 {
	return int64(avgIters+sc-1) * int64(ii)
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func lcm(a, b int) int {
	if a == 0 || b == 0 {
		return maxInt(a, b)
	}
	return a / int(gcd64(int64(a), int64(b))) * b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
