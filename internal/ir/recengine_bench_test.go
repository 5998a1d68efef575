package ir_test

import (
	"fmt"
	"testing"

	"ivliw/internal/ir"
	"ivliw/internal/unroll"
	"ivliw/internal/workload"
)

// benchRecurrence returns the most constraining recurrence of epicdec's
// chain loop unrolled ×u — the shape that dominated the pre-engine profile
// at ×4 and dominates the 8-cluster compile at ×8.
func benchRecurrence(b *testing.B, u int) (*ir.Graph, ir.Recurrence, []int) {
	spec, ok := workload.ByName("epicdec")
	if !ok {
		b.Fatal("epicdec missing")
	}
	ul := unroll.Unroll(spec.Loops[0].Loop, u)
	g := ir.NewGraph(ul)
	assigned := ul.DefaultLatencies(15)
	recs := g.Recurrences(assigned)
	if len(recs) == 0 {
		b.Fatal("no recurrences")
	}
	return g, recs[0], assigned
}

// BenchmarkRecII compares the naive all-edges RecII against the compiled
// engine on the same component, plus the incremental perturbation query and
// the witness-cycle probe at II−1, at unroll ×4 and ×8.
func BenchmarkRecII(b *testing.B) {
	for _, u := range []int{4, 8} {
		g, rec, assigned := benchRecurrence(b, u)
		load := -1
		for _, v := range rec.Nodes {
			if g.Loop.Instrs[v].IsLoad() {
				load = v
				break
			}
		}
		b.Run(fmt.Sprintf("x%d/naive", u), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if g.RecII(rec.Nodes, assigned) != rec.II {
					b.Fatal("II mismatch")
				}
			}
		})
		b.Run(fmt.Sprintf("x%d/engine", u), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rec.Eng.II(assigned) != rec.II {
					b.Fatal("II mismatch")
				}
			}
		})
		if load >= 0 {
			b.Run(fmt.Sprintf("x%d/engine-change", u), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rec.Eng.IIWithChange(assigned, load, 1, rec.II)
				}
			})
		}
		carried := make([]bool, len(g.Loop.Instrs))
		b.Run(fmt.Sprintf("x%d/engine-witness", u), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !rec.Eng.WitnessCycle(assigned, rec.II-1, carried) {
					b.Fatal("no witness cycle at II-1")
				}
			}
		})
	}
}
