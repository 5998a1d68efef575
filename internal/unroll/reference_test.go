package unroll

import (
	"fmt"
	"reflect"
	"testing"

	"ivliw/internal/ir"
	"ivliw/internal/workload"
)

// referenceUnroll is Unroll as first written: every instruction and memory
// descriptor of the copies is allocated on its own and every name formatted
// by fmt.Sprintf. Unroll must build the same loop.
func referenceUnroll(l *ir.Loop, u int) *ir.Loop {
	if u <= 1 {
		return referenceClone(l)
	}
	n := len(l.Instrs)
	nl := &ir.Loop{
		Name:     l.Name,
		AvgIters: maxInt(1, l.AvgIters/u),
		Weight:   l.Weight,
		Unroll:   l.Unroll * u,
	}
	for j := 0; j < u; j++ {
		for _, in := range l.Instrs {
			ci := *in
			ci.ID = j*n + in.ID
			ci.Name = fmt.Sprintf("%s.u%d", in.Name, j)
			if in.Mem != nil {
				m := *in.Mem
				m.Offset += m.Stride * int64(j)
				m.Stride *= int64(u)
				ci.Mem = &m
			}
			nl.Instrs = append(nl.Instrs, &ci)
		}
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

// referenceClone is ir.Loop.Clone as first written, one allocation per
// instruction and memory descriptor.
func referenceClone(l *ir.Loop) *ir.Loop {
	nl := &ir.Loop{
		Name:     l.Name,
		Instrs:   make([]*ir.Instr, len(l.Instrs)),
		Edges:    make([]ir.Edge, len(l.Edges)),
		AvgIters: l.AvgIters,
		Weight:   l.Weight,
		Unroll:   l.Unroll,
	}
	for i, in := range l.Instrs {
		ci := *in
		if in.Mem != nil {
			m := *in.Mem
			ci.Mem = &m
		}
		nl.Instrs[i] = &ci
	}
	copy(nl.Edges, l.Edges)
	return nl
}

// referenceFactors are the unroll factors the reference tests check: 1–8,
// 16 and 32. Each individual factor divides N·I (Clusters × Interleave:
// 8, 16 and 32 at 2, 4 and 8 clusters of the Table 2 machine), so OUF does
// too, and every factor Candidates returns at 2, 4 and 8 clusters is in
// the list.
var referenceFactors = []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 32}

// referenceLoops returns every loop of the workload suite and of a seeded
// 201-loop synthetic population.
func referenceLoops(t *testing.T) []*ir.Loop {
	synth, err := workload.SynthSuite(67, 2025)
	if err != nil {
		t.Fatal(err)
	}
	var loops []*ir.Loop
	for _, b := range append(workload.Suite(), synth...) {
		for _, ls := range b.Loops {
			loops = append(loops, ls.Loop)
		}
	}
	return loops
}

// TestUnrollMatchesReference: Unroll builds the reference's loop, field for
// field, for every corpus loop at every reference factor, and leaves its
// input untouched.
func TestUnrollMatchesReference(t *testing.T) {
	for _, l := range referenceLoops(t) {
		before := referenceClone(l)
		for _, u := range referenceFactors {
			got, want := Unroll(l, u), referenceUnroll(l, u)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s ×%d: Unroll differs from the reference", l.Name, u)
			}
		}
		if !reflect.DeepEqual(l, before) {
			t.Fatalf("%s: Unroll modified its input", l.Name)
		}
	}
}
