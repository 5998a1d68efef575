// Package paperex builds the worked example of §4.3.3 (Figure 3 of the
// paper): an 8-node data dependence graph with two recurrences whose latency
// assignment, ordering and cluster assignment are spelled out in the text.
// It is shared by unit tests, the root package's Example_latencyWalkthrough
// and the documentation.
package paperex

import "ivliw/internal/ir"

// Node IDs of the Figure 3 DDG as returned by Loop. The numbering follows
// the paper's n1..n8 labels.
type Nodes struct {
	N1, N2, N3, N4, N5, N6, N7, N8 int
}

// Loop returns the Figure 3 DDG.
//
// REC1 is the cycle n1 → n2 → n3 → n4 —(memory dep, distance 1)→ n1 with n5
// feeding n1. n1 and n2 are loads with unknown latency, n3 is a 2-cycle
// operation, n4 is a store; the recurrence II is lat(n1)+lat(n2)+3, i.e. 33
// when both loads carry the remote-miss latency (15) and 5 when both are
// local hits — exactly the paper's numbers. REC2 is the cycle n6 → n7 → n8
// —(distance 1)→ n6 with a 6-cycle divide: II = lat(n6)+7, i.e. 22 at remote
// miss and 8 at local hit. n1, n2 and n4 form a memory dependent chain.
func Loop() (*ir.Loop, Nodes) {
	b := ir.NewBuilder("paper.fig3", 1000, 1)
	n5 := b.Op("n5.sub", ir.OpIntALU)
	n1 := b.Load("n1.load", ir.MemInfo{Sym: "A", Kind: ir.AllocHeap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
	n2 := b.Load("n2.load", ir.MemInfo{Sym: "A", Kind: ir.AllocHeap, Offset: 2048, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
	n3 := b.Op("n3.mul", ir.OpMul)
	n4 := b.Store("n4.store", ir.MemInfo{Sym: "B", Kind: ir.AllocHeap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
	n6 := b.Load("n6.load", ir.MemInfo{Sym: "C", Kind: ir.AllocHeap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
	n7 := b.Op("n7.div", ir.OpDiv)
	n8 := b.Op("n8.add", ir.OpIntALU)

	// REC1: n1 -> n2 -> n3 -> n4, closed by a distance-1 memory
	// dependence (the store conflicts with next iteration's loads), plus
	// the chain edges among n1, n2 and n4.
	b.Flow(n5, n1)
	b.Flow(n1, n2)
	b.Flow(n2, n3)
	b.Flow(n3, n4)
	b.MemEdge(n4, n1, 1)
	b.MemEdge(n1, n4, 0) // load before store within the iteration
	b.MemEdge(n2, n4, 0)
	// Register anti dependence inside REC1 (schedulable same cycle).
	b.Anti(n4, n3, 1)

	// REC2: n6 -> n7 -> n8, closed by a distance-1 flow dependence.
	b.Flow(n6, n7)
	b.Flow(n7, n8)
	b.FlowD(n8, n6, 1)

	return b.MustBuild(), Nodes{N1: n1, N2: n2, N3: n3, N4: n4, N5: n5, N6: n6, N7: n7, N8: n8}
}

// Profile is the (hit rate, local-access ratio) annotation of a memory
// instruction in Figure 3.
type Profile struct {
	Hit, Local float64
}

// Profiles returns the profile annotations of Figure 3: n1 has hit rate 0.6
// and local-access ratio 0.5; n2 has hit rate 0.9 and ratio 0.5; n6 is shown
// with preferred cluster 2 (hit rate not used in the walkthrough — we give
// it 0.9/0.5 so its benefit steps terminate the same way).
func Profiles(n Nodes) map[int]Profile {
	return map[int]Profile{
		n.N1: {Hit: 0.6, Local: 0.5},
		n.N2: {Hit: 0.9, Local: 0.5},
		n.N6: {Hit: 0.9, Local: 0.5},
	}
}

// PreferredClusters returns the preferred-cluster annotations of Figure 3
// using 0-based cluster indices (the paper's cluster 1 is index 0): n1 and
// n2 prefer cluster 0, n4 and n6 prefer cluster 1.
func PreferredClusters(n Nodes) map[int]int {
	return map[int]int{n.N1: 0, n.N2: 0, n.N4: 1, n.N6: 1}
}
