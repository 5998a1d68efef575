// Package ir defines the loop intermediate representation consumed by the
// scheduling techniques: instructions with opcode classes and memory access
// descriptors, dependence edges (register flow/anti/output and memory
// dependences) carrying iteration distances, and the data dependence graph
// with recurrence (SCC) detection and initiation-interval lower bounds.
//
// The representation corresponds to what the IMPACT-based infrastructure of
// the paper hands to the modulo scheduler after hyperblock formation and
// memory disambiguation: a single innermost-loop body whose memory edges are
// conservative (an unresolved reference pair carries a dependence).
package ir

import (
	"fmt"
	"slices"
)

// OpClass classifies an instruction by the functional unit it needs and the
// default latency of its result.
type OpClass int

const (
	OpIntALU OpClass = iota // add/sub/logic: int unit, latency 1
	OpMul                   // integer multiply: int unit, latency 2
	OpDiv                   // divide: fp unit, latency 6 (paper example n7)
	OpFPALU                 // fp add/sub/mul: fp unit, latency 2
	OpLoad                  // memory load: mem unit, latency assigned by compiler
	OpStore                 // memory store: mem unit, latency 1
	OpCopy                  // inter-cluster register copy (inserted by scheduler)
	NumOpClasses
)

// String returns the mnemonic class name.
func (c OpClass) String() string {
	switch c {
	case OpIntALU:
		return "int"
	case OpMul:
		return "mul"
	case OpDiv:
		return "div"
	case OpFPALU:
		return "fp"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpCopy:
		return "copy"
	}
	return fmt.Sprintf("OpClass(%d)", int(c))
}

// IsMem reports whether the class is a memory operation.
func (c OpClass) IsMem() bool { return c == OpLoad || c == OpStore }

// DefaultLatency returns the fixed result latency of non-memory classes and
// the store latency; loads have compiler-assigned latencies and return 0.
func (c OpClass) DefaultLatency() int {
	switch c {
	case OpIntALU:
		return 1
	case OpMul:
		return 2
	case OpDiv:
		return 6
	case OpFPALU:
		return 2
	case OpStore:
		return 1
	case OpCopy:
		return 2
	}
	return 0
}

// AllocKind identifies where a symbol's storage lives; it controls which
// alignment policy (§4.3.4) applies to its base address.
type AllocKind int

const (
	AllocGlobal AllocKind = iota // globals: fixed placement, never padded
	AllocStack                   // locals/parameters: aligned via stack-frame padding
	AllocHeap                    // dynamic data: aligned via the malloc family
)

// String returns the allocation-kind name.
func (k AllocKind) String() string {
	switch k {
	case AllocGlobal:
		return "global"
	case AllocStack:
		return "stack"
	case AllocHeap:
		return "heap"
	}
	return fmt.Sprintf("AllocKind(%d)", int(k))
}

// MemInfo describes the address behaviour of a memory instruction as the
// compiler sees it: the accessed symbol, the compile-time stride (if known),
// the access granularity, and whether the address is computed from a
// previously loaded value (an indirect access of the form a[b[i]]).
type MemInfo struct {
	// Sym names the accessed array/variable; base addresses are assigned
	// per symbol by the allocation model.
	Sym string
	// Kind is the symbol's storage class (controls alignment policy).
	Kind AllocKind
	// Offset is the byte offset of the iteration-0 access from the base.
	Offset int64
	// Stride is the byte stride per original (pre-unrolling) iteration.
	Stride int64
	// StrideKnown reports whether the compiler could determine Stride.
	StrideKnown bool
	// Gran is the accessed element size in bytes (1, 2, 4 or 8).
	Gran int
	// Indirect marks accesses whose address depends on a loaded value;
	// their effective addresses spread over IndirectSpan bytes.
	Indirect bool
	// IndirectSpan is the byte range over which indirect accesses spread.
	IndirectSpan int64
	// SymBytes is the extent of the symbol in bytes (its working set).
	SymBytes int64
}

// Instr is one operation of the loop body.
type Instr struct {
	// ID is the dense index of the instruction in its Loop.
	ID int
	// Name is a human-readable label ("n1", "ld a[i]", ...).
	Name string
	// Class selects the functional unit and default latency.
	Class OpClass
	// Mem is non-nil for loads and stores.
	Mem *MemInfo
}

// IsMem reports whether the instruction is a load or a store.
func (in *Instr) IsMem() bool { return in.Class.IsMem() }

// IsLoad reports whether the instruction is a load.
func (in *Instr) IsLoad() bool { return in.Class == OpLoad }

// DepKind classifies a dependence edge.
type DepKind int

const (
	// RegFlow is a register true dependence: the consumer must issue at
	// least the producer's latency after the producer.
	RegFlow DepKind = iota
	// RegAnti is a register anti dependence: the (re)writer may issue in
	// the same cycle as the reader (latency 0).
	RegAnti
	// RegOut is a register output dependence (latency 1).
	RegOut
	// MemDep is a memory dependence (true, anti, output, or unresolved);
	// the scheduler keeps both endpoints in one cluster (chains) and the
	// cluster's memory unit serializes them (latency 1).
	MemDep
)

// String returns the dependence-kind name.
func (k DepKind) String() string {
	switch k {
	case RegFlow:
		return "RF"
	case RegAnti:
		return "RA"
	case RegOut:
		return "RO"
	case MemDep:
		return "MA"
	}
	return fmt.Sprintf("DepKind(%d)", int(k))
}

// Edge is a dependence from instruction From to instruction To with the
// given iteration distance (0 = same iteration).
type Edge struct {
	From, To int
	Kind     DepKind
	Distance int
}

// Loop is a single innermost loop: its body instructions, its dependence
// edges, and profile-facing metadata.
type Loop struct {
	// Name identifies the loop in reports ("jpegenc.loop67").
	Name string
	// Instrs is the loop body, indexed by Instr.ID.
	Instrs []*Instr
	// Edges are all dependences among body instructions.
	Edges []Edge
	// AvgIters is the profiled average trip count of the loop.
	AvgIters int
	// Weight scales the loop's contribution to whole-benchmark numbers
	// (its share of the dynamic instruction stream).
	Weight float64
	// Unroll is the unrolling factor already applied to this body
	// (1 = original). Set by the unroller.
	Unroll int
}

// Validate reports an error if the loop is structurally inconsistent.
func (l *Loop) Validate() error {
	for i, in := range l.Instrs {
		if in == nil {
			return fmt.Errorf("ir: loop %s: nil instruction at %d", l.Name, i)
		}
		if in.ID != i {
			return fmt.Errorf("ir: loop %s: instruction %q has ID %d at index %d", l.Name, in.Name, in.ID, i)
		}
		if in.IsMem() != (in.Mem != nil) {
			return fmt.Errorf("ir: loop %s: instruction %q mem info mismatch", l.Name, in.Name)
		}
		if in.Mem != nil && in.Mem.Gran <= 0 {
			return fmt.Errorf("ir: loop %s: instruction %q has granularity %d", l.Name, in.Name, in.Mem.Gran)
		}
	}
	for _, e := range l.Edges {
		if e.From < 0 || e.From >= len(l.Instrs) || e.To < 0 || e.To >= len(l.Instrs) {
			return fmt.Errorf("ir: loop %s: edge %v out of range", l.Name, e)
		}
		if e.Distance < 0 {
			return fmt.Errorf("ir: loop %s: edge %v has negative distance", l.Name, e)
		}
		if e.Kind == MemDep && (!l.Instrs[e.From].IsMem() || !l.Instrs[e.To].IsMem()) {
			return fmt.Errorf("ir: loop %s: memory edge %v between non-memory instructions", l.Name, e)
		}
	}
	if v := zeroDistanceCycle(l); v >= 0 {
		return fmt.Errorf("ir: loop %s: instruction %q lies on a dependence cycle of distance 0, which no II satisfies", l.Name, l.Instrs[v].Name)
	}
	if l.AvgIters < 0 {
		return fmt.Errorf("ir: loop %s: negative AvgIters %d", l.Name, l.AvgIters)
	}
	return nil
}

// zeroDistanceCycle returns an instruction on a cycle of the loop's
// distance-0 edges, or -1 if they are acyclic. When every distance-0 edge
// points to a later instruction, body order is a topological order. The
// workload suite's loops and their unrolled copies are of that kind, so
// Validate usually allocates nothing here. Otherwise every node the
// topological sort leaves out keeps an in-edge from another such node, so
// walking those edges back |Instrs| times ends on a cycle.
func zeroDistanceCycle(l *Loop) int {
	if !slices.ContainsFunc(l.Edges, func(e Edge) bool { return e.Distance == 0 && e.From >= e.To }) {
		return -1
	}
	var arcs [][2]int
	for _, e := range l.Edges {
		if e.Distance == 0 {
			arcs = append(arcs, [2]int{e.From, e.To})
		}
	}
	n := len(l.Instrs)
	order := topoOrder(n, arcs)
	if len(order) == n {
		return -1
	}
	sorted := make([]bool, n)
	for _, v := range order {
		sorted[v] = true
	}
	back := make([]int, n)
	v := -1
	for _, a := range arcs {
		if !sorted[a[0]] {
			back[a[1]] = a[0]
			v = a[1]
		}
	}
	for range n {
		v = back[v]
	}
	return v
}

// MemInstrs returns the IDs of all memory instructions in body order.
func (l *Loop) MemInstrs() []int {
	count := 0
	for _, in := range l.Instrs {
		if in.IsMem() {
			count++
		}
	}
	if count == 0 {
		return nil
	}
	ids := make([]int, 0, count)
	for _, in := range l.Instrs {
		if in.IsMem() {
			ids = append(ids, in.ID)
		}
	}
	return ids
}

// Clone returns a deep copy of the loop (instructions and edges). The
// copied instructions and memory descriptors live in one backing array each.
func (l *Loop) Clone() *Loop {
	nl := &Loop{
		Name:     l.Name,
		Instrs:   make([]*Instr, len(l.Instrs)),
		Edges:    make([]Edge, len(l.Edges)),
		AvgIters: l.AvgIters,
		Weight:   l.Weight,
		Unroll:   l.Unroll,
	}
	mems := 0
	for _, in := range l.Instrs {
		if in.Mem != nil {
			mems++
		}
	}
	instrs := make([]Instr, len(l.Instrs))
	memInfos := make([]MemInfo, mems)
	for i, in := range l.Instrs {
		ci := &instrs[i]
		*ci = *in
		if in.Mem != nil {
			m := &memInfos[0]
			memInfos = memInfos[1:]
			*m = *in.Mem
			ci.Mem = m
		}
		nl.Instrs[i] = ci
	}
	copy(nl.Edges, l.Edges)
	return nl
}

// EdgeLatency returns the scheduling latency of edge e given the assigned
// latencies of the loop's instructions (indexed by instruction ID). Register
// flow edges carry the producer's latency; anti edges allow same-cycle
// issue; output and memory edges require one cycle of separation.
func (l *Loop) EdgeLatency(e Edge, assigned []int) int {
	switch e.Kind {
	case RegFlow:
		return assigned[e.From]
	case RegAnti:
		return 0
	case RegOut, MemDep:
		return 1
	}
	//ivliw:invariant exhaustive switch over the dependence Kind enum; new kinds extend the switch
	panic(fmt.Sprintf("ir: unknown dependence kind %d", int(e.Kind)))
}

// DefaultLatencies returns the per-instruction latency vector before the
// latency-assignment pass runs: fixed latencies for non-loads, and the
// provided initial load latency (the paper starts loads at remote miss).
func (l *Loop) DefaultLatencies(loadLat int) []int {
	lat := make([]int, len(l.Instrs))
	for i, in := range l.Instrs {
		if in.IsLoad() {
			lat[i] = loadLat
		} else {
			lat[i] = in.Class.DefaultLatency()
		}
	}
	return lat
}
