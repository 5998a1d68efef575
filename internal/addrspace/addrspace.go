// Package addrspace models the data layout of a benchmark: base addresses
// for global, stack and heap symbols, the variable-alignment policy of
// §4.3.4 (stack frames and the malloc family padded to an N·I boundary;
// globals never padded), and deterministic per-access address generation for
// strided and indirect memory instructions.
//
// Two Datasets with different seeds model the paper's profile vs execution
// input files: unaligned stack/heap bases land at different offsets modulo
// N·I across datasets (the gsmdec anecdote, where the preferred cluster of
// an operation moved from cluster 1 to cluster 3 with a different input),
// while globals keep their position.
package addrspace

import (
	"sort"

	"ivliw/internal/arch"
	"ivliw/internal/ir"
)

// Dataset identifies one input data set and the alignment policy in force.
type Dataset struct {
	// Seed drives base-address perturbation and indirect access patterns.
	Seed uint64
	// Aligned enables variable alignment: stack and heap symbols are
	// padded to an N·I boundary.
	Aligned bool
}

// Region base addresses. They are far apart so symbols never collide and
// each is N·I-aligned for every sensible configuration.
const (
	globalBase = int64(0x1000_0000)
	stackBase  = int64(0x2000_0000)
	heapBase   = int64(0x3000_0000)
)

// Layout assigns a base address to every symbol referenced by a set of
// loops.
type Layout struct {
	bases map[string]int64
	ni    int64
}

// NewLayout places every symbol of the given loops. Symbols are placed in
// sorted order within their region so that layout is independent of loop
// order; each unaligned stack/heap symbol receives a dataset-dependent
// misalignment in [0, N·I) rounded to its granularity.
func NewLayout(loops []*ir.Loop, cfg arch.Config, ds Dataset) *Layout {
	type symInfo struct {
		kind  ir.AllocKind
		bytes int64
		gran  int64
	}
	syms := map[string]symInfo{}
	for _, l := range loops {
		for _, in := range l.Instrs {
			if in.Mem == nil {
				continue
			}
			si := syms[in.Mem.Sym]
			si.kind = in.Mem.Kind
			if in.Mem.SymBytes > si.bytes {
				si.bytes = in.Mem.SymBytes
			}
			if g := int64(in.Mem.Gran); g > si.gran {
				si.gran = g
			}
			syms[in.Mem.Sym] = si
		}
	}
	names := make([]string, 0, len(syms))
	for n := range syms {
		names = append(names, n)
	}
	sort.Strings(names)

	ni := int64(cfg.NI())
	lay := &Layout{bases: make(map[string]int64, len(syms)), ni: ni}
	next := map[ir.AllocKind]int64{
		ir.AllocGlobal: globalBase,
		ir.AllocStack:  stackBase,
		ir.AllocHeap:   heapBase,
	}
	for _, name := range names {
		si := syms[name]
		base := roundUp(next[si.kind], ni)
		switch {
		case si.kind == ir.AllocGlobal:
			// Globals always map to the same position regardless of
			// the input file; their (mis)alignment is a fixed
			// property of the binary, derived from the symbol name.
			base += align(int64(mix(hashString(name), 0))%ni, si.gran, ni)
		case ds.Aligned:
			// Variable alignment: padded to an N·I boundary.
		default:
			// No padding: the base lands wherever the allocator or
			// the stack pointer happened to be for this input.
			base += align(int64(mix(hashString(name), ds.Seed))%ni, si.gran, ni)
		}
		lay.bases[name] = base
		next[si.kind] = base + si.bytes + ni // guard gap
	}
	return lay
}

// Base returns the assigned base address of the symbol (0 if unknown).
func (lay *Layout) Base(sym string) int64 { return lay.bases[sym] }

// Resolves reports whether the layout assigned a base to the symbol —
// i.e. whether a loop referencing it was part of the set the layout was
// built over. Unknown symbols fall to address 0, so consumers of foreign
// schedules should check before simulating.
func (lay *Layout) Resolves(sym string) bool {
	_, ok := lay.bases[sym]
	return ok
}

// Addr returns the effective address of one execution of a memory
// instruction at the given iteration of its loop. Strided accesses advance
// by the instruction's stride and wrap within the symbol extent; indirect
// accesses scatter pseudo-randomly (deterministically per dataset) over
// IndirectSpan bytes.
func (lay *Layout) Addr(in *ir.Instr, iter int64, ds Dataset) int64 {
	m := in.Mem
	base := lay.bases[m.Sym]
	if m.Indirect {
		span := m.IndirectSpan
		if span <= 0 {
			span = m.SymBytes
		}
		slots := span / int64(m.Gran)
		if slots <= 0 {
			slots = 1
		}
		r := mix(hashString(m.Sym)^uint64(in.ID)<<32^uint64(iter), ds.Seed)
		return base + m.Offset + int64(r%uint64(slots))*int64(m.Gran)
	}
	off := m.Offset + m.Stride*iter
	if m.SymBytes > 0 {
		off = floorMod(off, m.SymBytes)
	}
	return base + off
}

// Stream generates one memory instruction's addresses in iteration order:
// the i-th call to Next returns Addr(in, i, ds). Everything Addr derives from
// the instruction alone — the symbol base, the indirect hash prefix, the
// stride reduced modulo the symbol extent — is resolved once, so a strided
// access costs an add and a conditional subtract and an indirect one a mix
// and a modulo.
type Stream struct {
	base int64
	// Strided: the next offset, in [0, wrap) when the access wraps.
	off, step, wrap int64
	// Indirect: r = mix(key ^ iter, seed) picks one of slots elements.
	indirect        bool
	key, iter, seed uint64
	slots           uint64
	gran            int64
}

// Stream returns the address stream of a memory instruction under the
// dataset, positioned at iteration 0.
func (lay *Layout) Stream(in *ir.Instr, ds Dataset) Stream {
	m := in.Mem
	st := Stream{base: lay.bases[m.Sym]}
	if m.Indirect {
		span := m.IndirectSpan
		if span <= 0 {
			span = m.SymBytes
		}
		slots := span / int64(m.Gran)
		if slots <= 0 {
			slots = 1
		}
		st.base += m.Offset
		st.indirect = true
		st.key = hashString(m.Sym) ^ uint64(in.ID)<<32
		st.seed = ds.Seed
		st.slots = uint64(slots)
		st.gran = int64(m.Gran)
		return st
	}
	st.off, st.step = m.Offset, m.Stride
	if m.SymBytes > 0 {
		// (Offset + Stride·i) mod SymBytes, advanced by reduced steps.
		st.wrap = m.SymBytes
		st.off, st.step = floorMod(m.Offset, m.SymBytes), floorMod(m.Stride, m.SymBytes)
	}
	return st
}

// Next returns the address of the current iteration and advances the stream.
func (st *Stream) Next() int64 {
	if st.indirect {
		r := mix(st.key^st.iter, st.seed)
		st.iter++
		return st.base + int64(r%st.slots)*st.gran
	}
	a := st.base + st.off
	st.off += st.step
	// Without a symbol extent wrap is 0 and this subtracts nothing.
	if st.off >= st.wrap {
		st.off -= st.wrap
	}
	return a
}

// floorMod returns v mod m in [0, m) for m > 0.
func floorMod(v, m int64) int64 {
	if v %= m; v < 0 {
		v += m
	}
	return v
}

// align rounds a misalignment down to the granularity and keeps it within
// [0, ni).
func align(off, gran, ni int64) int64 {
	if off < 0 {
		off += ni
	}
	if gran > 0 {
		off -= off % gran
	}
	return off % ni
}

func roundUp(v, m int64) int64 {
	if r := v % m; r != 0 {
		return v + m - r
	}
	return v
}

// hashString is FNV-1a.
func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is a splitmix64-style finalizer combining a value with a seed.
func mix(v, seed uint64) uint64 {
	z := v + seed*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
