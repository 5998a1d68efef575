package addrspace

import (
	"fmt"
	"testing"
	"testing/quick"

	"ivliw/internal/arch"
	"ivliw/internal/ir"
	"ivliw/internal/workload"
)

func buildLoop(t *testing.T, kind ir.AllocKind) (*ir.Loop, int) {
	t.Helper()
	b := ir.NewBuilder("l", 100, 1)
	id := b.Load("ld", ir.MemInfo{
		Sym: "arr", Kind: kind, Stride: 16, StrideKnown: true, Gran: 2, SymBytes: 240,
	})
	return b.MustBuild(), id
}

func TestAlignedBasesAreNIMultiples(t *testing.T) {
	cfg := arch.Default()
	for _, kind := range []ir.AllocKind{ir.AllocStack, ir.AllocHeap} {
		l, _ := buildLoop(t, kind)
		for seed := uint64(0); seed < 8; seed++ {
			lay := NewLayout([]*ir.Loop{l}, cfg, Dataset{Seed: seed, Aligned: true})
			if base := lay.Base("arr"); base%int64(cfg.NI()) != 0 {
				t.Errorf("%v seed %d: aligned base %#x not a multiple of %d", kind, seed, base, cfg.NI())
			}
		}
	}
}

// TestUnalignedBasesVaryAcrossDatasets reproduces the gsmdec condition of
// §4.3.4: without variable alignment, a heap symbol's base modulo N·I (and
// therefore the preferred cluster of a strided access) depends on the input
// data set.
func TestUnalignedBasesVaryAcrossDatasets(t *testing.T) {
	cfg := arch.Default()
	l, _ := buildLoop(t, ir.AllocHeap)
	seen := map[int64]bool{}
	for seed := uint64(0); seed < 16; seed++ {
		lay := NewLayout([]*ir.Loop{l}, cfg, Dataset{Seed: seed, Aligned: false})
		seen[lay.Base("arr")%int64(cfg.NI())] = true
	}
	if len(seen) < 2 {
		t.Errorf("unaligned heap base is identical across 16 datasets (residues %v)", seen)
	}
}

// TestGlobalsFixedAcrossDatasets: globals map to the same position no matter
// which data input file is used (§4.3.4: no padding for globals).
func TestGlobalsFixedAcrossDatasets(t *testing.T) {
	cfg := arch.Default()
	l, _ := buildLoop(t, ir.AllocGlobal)
	var first int64
	for seed := uint64(0); seed < 16; seed++ {
		for _, aligned := range []bool{false, true} {
			lay := NewLayout([]*ir.Loop{l}, cfg, Dataset{Seed: seed, Aligned: aligned})
			base := lay.Base("arr")
			if seed == 0 && !aligned {
				first = base
			} else if base != first {
				t.Fatalf("global base moved: %#x vs %#x (seed %d aligned %v)", base, first, seed, aligned)
			}
		}
	}
}

func TestSymbolsDoNotOverlap(t *testing.T) {
	cfg := arch.Default()
	b := ir.NewBuilder("l", 100, 1)
	b.Load("a", ir.MemInfo{Sym: "x", Kind: ir.AllocHeap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
	b.Load("b", ir.MemInfo{Sym: "y", Kind: ir.AllocHeap, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 4096})
	b.Load("c", ir.MemInfo{Sym: "z", Kind: ir.AllocStack, Stride: 4, StrideKnown: true, Gran: 4, SymBytes: 128})
	l := b.MustBuild()
	lay := NewLayout([]*ir.Loop{l}, cfg, Dataset{Seed: 3})
	x, y := lay.Base("x"), lay.Base("y")
	lo, hi := x, y
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi < lo+4096 {
		t.Errorf("heap symbols overlap: x=%#x y=%#x", x, y)
	}
}

func TestStridedAddressing(t *testing.T) {
	cfg := arch.Default()
	l, id := buildLoop(t, ir.AllocHeap)
	ds := Dataset{Seed: 1, Aligned: true}
	lay := NewLayout([]*ir.Loop{l}, cfg, ds)
	in := l.Instrs[id]
	base := lay.Base("arr")
	for i := int64(0); i < 10; i++ {
		want := base + (16*i)%240
		if got := lay.Addr(in, i, ds); got != want {
			t.Errorf("Addr(iter %d) = %#x, want %#x", i, got, want)
		}
	}
	// Wrap within the symbol extent.
	if got := lay.Addr(in, 15, ds); got != base {
		t.Errorf("Addr(iter 15) = %#x, want wrap to base %#x", got, base)
	}
}

func TestIndirectAddressing(t *testing.T) {
	cfg := arch.Default()
	b := ir.NewBuilder("l", 100, 1)
	id := b.Load("ld", ir.MemInfo{
		Sym: "tbl", Kind: ir.AllocGlobal, Gran: 4, SymBytes: 1024,
		Indirect: true, IndirectSpan: 1024,
	})
	l := b.MustBuild()
	ds := Dataset{Seed: 7}
	lay := NewLayout([]*ir.Loop{l}, cfg, ds)
	in := l.Instrs[id]
	base := lay.Base("tbl")
	seen := map[int64]bool{}
	for i := int64(0); i < 200; i++ {
		a := lay.Addr(in, i, ds)
		if a < base || a >= base+1024 {
			t.Fatalf("indirect address %#x outside [%#x, %#x)", a, base, base+1024)
		}
		if (a-base)%4 != 0 {
			t.Fatalf("indirect address %#x not granularity-aligned", a)
		}
		seen[a] = true
	}
	if len(seen) < 50 {
		t.Errorf("indirect accesses hit only %d distinct addresses, want spread", len(seen))
	}
	// Determinism: the same (dataset, instr, iter) gives the same address.
	if lay.Addr(in, 42, ds) != lay.Addr(in, 42, ds) {
		t.Error("indirect addressing is not deterministic")
	}
	// A different dataset gives a different pattern.
	ds2 := Dataset{Seed: 8}
	lay2 := NewLayout([]*ir.Loop{l}, cfg, ds2)
	diff := 0
	for i := int64(0); i < 100; i++ {
		if lay2.Addr(in, i, ds2)-lay2.Base("tbl") != lay.Addr(in, i, ds)-base {
			diff++
		}
	}
	if diff == 0 {
		t.Error("indirect pattern identical across datasets")
	}
}

// TestAddrProperty: strided addresses always stay within the symbol extent.
func TestAddrProperty(t *testing.T) {
	cfg := arch.Default()
	l, id := buildLoop(t, ir.AllocHeap)
	ds := Dataset{Seed: 5}
	lay := NewLayout([]*ir.Loop{l}, cfg, ds)
	in := l.Instrs[id]
	base := lay.Base("arr")
	f := func(iter uint16) bool {
		a := lay.Addr(in, int64(iter), ds)
		return a >= base && a < base+240
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// checkStream demands that the instruction's stream yields Addr(in, i, ds)
// for iterations 0 … iters−1, in order.
func checkStream(t *testing.T, lay *Layout, in *ir.Instr, ds Dataset, iters int64) {
	t.Helper()
	st := lay.Stream(in, ds)
	for i := int64(0); i < iters; i++ {
		if got, want := st.Next(), lay.Addr(in, i, ds); got != want {
			t.Fatalf("%s (%+v) iter %d: stream %#x, Addr %#x", in.Name, *in.Mem, i, got, want)
		}
	}
}

// TestStreamMatchesAddr: every memory instruction of the paper suite and of
// a synthetic population streams exactly Addr's addresses, under both
// alignment policies and several seeds.
func TestStreamMatchesAddr(t *testing.T) {
	synth, err := workload.SynthSuite(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range append(workload.Suite(), synth...) {
		for _, seed := range []uint64{0, 1, bench.ExecSeed} {
			for _, aligned := range []bool{false, true} {
				ds := Dataset{Seed: seed, Aligned: aligned}
				lay := NewLayout(bench.AllLoops(), arch.Default(), ds)
				for _, l := range bench.AllLoops() {
					for _, id := range l.MemInstrs() {
						checkStream(t, lay, l.Instrs[id], ds, 3*int64(l.AvgIters)+7)
					}
				}
			}
		}
	}
}

// TestStreamEdgeCases covers the cases the suite does not: negative offsets
// and strides, strides longer than the symbol, no symbol extent, and
// indirect accesses whose span is unset or below one element.
func TestStreamEdgeCases(t *testing.T) {
	cases := []ir.MemInfo{
		{Offset: -12, Stride: 4, SymBytes: 64},
		{Offset: 8, Stride: -4, SymBytes: 64},
		{Offset: -100, Stride: -36, SymBytes: 60},
		{Offset: 4, Stride: 200, SymBytes: 64},
		{Offset: 4, Stride: -200, SymBytes: 64},
		{Offset: 70, Stride: 64, SymBytes: 64},
		{Offset: -8, Stride: 12},
		{Offset: 8, Stride: -12},
		{Offset: 3, Stride: 5, SymBytes: -16},
		{Indirect: true, Offset: 4, SymBytes: 256},
		{Indirect: true, IndirectSpan: -8, SymBytes: 96},
		{Indirect: true, IndirectSpan: 2, SymBytes: 64},
		{Indirect: true, IndirectSpan: 100, Offset: -6, SymBytes: 64},
		{Indirect: true},
	}
	var instrs []*ir.Instr
	for i, m := range cases {
		m.Sym, m.Kind, m.Gran = fmt.Sprintf("s%d", i%4), ir.AllocKind(i%3), 4
		instrs = append(instrs, &ir.Instr{ID: i, Name: fmt.Sprintf("case %d", i), Class: ir.OpLoad, Mem: &m})
	}
	loop := &ir.Loop{Name: "edge", Instrs: instrs}
	for _, ds := range []Dataset{{Seed: 3}, {Seed: 9, Aligned: true}} {
		lay := NewLayout([]*ir.Loop{loop}, arch.Default(), ds)
		for _, in := range instrs {
			checkStream(t, lay, in, ds, 50)
		}
	}
}
