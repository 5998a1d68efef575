package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"

	"ivliw/internal/arch"
	"ivliw/internal/core"
	"ivliw/internal/ir"
	"ivliw/internal/sched"
	"ivliw/internal/unroll"
	"ivliw/internal/workload"
)

// referenceKey is CompileSpec.Key as first written: every field formatted
// by fmt straight into the hash. Compile keys name stored artifacts, so Key
// must hash the same bytes.
func referenceKey(s CompileSpec) string {
	h := sha256.New()
	io.WriteString(h, s.Cfg.CompileKey())
	io.WriteString(h, "|")
	io.WriteString(h, OptionsKey(s.Opt))
	fmt.Fprintf(h, "|al%t|pseed%d|", s.Aligned, s.Bench.ProfileSeed)
	for _, ls := range s.Bench.Loops {
		referenceFingerprint(h, ls.Loop)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// referenceLoopKey is LoopKey as first written.
func referenceLoopKey(l *ir.Loop, layoutLoops []*ir.Loop, cfg arch.Config, opt core.Options, aligned bool, profileSeed uint64) string {
	h := sha256.New()
	io.WriteString(h, cfg.CompileKey())
	io.WriteString(h, "|")
	io.WriteString(h, OptionsKey(opt))
	fmt.Fprintf(h, "|al%t|pseed%d|", aligned, profileSeed)
	referenceFingerprint(h, l)
	io.WriteString(h, "|layout|")
	for _, ll := range layoutLoops {
		referenceFingerprint(h, ll)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// referenceFingerprint is the loop fingerprint as first written, streamed
// into w by fmt.
func referenceFingerprint(w io.Writer, l *ir.Loop) {
	fmt.Fprintf(w, "loop|%s|%d|%x|%d|", l.Name, l.AvgIters, math.Float64bits(l.Weight), l.Unroll)
	for _, in := range l.Instrs {
		fmt.Fprintf(w, "i%d,%s,%d", in.ID, in.Name, int(in.Class))
		if m := in.Mem; m != nil {
			fmt.Fprintf(w, ",m:%s,%d,%d,%d,%t,%d,%t,%d,%d",
				m.Sym, int(m.Kind), m.Offset, m.Stride, m.StrideKnown,
				m.Gran, m.Indirect, m.IndirectSpan, m.SymBytes)
		}
		io.WriteString(w, ";")
	}
	for _, e := range l.Edges {
		fmt.Fprintf(w, "e%d>%d,%d,%d;", e.From, e.To, int(e.Kind), e.Distance)
	}
}

// TestKeysMatchReference: the fingerprint bytes of every loop of the suite
// and of a seeded 67-benchmark synthetic population, unrolled ×1–8, 16 and
// 32, and of a loop with negative and non-finite fields equal the
// reference's; CompileSpec.Key and LoopKey of every benchmark equal the
// reference's across machine points, options, alignment and profile seeds.
func TestKeysMatchReference(t *testing.T) {
	synth, err := workload.SynthSuite(67, 2025)
	if err != nil {
		t.Fatal(err)
	}
	benches := append(workload.Suite(), synth...)
	odd := &ir.Loop{Name: "odd|name", AvgIters: -3, Weight: math.Inf(-1), Unroll: 0, Instrs: []*ir.Instr{
		{ID: 0, Name: "", Class: ir.OpLoad, Mem: &ir.MemInfo{Sym: "s,y", Kind: ir.AllocHeap, Offset: -12, Stride: -4, Gran: 8, Indirect: true, IndirectSpan: math.MaxInt64, SymBytes: math.MinInt64}},
		{ID: 1, Name: "x;y", Class: ir.OpCopy},
	}, Edges: []ir.Edge{{From: 1, To: 0, Kind: ir.MemDep, Distance: 1 << 40}}}
	check := func(l *ir.Loop) {
		var want bytes.Buffer
		referenceFingerprint(&want, l)
		if got := appendLoopFingerprint(nil, l); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: fingerprint\n%q\nreference\n%q", l.Name, got, want.Bytes())
		}
	}
	check(odd)
	for _, b := range benches {
		for _, ls := range b.Loops {
			for _, u := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 32} {
				check(unroll.Unroll(ls.Loop, u))
			}
		}
	}

	cfgs := []arch.Config{arch.Default(), arch.MultiVLIWConfig(), arch.UnifiedConfig(5)}
	for _, n := range []int{2, 8} {
		c := arch.Default()
		c.Clusters = n
		cfgs = append(cfgs, c)
	}
	opts := []core.Options{
		{Heuristic: sched.IPBC, Unroll: core.Selective},
		{Heuristic: sched.IBC, Unroll: core.OUFUnroll, NoChains: true, ProfileIters: 7, MaxII: 300, NoLatAssign: true, NaiveOrder: true},
	}
	for i, b := range benches {
		cfg, opt, aligned := cfgs[i%len(cfgs)], opts[i%len(opts)], i%3 != 0
		b.ProfileSeed += uint64(i) << 60
		s := CompileSpec{Bench: b, Cfg: cfg, Opt: opt, Aligned: aligned}
		if got, want := s.Key(), referenceKey(s); got != want {
			t.Fatalf("%s: Key %s, reference %s", b.Name, got, want)
		}
		l := b.Loops[i%len(b.Loops)].Loop
		if got, want := LoopKey(l, b.AllLoops(), cfg, opt, aligned, b.ProfileSeed), referenceLoopKey(l, b.AllLoops(), cfg, opt, aligned, b.ProfileSeed); got != want {
			t.Fatalf("%s/%s: LoopKey %s, reference %s", b.Name, l.Name, got, want)
		}
	}
}
