package profile

import (
	"reflect"
	"sync"
	"testing"

	"ivliw/internal/addrspace"
	"ivliw/internal/arch"
	"ivliw/internal/ir"
	"ivliw/internal/unroll"
	"ivliw/internal/workload"
)

// memoCase is one call of Run: a loop, the layout it is profiled against,
// the data set, the machine and the trip count.
type memoCase struct {
	l     *ir.Loop
	lay   *addrspace.Layout
	ds    addrspace.Dataset
	cfg   arch.Config
	iters int
}

// memoLoop builds a loop with one strided heap load and one indirect global
// load, shaped by the given descriptors; pad non-memory ops come first and
// shift the memory instructions' IDs.
func memoLoop(pad int, strided, indirect ir.MemInfo) *ir.Loop {
	b := ir.NewBuilder("memo", 64, 1)
	for i := 0; i < pad; i++ {
		b.Op("pad", ir.OpIntALU)
	}
	b.Load("s", strided)
	b.Load("x", indirect)
	return b.MustBuild()
}

func memoBase() (ir.MemInfo, ir.MemInfo) {
	return ir.MemInfo{Sym: "h", Kind: ir.AllocHeap, Offset: 8, Stride: 12, StrideKnown: true, Gran: 4, SymBytes: 3072},
		ir.MemInfo{Sym: "t", Kind: ir.AllocGlobal, Gran: 2, SymBytes: 2048, Indirect: true, IndirectSpan: 1024}
}

func (c memoCase) run() *Profile { return Run(c.l, c.lay, c.ds, c.cfg, c.iters) }

// fresh computes the case without the memo.
func (c memoCase) fresh() *Profile { return run(c.l, c.l.MemInstrs(), c.lay, c.ds, c.cfg, c.iters) }

func newMemoCase(pad int, strided, indirect ir.MemInfo, ds addrspace.Dataset, cfg arch.Config, iters int) memoCase {
	l := memoLoop(pad, strided, indirect)
	return memoCase{l: l, lay: addrspace.NewLayout([]*ir.Loop{l}, cfg, ds), ds: ds, cfg: cfg, iters: iters}
}

// TestMemoKeyCoversEveryInput changes one input Run reads at a time and
// checks that the call misses the memo and returns a fresh computation.
func TestMemoKeyCoversEveryInput(t *testing.T) {
	s0, x0 := memoBase()
	cfg0 := arch.Default()
	// The unaligned data set must move the heap symbol's base, or the
	// "base" case below would not change any input: take the first seed
	// whose misalignment is nonzero.
	var aligned, unaligned addrspace.Dataset
	for seed := uint64(1); ; seed++ {
		aligned, unaligned = addrspace.Dataset{Seed: seed, Aligned: true}, addrspace.Dataset{Seed: seed}
		a, u := newMemoCase(0, s0, x0, aligned, cfg0, 64), newMemoCase(0, s0, x0, unaligned, cfg0, 64)
		if a.lay.Base("h") != u.lay.Base("h") {
			break
		}
		if seed == 64 {
			t.Fatal("test setup: no seed misaligns the heap symbol")
		}
	}
	withS := func(f func(*ir.MemInfo)) memoCase {
		s := s0
		f(&s)
		return newMemoCase(0, s, x0, aligned, cfg0, 64)
	}
	withX := func(f func(*ir.MemInfo)) memoCase {
		x := x0
		f(&x)
		return newMemoCase(0, s0, x, aligned, cfg0, 64)
	}
	withCfg := func(f func(*arch.Config)) memoCase {
		cfg := cfg0
		f(&cfg)
		return newMemoCase(0, s0, x0, aligned, cfg, 64)
	}
	cases := []struct {
		name string
		c    memoCase
	}{
		{"ID", newMemoCase(1, s0, x0, aligned, cfg0, 64)},
		{"Sym", withS(func(m *ir.MemInfo) { m.Sym = "h2" })},
		{"Offset", withS(func(m *ir.MemInfo) { m.Offset = 12 })},
		{"Stride", withS(func(m *ir.MemInfo) { m.Stride = 16 })},
		{"Gran", withX(func(m *ir.MemInfo) { m.Gran = 4 })},
		{"Indirect", withX(func(m *ir.MemInfo) { m.Indirect = false })},
		{"IndirectSpan", withX(func(m *ir.MemInfo) { m.IndirectSpan = 512 })},
		{"SymBytes", withS(func(m *ir.MemInfo) { m.SymBytes = 1536 })},
		{"base (unaligned)", newMemoCase(0, s0, x0, unaligned, cfg0, 64)},
		{"ds.Seed (indirect)", newMemoCase(0, s0, x0, addrspace.Dataset{Seed: aligned.Seed + 1, Aligned: true}, cfg0, 64)},
		{"iters", newMemoCase(0, s0, x0, aligned, cfg0, 65)},
		{"Clusters", withCfg(func(c *arch.Config) { c.Clusters = 2 })},
		{"Interleave", withCfg(func(c *arch.Config) { c.Interleave = 8 })},
		{"CacheBytes", withCfg(func(c *arch.Config) { c.CacheBytes = 4096 })},
		{"BlockBytes", withCfg(func(c *arch.Config) { c.BlockBytes = 64 })},
		{"Assoc", withCfg(func(c *arch.Config) { c.Assoc = 4 })},
	}
	for _, tc := range cases {
		name, c := tc.name, tc.c
		t.Run(name, func(t *testing.T) {
			memo.Reset()
			base := newMemoCase(0, s0, x0, aligned, cfg0, 64)
			pb := base.run()
			if err := c.cfg.Validate(); err != nil {
				t.Fatalf("test setup: %v", err)
			}
			before := bodies.Load()
			p := c.run()
			if bodies.Load() != before+1 || p == pb {
				t.Fatalf("changing %s hit the memo entry of the unchanged call", name)
			}
			if !reflect.DeepEqual(p, c.fresh()) {
				t.Errorf("changing %s: memoized profile differs from a fresh computation", name)
			}
		})
	}
}

// TestMemoIgnoresUnreadInputs: the loop's name and pointer, and the
// alignment flag beyond the bases it produces, do not reach the profile, so
// they must not split the memo.
func TestMemoIgnoresUnreadInputs(t *testing.T) {
	memo.Reset()
	s0, x0 := memoBase()
	cfg := arch.Default()
	ds := addrspace.Dataset{Seed: 5, Aligned: true}
	a := newMemoCase(0, s0, x0, ds, cfg, 64)
	pa := a.run()
	b := newMemoCase(0, s0, x0, ds, cfg, 64) // a distinct but equal loop
	b.l.Name = "other"
	before := bodies.Load()
	if pb := b.run(); pb != pa || bodies.Load() != before {
		t.Error("an equal loop under another name and pointer missed the memo")
	}
	// Globals ignore alignment: flipping it leaves every base in place.
	gs := s0
	gs.Kind = ir.AllocGlobal
	g1 := newMemoCase(0, gs, x0, ds, cfg, 64)
	g2 := newMemoCase(0, gs, x0, addrspace.Dataset{Seed: 5}, cfg, 64)
	p1 := g1.run()
	before = bodies.Load()
	if p2 := g2.run(); p2 != p1 || bodies.Load() != before {
		t.Error("flipping alignment on globals-only inputs missed the memo")
	}
}

// TestMemoHitsEqualFreshComputation profiles every suite loop at several
// unroll factors against both alignments and checks each memo hit against
// a fresh computation.
func TestMemoHitsEqualFreshComputation(t *testing.T) {
	memo.Reset()
	for _, spec := range workload.Suite() {
		for _, aligned := range []bool{false, true} {
			cfg := arch.Default()
			ds := addrspace.Dataset{Seed: spec.ProfileSeed, Aligned: aligned}
			lay := addrspace.NewLayout(spec.AllLoops(), cfg, ds)
			for _, ls := range spec.Loops {
				for _, u := range []int{1, 2, 4, 8} {
					ul := unroll.Unroll(ls.Loop, u)
					c := memoCase{l: ul, lay: lay, ds: ds, cfg: cfg, iters: ul.AvgIters}
					first := c.run()
					before := bodies.Load()
					hit := c.run()
					if hit != first || bodies.Load() != before {
						t.Fatalf("%s/%s u=%d: repeated call missed the memo", spec.Name, ls.Loop.Name, u)
					}
					if !reflect.DeepEqual(hit, c.fresh()) {
						t.Fatalf("%s/%s u=%d aligned=%t: memo hit differs from a fresh computation", spec.Name, ls.Loop.Name, u, aligned)
					}
				}
			}
		}
	}
}

// TestMemoBounded overfills the memo and checks it never holds more than
// its capacity, and that an evicted input recomputes to the same profile.
func TestMemoBounded(t *testing.T) {
	memo.Reset()
	s0, x0 := memoBase()
	cfg := arch.Default()
	ds := addrspace.Dataset{Seed: 5, Aligned: true}
	l := memoLoop(0, s0, x0)
	lay := addrspace.NewLayout([]*ir.Loop{l}, cfg, ds)
	first := Run(l, lay, ds, cfg, 1)
	for iters := 1; iters <= memoSize+100; iters++ {
		Run(l, lay, ds, cfg, iters)
		if n := memo.Len(); n > memoSize {
			t.Fatalf("memo holds %d entries, capacity %d", n, memoSize)
		}
	}
	before := bodies.Load()
	again := Run(l, lay, ds, cfg, 1)
	if bodies.Load() != before+1 {
		t.Error("the least recently used input survived overfilling")
	}
	if !reflect.DeepEqual(again, first) {
		t.Error("an evicted input recomputed to a different profile")
	}
}

// TestMemoConcurrent profiles the same suite loops from several goroutines
// at once (run it under -race): every result, computed or shared, must
// equal a fresh computation.
func TestMemoConcurrent(t *testing.T) {
	memo.Reset()
	cfg := arch.Default()
	var cases []memoCase
	for _, spec := range workload.Suite()[:3] {
		ds := addrspace.Dataset{Seed: spec.ProfileSeed, Aligned: true}
		lay := addrspace.NewLayout(spec.AllLoops(), cfg, ds)
		for _, ls := range spec.Loops {
			for _, u := range []int{1, 4} {
				ul := unroll.Unroll(ls.Loop, u)
				cases = append(cases, memoCase{l: ul, lay: lay, ds: ds, cfg: cfg, iters: ul.AvgIters})
			}
		}
	}
	want := make([]*Profile, len(cases))
	for i, c := range cases {
		want[i] = c.fresh()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cases {
				k := (i + g) % len(cases)
				if got := cases[k].run(); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("case %d: concurrent Run differs from a fresh computation", k)
				}
			}
		}()
	}
	wg.Wait()
}
