package sim

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"ivliw/internal/addrspace"
	"ivliw/internal/arch"
	"ivliw/internal/cache"
	"ivliw/internal/sched"
	"ivliw/internal/stats"
	"ivliw/internal/workload"
)

// mutateSimOnly applies a random simulate-only mutation set to a base
// configuration: fields outside CompileKey (buses, ports, MSHR depth, and —
// for the interleaved org with hints off, where they are invisible to the
// compiler — Attraction Buffer geometry). The result stays Validate-valid
// and shares the base's compile key, so it is a legal sibling lane.
func mutateSimOnly(t *testing.T, rng *rand.Rand, base arch.Config) arch.Config {
	t.Helper()
	c := base
	c.MemBuses = 1 + rng.IntN(8)
	c.NextLevelPorts = 1 + rng.IntN(8)
	c.UnifiedPorts = 1 + rng.IntN(8)
	// MSHRs 0 (unbounded) and bounded depths both appear.
	if rng.IntN(2) == 0 {
		c.MSHRs = 0
	} else {
		c.MSHRs = 1 + rng.IntN(16)
	}
	if base.Org == arch.Interleaved && !base.ABHints {
		c.AttractionBuffers = rng.IntN(2) == 0
		c.ABEntries = []int{8, 16, 32}[rng.IntN(3)]
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("mutation produced an invalid config: %v", err)
	}
	if c.CompileKey() != base.CompileKey() {
		t.Fatalf("mutation changed the compile key: %q vs %q", c.CompileKey(), base.CompileKey())
	}
	return c
}

// TestRunLoopBatchMatchesSerial is the batching correctness property: for
// random sibling sets — every org, lane counts 1–8, random simulate-only
// mutations including MSHRs 0 and bounded — RunLoopBatch is DeepEqual to
// looping RunLoop lane by lane with fresh hierarchies.
func TestRunLoopBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	bases := []struct {
		name string
		cfg  arch.Config
	}{
		{"interleaved", arch.Default()},
		{"unified", arch.UnifiedConfig(5)},
		{"multivliw", arch.MultiVLIWConfig()},
	}
	for _, base := range bases {
		t.Run(base.name, func(t *testing.T) {
			// A remote-pinned tight schedule exercises stalls, buses and
			// (for interleaved) combining + MSHR waits.
			s, lay, ds, _ := buildAndSchedule(t, base.cfg, 16, 4096, map[int]int{0: 1, 2: 1}, 1)
			meta := Meta{
				Preferred:  func(id int) int { return 0 },
				Dispersion: func(id int) float64 { return 0.5 },
			}
			for lanes := 1; lanes <= 8; lanes++ {
				cfgs := make([]arch.Config, lanes)
				for l := range cfgs {
					cfgs[l] = mutateSimOnly(t, rng, base.cfg)
				}
				hiers := make([]cache.Hierarchy, lanes)
				for l := range hiers {
					hiers[l] = mustHier(t, cfgs[l])
				}
				got := RunLoopBatch(s, lay, ds, cfgs, hiers, 256, meta)

				want := make([]stats.Loop, lanes)
				for l := range cfgs {
					want[l] = RunLoop(s, lay, ds, cfgs[l], mustHier(t, cfgs[l]), 256, meta)
				}
				if !reflect.DeepEqual(got, want) {
					for l := range got {
						if !reflect.DeepEqual(got[l], want[l]) {
							t.Errorf("lanes=%d lane %d (%+v):\n batch  %+v\n serial %+v",
								lanes, l, cfgs[l], got[l], want[l])
						}
					}
					t.Fatalf("lanes=%d: batched result differs from serial", lanes)
				}
			}
		})
	}
}

// TestRunLoopMatchesBatchOfOne pins the wrapper relation explicitly: the
// single-config entry point and a 1-lane batch are the same computation.
func TestRunLoopMatchesBatchOfOne(t *testing.T) {
	cfg := arch.Default()
	s, lay, ds, _ := buildAndSchedule(t, cfg, 16, 4096, map[int]int{0: 1, 2: 1}, 1)
	serial := RunLoop(s, lay, ds, cfg, mustHier(t, cfg), 128, Meta{})
	batch := RunLoopBatch(s, lay, ds, []arch.Config{cfg}, []cache.Hierarchy{mustHier(t, cfg)}, 128, Meta{})
	if !reflect.DeepEqual([]stats.Loop{serial}, batch) {
		t.Fatalf("RunLoop != RunLoopBatch[0]:\n %+v\n %+v", serial, batch[0])
	}
}

// TestPendingCombiningTableBounded is the regression test for the combining
// table's memory: a block-strided loop touches a new subblock every
// iteration, so before expired entries were pruned the table grew linearly
// with the iteration count. The peak table size must stay small and
// independent of run length — proportional to outstanding fills, not
// touched subblocks.
func TestPendingCombiningTableBounded(t *testing.T) {
	cfg := arch.Default() // interleaved org
	// Block stride over a 1 MB array: ~every iteration allocates a fresh
	// subblock entry (tight latency keeps fills outstanding briefly).
	s, lay, ds, _ := buildAndSchedule(t, cfg, 32, 1<<20, map[int]int{0: 0, 2: 0}, 1)
	peaks := map[int64]int{}
	for _, iters := range []int64{1024, 8192} {
		peak := 0
		testPendingPeak = func(_, p int) {
			if p > peak {
				peak = p
			}
		}
		RunLoop(s, lay, ds, cfg, mustHier(t, cfg), iters, Meta{})
		testPendingPeak = nil
		if peak == 0 {
			t.Fatal("no pending entries were ever created — the workload no longer exercises the table")
		}
		peaks[iters] = peak
	}
	// Outstanding fills are bounded by latency/II, not run length: the peak
	// must not track the iteration count (8× the iters, ~8× the subblocks
	// touched) and must stay far below the touched-subblock count.
	if peaks[8192] > 2*peaks[1024] {
		t.Errorf("pending peak grows with run length: %v", peaks)
	}
	if peaks[8192] > 256 {
		t.Errorf("pending peak = %d, want bounded (< 256) regardless of the %d subblocks touched",
			peaks[8192], int64(8192))
	}
}

// TestFamilyFollowersSkipWork: on a warm-shaped batch — a synthetic
// benchmark whose footprint overflows the L1, under Attraction Buffers off
// and on × MSHRs {0, 1, 2, 4, 8, 16} — followers take a large share of the
// lane-accesses from their family leaders instead of simulating them, deep
// lanes more than shallow ones, and every lane still equals its serial run.
func TestFamilyFollowersSkipWork(t *testing.T) {
	base := arch.Default()
	bench, err := workload.Synthesize(workload.SynthSpec{
		Name: "warm", Seed: 7, FootprintBytes: 32 << 10, RecurrenceMax: 2, ReductionPct: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	depths := []int{0, 1, 2, 4, 8, 16}
	var cfgs []arch.Config
	for _, ab := range []bool{false, true} {
		for _, m := range depths {
			c := base
			c.AttractionBuffers, c.MSHRs = ab, m
			cfgs = append(cfgs, c)
		}
	}
	ds := addrspace.Dataset{Seed: bench.ExecSeed, Aligned: true}
	lay := addrspace.NewLayout(bench.AllLoops(), base, ds)
	batch := make([]cache.Hierarchy, len(cfgs))
	serial := make([]cache.Hierarchy, len(cfgs))
	for l := range cfgs {
		batch[l], serial[l] = mustHier(t, cfgs[l]), mustHier(t, cfgs[l])
	}
	shared := make([]int64, len(cfgs))
	var total int64
	loops := scheduleLoops(rand.New(rand.NewPCG(1, 2)), bench, base, sched.IPBC)
	for _, sl := range loops {
		testShared = func(l int, n int64) { shared[l] += n }
		got := RunLoopBatch(sl.s, lay, ds, cfgs, batch, 256, sl.meta)
		testShared = nil
		for l := range cfgs {
			if want := RunLoop(sl.s, lay, ds, cfgs[l], serial[l], 256, sl.meta); !reflect.DeepEqual(got[l], want) {
				t.Fatalf("%s lane %d (AB %t, MSHRs %d):\n batch  %+v\n serial %+v",
					sl.s.Loop.Name, l, cfgs[l].AttractionBuffers, cfgs[l].MSHRs, got[l], want)
			}
			total += got[l].TotalAccesses()
		}
	}
	var sum int64
	for _, n := range shared {
		sum += n
	}
	t.Logf("%d loops: %d of %d lane-accesses shared (%.1f%%); per lane %v",
		len(loops), sum, total, 100*float64(sum)/float64(total), shared)
	if len(loops) < 2 || 5*sum < total {
		t.Fatalf("followers shared %d of %d lane-accesses over %d loops, want at least a fifth", sum, total, len(loops))
	}
	for f := 0; f < len(cfgs); f += len(depths) {
		if shared[f] != 0 {
			t.Errorf("leader lane %d shared %d accesses, want 0", f, shared[f])
		}
		if shared[f+1] >= shared[f+5] {
			t.Errorf("MSHRs 1 shared %d accesses, MSHRs 16 %d: the deep lane should follow longer", shared[f+1], shared[f+5])
		}
	}
}

// TestFollowerAttachesOnlyOnEqualTags: a lane whose carried tags differ
// from its family leader's must simulate on its own. The leader's hierarchy
// is warmed by one run of the loop and the follower's is cold, so taking
// the leader's results would turn the follower's misses into hits.
func TestFollowerAttachesOnlyOnEqualTags(t *testing.T) {
	cfg := arch.Default()
	s, lay, ds, _ := buildAndSchedule(t, cfg, 4, 2048, map[int]int{0: 1, 2: 1}, 1)
	deep := cfg
	deep.MSHRs = 16
	cfgs := []arch.Config{cfg, deep}
	batch := []cache.Hierarchy{mustHier(t, cfg), mustHier(t, deep)}
	serial := []cache.Hierarchy{mustHier(t, cfg), mustHier(t, deep)}
	RunLoop(s, lay, ds, cfg, batch[0], 256, Meta{})
	RunLoop(s, lay, ds, cfg, serial[0], 256, Meta{})

	want := []stats.Loop{RunLoop(s, lay, ds, cfg, serial[0], 256, Meta{}), RunLoop(s, lay, ds, deep, serial[1], 256, Meta{})}
	if want[0].Accesses == want[1].Accesses {
		t.Fatal("warm and cold lanes classify alike: the test no longer separates their tags")
	}
	shared := make([]int64, len(cfgs))
	testShared = func(l int, n int64) { shared[l] = n }
	got := RunLoopBatch(s, lay, ds, cfgs, batch, 256, Meta{})
	testShared = nil
	for l := range cfgs {
		if !reflect.DeepEqual(got[l], want[l]) {
			t.Errorf("lane %d (MSHRs %d):\n batch  %+v\n serial %+v", l, cfgs[l].MSHRs, got[l], want[l])
		}
	}
	if shared[1] != 0 {
		t.Errorf("the cold follower took %d accesses from its warm leader", shared[1])
	}
}

// TestForkCopiesOnlyLiveFills: a forking follower takes exactly the
// leader's live combining entries and fills. Entries the leader has pruned
// stay behind its live length in the shared backing order, and none may
// come back to life in the follower.
func TestForkCopiesOnlyLiveFills(t *testing.T) {
	cfg := arch.Default()
	newLane := func(depth int) *lane {
		return &lane{
			busFree:  make([]int64, cfg.MemBuses),
			portFree: make([]int64, cfg.NextLevelPorts),
			ic:       mustHier(t, cfg).(*cache.Interleaved),
			fills:    &mshrPool{cap: depth},
		}
	}
	leader, follower := newLane(math.MaxInt), newLane(2)
	for key := int64(0); key < 4; key++ {
		leader.pending.set(key, 10+key)
		leader.fills.add(10 + key)
	}
	// At t = 12 the fills of keys 0, 1 and 2 are complete: pruning leaves
	// key 3 live and stale copies of the others past the live length.
	if _, ok := leader.pending.lookup(99, 12); ok {
		t.Fatal("key 99 was never set")
	}
	if live := leader.fills.prune(12); live != 1 {
		t.Fatalf("%d live fills after the prune, want 1", live)
	}
	var out, leaderOut stats.Loop
	follower.fork(leader, &out, &leaderOut)
	if got, want := follower.pending.live(), leader.pending.live(); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower's combining entries %v, leader's live %v", got, want)
	}
	if got, want := follower.fills.live(), leader.fills.live(); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower's fills %v, leader's live %v", got, want)
	}
	for key := int64(0); key < 3; key++ {
		if c, ok := follower.pending.lookup(key, 12); ok {
			t.Errorf("key %d combines with a fill that completed at %d", key, c)
		}
	}
	if c, ok := follower.pending.lookup(3, 12); !ok || c != 13 {
		t.Errorf("key 3: lookup = %d, %v; want the live fill completing at 13", c, ok)
	}
}
