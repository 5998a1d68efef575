// Package sim is the cycle-level simulator of the clustered VLIW kernel. It
// executes a modulo schedule for a given trip count against one of the
// memory-hierarchy models, with:
//
//   - a lock-step VLIW stall model: an access whose actual latency exceeds
//     the schedule's tolerance (the distance to its earliest register-flow
//     consumer) stalls the whole machine for the difference — "stall time is
//     basically due to memory instructions that have been scheduled too
//     close to their consumers" (§5.3);
//   - MSHR-style combining for the interleaved cache: an access to a
//     subblock with an outstanding request is not re-issued (the paper's
//     "combined" class);
//   - memory-bus and next-level port contention (buses at half the core
//     frequency, transfers occupying BusCycleRatio cycles);
//   - Attraction Buffer allocation controlled by per-instruction
//     "attractable" hints (§5.2);
//   - stall-cause attribution for the Figure 5 factor classification.
//
// The simulator is batched: RunLoopBatch drives one schedule against k
// sibling configurations that share the compile-relevant machine layout but
// may differ in simulate-only axes (buses, next-level ports, MSHR depth,
// Attraction Buffer geometry). The issue order, address generation and
// stall-cause classification run once per access; only the per-lane machine
// state (stall shift, bus/port pools, combining table, MSHR pool, cache
// hierarchy) fans out, held as parallel arrays indexed by lane. Lanes that
// differ only in MSHR depth form a family that shares one back half until a
// shallower lane's fill bound can bite. RunLoop is the batch-of-1 wrapper.
package sim

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"ivliw/internal/addrspace"
	"ivliw/internal/arch"
	"ivliw/internal/cache"
	"ivliw/internal/sched"
	"ivliw/internal/stats"
)

// isPow2 reports whether x is a positive power of two.
func isPow2(x int) bool { return x > 0 && x&(x-1) == 0 }

// Meta carries the compiler-side annotations the simulator needs for stall
// attribution and Attraction Buffer hints.
type Meta struct {
	// Preferred maps memory instruction IDs to their profiled preferred
	// cluster (used for the "not in preferred" cause).
	Preferred func(id int) int
	// Dispersion maps memory instruction IDs to the concentration of
	// their preferred-cluster information (1 = one cluster).
	Dispersion func(id int) float64
	// Attractable reports whether the instruction may allocate into the
	// Attraction Buffer (the compiler's hint). Nil means all loads may.
	Attractable func(id int) bool
}

// unclearThreshold is the dispersion below which preferred-cluster
// information counts as "unclear" for Figure 5 attribution.
const unclearThreshold = 0.75

// RunLoop simulates `iters` kernel iterations of the schedule against the
// hierarchy and returns the loop measurement (unscaled: Invocations is 1).
// The hierarchy keeps its state so consecutive loops of a benchmark share
// the L1 contents; Attraction Buffers are flushed on return (the coherence
// rule for buffers between loops). RunLoop is RunLoopBatch with one lane.
func RunLoop(s *sched.Schedule, lay *addrspace.Layout, ds addrspace.Dataset,
	cfg arch.Config, hier cache.Hierarchy, iters int64, meta Meta) stats.Loop {
	return RunLoopBatch(s, lay, ds, []arch.Config{cfg}, []cache.Hierarchy{hier}, iters, meta)[0]
}

// RunLoopBatch simulates the schedule once per configuration lane, sharing
// one pass over the access stream. All lanes must agree on the
// compile-relevant subset of the configuration (arch.Config.CompileKey):
// the shared front half — kernel issue order, generated addresses, home
// clusters, subblock keys, granularity spans, attraction hints and
// stall-cause classification — is computed from cfgs[0] and is only valid
// for every lane under that contract. len(hiers) must equal len(cfgs), one
// distinct hierarchy per lane: AB geometry and timing (a combined access
// skips the tags) make tag contents diverge. Lanes differing only in MSHR
// depth share tag state while it stays equal (see family). Callers enforce
// the contract by grouping on CompileKey (see pipeline.SimKey). The
// schedule's II must be at least 1, as sched.Run guarantees; entry points
// that take foreign schedules check it.
func RunLoopBatch(s *sched.Schedule, lay *addrspace.Layout, ds addrspace.Dataset,
	cfgs []arch.Config, hiers []cache.Hierarchy, iters int64, meta Meta) []stats.Loop {

	outs := make([]stats.Loop, len(cfgs))
	for l := range cfgs {
		outs[l] = stats.Loop{
			Name:        s.Loop.Name,
			II:          s.II,
			SC:          s.SC,
			MII:         s.MII,
			Copies:      len(s.Copies),
			Balance:     s.WorkloadBalance(cfgs[l].Clusters),
			BodyInstrs:  len(s.Loop.Instrs),
			Iters:       iters,
			Invocations: 1,
		}
	}
	defer func() {
		for _, h := range hiers {
			h.FlushBuffers()
		}
	}()

	mems := s.Loop.MemInstrs()
	if len(mems) > 0 && iters > 0 {
		runAccesses(s, lay, ds, cfgs, hiers, iters, meta, outs, mems)
	}
	cc := int64(s.II) * (iters + int64(s.SC) - 1)
	for l := range outs {
		outs[l].ComputeCycles = cc
	}
	return outs
}

// memInfo is the per-memory-instruction static information of one run.
type memInfo struct {
	id        int
	cycle     int64 // issue offset within the flat schedule
	stage     int64 // ⌊cycle/II⌋: iteration i issues in kernel window stage+i
	cluster   int
	store     bool
	attract   bool
	granSpan  bool  // element wider than the interleaving factor
	tolerance int64 // cycles before the earliest consumer needs the value
	hasCons   bool
	addrs     addrspace.Stream
}

// lane is one configuration's machine state in a batched run: everything
// that evolves with simulated time, parallel-array style so an access fans
// across lanes with no per-access allocation.
type lane struct {
	stalled  int64
	busFree  []int64
	portFree []int64
	pending  pendingSet
	fills    *mshrPool // bounded fill slots; nil when MSHRs = 0 (unbounded)
	lats     [arch.NumLatencyClasses]int
	busHold  int64
	uhit     int64 // unified-org hit/miss latencies
	umiss    int64
	mvliw    bool // per-lane org split is forbidden by the compile
	unified  bool // key, but deriving per lane keeps lanes self-contained
	// The hierarchy, through its block-resolved entry point when it is one
	// of the package's organizations: the block number and home cluster
	// are lane-invariant, so the front half derives them once per access
	// and the lanes carry no address divisions. Any other Hierarchy is
	// driven through its address-based Access.
	ic   *cache.Interleaved
	mc   *cache.MultiVLIWCache
	uc   *cache.UnifiedCache
	hier cache.Hierarchy
	// lead is the family leader this lane follows while attached, else -1;
	// shared counts the accesses it took from the leader.
	lead   int
	shared int64
}

// family is a set of interleaved lanes whose machines differ only in MSHR
// depth, led by the deepest (0 = unbounded; the lowest index on a tie). A
// lane of depth m behaves exactly like the leader up to the first access at
// which m or more of the leader's fills are outstanding: before it no
// reservation of depth m can wait. A follower whose tags equal the leader's
// at loop start attaches and is not simulated; it forks — copies the
// leader's state and runs on its own — at that access, or takes the
// leader's counters and tags at loop end.
type family struct {
	lead  int
	forks []int // attached followers shallower than the leader, shallowest first
}

// testPendingPeak, when non-nil, receives each lane's peak combining-map
// size after a batched run — the hook for the bounded-memory regression
// test. testShared likewise receives the accesses each lane took from its
// family leader. Never set outside tests.
var testPendingPeak func(lane int, peak int)
var testShared func(lane int, accesses int64)

// kernelOrder returns the order in which one kernel window issues the memory
// instructions with the given flat-schedule cycles, and the stage of each.
// Writing cycle c as q·II + r with 0 ≤ r < II (floor division, so negative
// cycles land in the right window), the access of iteration i issues at
// (q+i)·II + r, in window q+i. Windows ascend in time, so walking windows
// upward and visiting each one's instructions by r ascending, then q
// descending (the older iteration first), then index ascending yields every
// access in (time, iteration, index) order with no comparison per access.
func kernelOrder(cycles []int64, ii int64) (order []int, stages []int64) {
	order = make([]int, len(cycles))
	stages = make([]int64, len(cycles))
	slots := make([]int64, len(cycles))
	for k, c := range cycles {
		q := c / ii
		if c%ii < 0 {
			q--
		}
		order[k], stages[k], slots[k] = k, q, c-q*ii
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(slots[a], slots[b]), cmp.Compare(stages[b], stages[a]), cmp.Compare(a, b))
	})
	return order, stages
}

func runAccesses(s *sched.Schedule, lay *addrspace.Layout, ds addrspace.Dataset,
	cfgs []arch.Config, hiers []cache.Hierarchy, iters int64, meta Meta,
	outs []stats.Loop, mems []int) {

	// cfg drives the shared front half; every field it reads below is
	// compile-key-covered and therefore identical across lanes.
	cfg := cfgs[0]

	infos := make([]memInfo, len(mems))
	cycles := make([]int64, len(mems))
	for k, id := range mems {
		in := s.Loop.Instrs[id]
		slack, has := s.ConsumerSlack(id)
		attract := !in.Class.IsMem() || in.IsLoad()
		if meta.Attractable != nil && !meta.Attractable(id) {
			attract = false
		}
		if in.Mem.Gran > cfg.Interleave {
			// Elements wider than the interleaving factor span two
			// clusters; attracting half a value is useless.
			attract = false
		}
		cycles[k] = int64(s.Place[id].Cycle)
		infos[k] = memInfo{
			id:        id,
			cycle:     cycles[k],
			cluster:   s.Place[id].Cluster,
			store:     !in.IsLoad(),
			attract:   attract && in.IsLoad(),
			granSpan:  in.Mem.Gran > cfg.Interleave,
			tolerance: int64(slack),
			hasCons:   has,
			addrs:     lay.Stream(in, ds),
		}
	}
	// Software-pipelined iterations overlap: accesses must be processed in
	// global issue order, or a store from stage 3 of iteration i would be
	// seen before a stage-1 load of iteration i+1 and corrupt the bus/port
	// occupancy model. The kernel order walks that order window by window.
	ii := int64(s.II)
	order, stages := kernelOrder(cycles, ii)
	for k, q := range stages {
		infos[k].stage = q
	}

	// Power-of-two geometry (the paper's machines and every default) turns
	// the per-access home-cluster and block divisions into shifts; the
	// general path stays for odd geometries and negative addresses.
	fastGeom := isPow2(cfg.Interleave) && isPow2(cfg.Clusters) && isPow2(cfg.BlockBytes)
	var iShift, bShift uint
	var cMask int64
	if fastGeom {
		iShift = uint(bits.TrailingZeros64(uint64(cfg.Interleave)))
		bShift = uint(bits.TrailingZeros64(uint64(cfg.BlockBytes)))
		cMask = int64(cfg.Clusters - 1)
	}

	interleaved := cfg.Org == arch.Interleaved
	lanes := make([]lane, len(cfgs))
	for l := range cfgs {
		c := cfgs[l]
		lanes[l] = lane{
			busFree:  make([]int64, c.MemBuses),
			portFree: make([]int64, c.NextLevelPorts),
			lats:     c.MemLatencies(),
			busHold:  int64(c.BusCycleRatio),
			uhit:     int64(c.UnifiedHitLatency()),
			umiss:    int64(c.UnifiedMissLatency()),
			mvliw:    c.Org == arch.MultiVLIW,
			unified:  c.Org == arch.Unified,
			hier:     hiers[l],
		}
		if interleaved && c.MSHRs > 0 {
			lanes[l].fills = &mshrPool{cap: c.MSHRs}
		}
		switch h := hiers[l].(type) {
		case *cache.Interleaved:
			lanes[l].ic = h
		case *cache.MultiVLIWCache:
			lanes[l].mc = h
		case *cache.UnifiedCache:
			lanes[l].uc = h
		}
	}
	fams := attach(cfgs, lanes)

	// Stall causes depend only on the (static) instruction and its
	// placement, never on simulated time or lane state, so the Figure 5
	// classification is computed at most once per instruction and shared
	// by every lane's remote hits.
	causes := make([][]stats.Cause, len(infos))
	causesDone := make([]bool, len(infos))

	// Lock-step execution: accumulated stall delays every later issue, so
	// oversubscribed buses throttle the machine instead of building
	// unbounded queues.
	for w, end := slices.Min(stages), slices.Max(stages)+iters; w < end; w++ {
		for _, k := range order {
			mi := &infos[k]
			i := w - mi.stage
			if i < 0 || i >= iters {
				continue
			}
			// Shared front half: the pre-stall issue time, the generated
			// address and everything derived from compile-key geometry
			// are lane-invariant (addresses depend on the iteration
			// index, not the stalled clock).
			issue := mi.cycle + i*ii
			addr := mi.addrs.Next()
			var home int
			var blk int64
			if fastGeom && addr >= 0 {
				home = int((addr >> iShift) & cMask)
				blk = addr >> bShift
			} else {
				home = cfg.HomeCluster(addr)
				blk = addr / int64(cfg.BlockBytes)
			}
			var sbKey int64
			if interleaved {
				sbKey = blk*int64(cfg.Clusters) + int64(home)
			}

			// Fork every attached follower that could differ from its
			// leader at this access: one whose depth the leader's live
			// fills have reached. Forking early is exact; late is not.
			for fi := range fams {
				f := &fams[fi]
				if len(f.forks) == 0 {
					continue
				}
				ld := &lanes[f.lead]
				live := ld.fills.prune(issue + ld.stalled)
				for len(f.forks) > 0 && lanes[f.forks[0]].fills.cap <= live {
					lanes[f.forks[0]].fork(ld, &outs[f.forks[0]], &outs[f.lead])
					f.forks = f.forks[1:]
				}
				if len(f.forks) == 0 && cfgs[f.lead].MSHRs == 0 {
					ld.fills = nil // no follower left to count fills for
				}
			}

			for l := range lanes {
				ln := &lanes[l]
				if ln.lead >= 0 {
					continue // attached: the leader simulates for it
				}
				out := &outs[l]
				t := issue + ln.stalled

				var class stats.Class
				var actual int64

				// Combining: a second request to a subblock with an
				// outstanding fill is not issued (interleaved only).
				if interleaved {
					if completion, ok := ln.pending.lookup(sbKey, t); ok {
						class = stats.Combined
						actual = completion - t
						out.Accesses[class]++
						ln.stalled += stallAndAttribute(out, mi.tolerance, mi.hasCons, actual, class, nil)
						continue
					}
				}

				// Bounded MSHRs: an access that will allocate a fill slot
				// (anything that leaves a request outstanding) waits until
				// a slot frees; the wait delays the whole access.
				var mshrWait int64
				var r cache.Result
				switch {
				case ln.ic != nil:
					r = ln.ic.AccessBlock(mi.cluster, blk, home, mi.store, mi.attract)
				case ln.mc != nil:
					r = ln.mc.AccessBlock(mi.cluster, blk, mi.store)
				case ln.uc != nil:
					r = ln.uc.AccessBlock(blk)
				default:
					r = ln.hier.Access(mi.cluster, addr, mi.store, mi.attract)
				}
				if interleaved && mi.granSpan {
					// An element bigger than the interleaving factor
					// always spans more than one cluster: the access
					// can never be fully local (§5.2, mpeg2dec).
					switch r.Class {
					case arch.LocalHit:
						r.Class = arch.RemoteHit
					case arch.LocalMiss:
						r.Class = arch.RemoteMiss
					}
				}
				if ln.fills != nil && r.Class != arch.LocalHit {
					mshrWait = ln.fills.reserve(t)
					t += mshrWait
				}
				switch {
				case ln.unified:
					if r.Class == arch.LocalHit {
						class, actual = stats.LHit, ln.uhit
					} else {
						class, actual = stats.LMiss, ln.umiss
						actual += acquire(ln.portFree, t, ln.busHold)
					}
				default:
					if ln.mvliw && mi.store {
						// Write-invalidate: every store broadcasts a
						// snoop on the memory buses.
						acquire(ln.busFree, t, ln.busHold)
					}
					switch r.Class {
					case arch.LocalHit:
						class, actual = stats.LHit, int64(ln.lats[arch.LocalHit])
					case arch.RemoteHit:
						class, actual = stats.RHit, int64(ln.lats[arch.RemoteHit])
						actual += acquire(ln.busFree, t, ln.busHold)                   // request
						actual += acquire(ln.busFree, t+actual-ln.busHold, ln.busHold) // reply
					case arch.LocalMiss:
						class, actual = stats.LMiss, int64(ln.lats[arch.LocalMiss])
						actual += acquire(ln.portFree, t, ln.busHold)
					case arch.RemoteMiss:
						class, actual = stats.RMiss, int64(ln.lats[arch.RemoteMiss])
						actual += acquire(ln.busFree, t, ln.busHold)
						actual += acquire(ln.portFree, t+ln.busHold, ln.busHold)
					}
					if interleaved && class != stats.LHit {
						ln.pending.set(sbKey, t+actual)
						if ln.fills != nil {
							ln.fills.add(t + actual)
						}
					}
				}
				out.Accesses[class]++
				var cs []stats.Cause
				if class == stats.RHit {
					if !causesDone[k] {
						causes[k] = rhCauses(s, cfg, meta, mi.id, mi.cluster)
						causesDone[k] = true
					}
					cs = causes[k]
				}
				ln.stalled += stallAndAttribute(out, mi.tolerance, mi.hasCons, actual+mshrWait, class, cs)
			}
		}
	}

	for l := range lanes {
		if ln := &lanes[l]; ln.lead >= 0 {
			ld := &lanes[ln.lead]
			outs[l] = outs[ln.lead] // a family's static fields agree too
			ln.shared = outs[l].TotalAccesses()
			ln.ic.CopyTags(ld.ic)
			ln.pending.peak = ld.pending.peak
		}
		if testPendingPeak != nil {
			testPendingPeak(l, lanes[l].pending.peak)
		}
		if testShared != nil {
			testShared(l, lanes[l].shared)
		}
	}
}

// attach partitions the interleaved lanes into families and attaches each
// follower whose tags equal its leader's. It returns the families; an
// unbounded leader with a follower to fork gets a capless fill heap.
func attach(cfgs []arch.Config, lanes []lane) []family {
	for l := range lanes {
		lanes[l].lead = -1
	}
	if len(lanes) < 2 {
		return nil
	}
	depth := func(l int) int { // MSHR depth, unbounded deepest
		if cfgs[l].MSHRs == 0 {
			return math.MaxInt
		}
		return cfgs[l].MSHRs
	}
	var buf [16]arch.Config // a typical batch's machines, off the heap
	machines := append(buf[:0], cfgs...)
	for l := range machines {
		machines[l].MSHRs = 0
	}
	kin := func(a, b int) bool { return lanes[b].ic != nil && machines[a] == machines[b] }
	var fams []family
	for l := range lanes {
		// l roots a family when no earlier lane shares its machine.
		if lanes[l].ic == nil || cfgs[l].Org != arch.Interleaved ||
			slices.ContainsFunc(machines[:l], func(m arch.Config) bool { return m == machines[l] }) {
			continue
		}
		lead := l
		for j := l + 1; j < len(lanes); j++ {
			if kin(l, j) && depth(j) > depth(lead) {
				lead = j
			}
		}
		f := family{lead: lead}
		for j := l; j < len(lanes); j++ {
			if j == lead || !kin(l, j) || !lanes[j].ic.SameTags(lanes[lead].ic) {
				continue
			}
			lanes[j].lead = lead
			if depth(j) < depth(lead) {
				f.forks = append(f.forks, j)
			}
		}
		if len(f.forks) == 0 {
			continue
		}
		slices.SortStableFunc(f.forks, func(a, b int) int { return cmp.Compare(depth(a), depth(b)) })
		if lanes[lead].fills == nil {
			lanes[lead].fills = &mshrPool{cap: math.MaxInt}
		}
		fams = append(fams, f)
	}
	return fams
}

// fork detaches a follower: it copies the leader's stall shift, pools,
// combining table, live fills (under its own depth), tags and counters into
// its own buffers and is simulated from the current access on.
func (ln *lane) fork(ld *lane, out, ldOut *stats.Loop) {
	ln.stalled = ld.stalled
	copy(ln.busFree, ld.busFree)
	copy(ln.portFree, ld.portFree)
	ln.pending.entries = append(ln.pending.entries[:0], ld.pending.live()...)
	ln.pending.n, ln.pending.soonest, ln.pending.peak = ld.pending.n, ld.pending.soonest, ld.pending.peak
	ln.fills.completions = append(ln.fills.completions[:0], ld.fills.live()...)
	ln.fills.n = ld.fills.n
	ln.ic.CopyTags(ld.ic)
	*out = *ldOut // a family's static fields agree too
	ln.shared = out.TotalAccesses()
	ln.lead = -1
}

// acquire models queuing on a resource pool: the transfer starts when the
// earliest-free unit is available and holds it for `hold` cycles.
func acquire(pool []int64, at int64, hold int64) int64 {
	best := 0
	for i := 1; i < len(pool); i++ {
		if pool[i] < pool[best] {
			best = i
		}
	}
	start := at
	if pool[best] > start {
		start = pool[best]
	}
	pool[best] = start + hold
	return start - at
}

// pendingSet is the interleaved-org combining table: subblock key →
// outstanding fill completion. Lookup times are monotone (pre-stall issue
// order plus a nondecreasing stall shift), so entries whose completion has
// passed can never combine again and are swap-removed as each lookup scans —
// the table stays proportional to the number of *outstanding* fills instead
// of every subblock the run ever touched. At that size (tens of entries,
// bounded by latency over II) a flat linearly-scanned slice beats a hash
// map: no hashing, no tombstones, one cache line most of the time.
//
// The live entries are entries[:n]. Shrinking stores only n: the set lives
// in a heap-allocated lane, and storing a slice header there would cost a
// GC write barrier on every pruning lookup while the collector marks.
type pendingSet struct {
	entries []pendEntry
	n       int
	// soonest is at most the earliest completion in entries: while lookups
	// come before it nothing can have expired, and the prune is skipped.
	soonest int64
	peak    int // high-water size, for the bounded-memory regression test
}

// pendEntry is one (completion, key) outstanding fill.
type pendEntry struct {
	completion int64
	key        int64
}

// lookup prunes entries expired at t, then reports the live completion for
// key, if any (ok only when t < completion — the combining condition). Keys
// are unique: set is only reached after a failed lookup at the same t, which
// has already removed any expired entry for the key.
func (p *pendingSet) lookup(key, t int64) (int64, bool) {
	es := p.live()
	if t < p.soonest {
		for _, e := range es {
			if e.key == key {
				return e.completion, true
			}
		}
		return 0, false
	}
	soonest := int64(math.MaxInt64)
	for i := 0; i < len(es); {
		e := es[i]
		if e.completion <= t {
			es[i] = es[len(es)-1]
			es = es[:len(es)-1]
			continue
		}
		if e.key == key {
			// Pruning only raises the minimum, so the old bound holds.
			p.n = len(es)
			return e.completion, true
		}
		soonest = min(soonest, e.completion)
		i++
	}
	p.n, p.soonest = len(es), soonest
	return 0, false
}

// set records an outstanding fill for key completing at the given cycle.
func (p *pendingSet) set(key, completion int64) {
	if p.n == 0 || completion < p.soonest {
		p.soonest = completion
	}
	e := pendEntry{completion: completion, key: key}
	if p.n < len(p.entries) {
		p.entries[p.n] = e
	} else {
		p.entries = append(p.entries, e)
	}
	p.n++
	p.peak = max(p.peak, p.n)
}

// live returns the live entries.
func (p *pendingSet) live() []pendEntry { return p.entries[:p.n] }

// mshrPool models a bounded set of outstanding-fill slots (MSHRs) as a
// binary min-heap of completion times. reserve pops expired fills and, when
// every slot is still live, returns the wait until the earliest one frees
// (consuming it); add registers a new outstanding fill. The heap is
// completions[:n], and pop stores only n, for the reason pendingSet does.
type mshrPool struct {
	completions []int64
	n           int
	cap         int
}

// prune drops the fills complete by t and returns how many stay live.
func (p *mshrPool) prune(t int64) int {
	for p.n > 0 && p.completions[0] <= t {
		p.pop()
	}
	return p.n
}

// reserve returns the extra cycles an access issued at t must wait for a
// free fill slot (0 when one is available).
func (p *mshrPool) reserve(t int64) int64 {
	if p.prune(t) < p.cap {
		return 0
	}
	wait := p.completions[0] - t
	p.pop()
	return wait
}

// add registers an outstanding fill completing at the given cycle.
func (p *mshrPool) add(completion int64) {
	if p.n < len(p.completions) {
		p.completions[p.n] = completion
	} else {
		p.completions = append(p.completions, completion)
	}
	h := p.completions
	i := p.n
	p.n++
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// live returns the live fills, in heap order.
func (p *mshrPool) live() []int64 { return p.completions[:p.n] }

func (p *mshrPool) pop() {
	p.n--
	h := p.completions
	h[0] = h[p.n]
	h = h[:p.n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l] < h[min] {
			min = l
		}
		if r < len(h) && h[r] < h[min] {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// stallAndAttribute charges max(0, actual − tolerance) stall cycles to the
// class (and, for remote hits, to the Figure 5 causes) and returns the
// charge. Accesses without register-flow consumers (stores) never stall.
func stallAndAttribute(out *stats.Loop, tolerance int64, hasCons bool, actual int64,
	class stats.Class, causes []stats.Cause) int64 {
	if !hasCons {
		return 0
	}
	st := actual - tolerance
	if st <= 0 {
		return 0
	}
	out.StallCycles += st
	out.StallByClass[class] += st
	for _, c := range causes {
		out.StallCauses[c] += st
	}
	return st
}

// rhCauses classifies a stall-generating remote hit by the §5.2 factors.
// Factors are not exclusive; all that apply are returned.
func rhCauses(s *sched.Schedule, cfg arch.Config, meta Meta, id, cluster int) []stats.Cause {
	in := s.Loop.Instrs[id]
	var cs []stats.Cause
	if in.Mem.Indirect || !in.Mem.StrideKnown || in.Mem.Stride%int64(cfg.NI()) != 0 {
		cs = append(cs, stats.CauseMultiCluster)
	}
	if meta.Dispersion != nil && meta.Dispersion(id) < unclearThreshold {
		cs = append(cs, stats.CauseUnclearPref)
	}
	if meta.Preferred != nil && meta.Preferred(id) != cluster {
		cs = append(cs, stats.CauseNotPreferred)
	}
	if in.Mem.Gran > cfg.Interleave {
		cs = append(cs, stats.CauseGranularity)
	}
	return cs
}
