package cache

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"ivliw/internal/arch"
)

// mustStore / mustHashed build stores for geometries the test knows are good.
func mustStore(t *testing.T, lines, assoc int) *Store {
	t.Helper()
	s, err := NewStore(lines, assoc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustHashed(t *testing.T, lines, assoc int) *Store {
	t.Helper()
	s, err := NewHashedStore(lines, assoc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreLRU(t *testing.T) {
	s := mustStore(t, 4, 2) // 2 sets × 2 ways
	// Keys 0, 2, 4 map to set 0 (even), 1, 3 to set 1.
	s.Fill(0)
	s.Fill(2)
	if !s.Lookup(0) || !s.Lookup(2) {
		t.Fatal("resident keys must hit")
	}
	s.Lookup(0) // 0 is MRU
	s.Fill(4)   // evicts 2 (LRU)
	if s.Lookup(2) {
		t.Error("LRU key 2 should have been evicted")
	}
	if !s.Lookup(0) || !s.Lookup(4) {
		t.Error("keys 0 and 4 must remain")
	}
}

func TestStoreInvalidateFlushLen(t *testing.T) {
	s := mustStore(t, 8, 2)
	for k := int64(0); k < 6; k++ {
		s.Fill(k)
	}
	if s.Len() != 6 {
		t.Errorf("Len = %d, want 6", s.Len())
	}
	if !s.Invalidate(3) || s.Lookup(3) {
		t.Error("Invalidate(3) failed")
	}
	if s.Invalidate(3) {
		t.Error("second Invalidate(3) must report absence")
	}
	s.Flush()
	if s.Len() != 0 {
		t.Errorf("Len after Flush = %d, want 0", s.Len())
	}
}

func TestStoreFillIdempotent(t *testing.T) {
	s := mustStore(t, 4, 2)
	s.Fill(0)
	s.Fill(0)
	if s.Len() != 1 {
		t.Errorf("duplicate Fill created %d entries", s.Len())
	}
}

// TestNewStoreRejectsBadGeometry: a bad geometry is a returned error (so a
// bad sweep point fails one cell), and MustStore is the panicking variant
// for geometries already validated upstream.
func TestNewStoreRejectsBadGeometry(t *testing.T) {
	for _, g := range []struct{ lines, assoc int }{{3, 2}, {0, 1}, {4, 0}, {-8, 2}, {8, -2}} {
		if _, err := NewStore(g.lines, g.assoc); err == nil {
			t.Errorf("NewStore(%d, %d) must fail", g.lines, g.assoc)
		}
		if _, err := NewHashedStore(g.lines, g.assoc); err == nil {
			t.Errorf("NewHashedStore(%d, %d) must fail", g.lines, g.assoc)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustStore(3, 2) must panic")
		}
	}()
	MustStore(3, 2)
}

// TestStoreNeverExceedsCapacity is a property test: after any access
// sequence the store holds at most `lines` keys and at most `assoc` per set.
func TestStoreNeverExceedsCapacity(t *testing.T) {
	f := func(keys []int16) bool {
		s := mustStore(t, 8, 2)
		for _, k := range keys {
			s.Fill(int64(k))
		}
		if s.Len() > 8 {
			return false
		}
		if len(s.ways) != 8 || len(s.count) != 4 {
			return false
		}
		for _, n := range s.count {
			if n > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func defaultInterleaved(t *testing.T, ab bool) (*Interleaved, arch.Config) {
	t.Helper()
	cfg := arch.Default()
	cfg.AttractionBuffers = ab
	ic, err := NewInterleaved(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ic, cfg
}

func TestInterleavedClassification(t *testing.T) {
	ic, cfg := defaultInterleaved(t, false)
	// Address 0 belongs to cluster 0. First touch from cluster 0: local
	// miss; again: local hit; from cluster 1: remote hit.
	if r := ic.Access(0, 0, false, false); r.Class != arch.LocalMiss {
		t.Errorf("first access = %v, want local miss", r.Class)
	}
	if r := ic.Access(0, 0, false, false); r.Class != arch.LocalHit {
		t.Errorf("second access = %v, want local hit", r.Class)
	}
	if r := ic.Access(1, 0, false, false); r.Class != arch.RemoteHit {
		t.Errorf("cross-cluster access = %v, want remote hit", r.Class)
	}
	// Word 1 of the block (addr 4) belongs to cluster 1 and the block is
	// resident: local hit from cluster 1, remote hit from cluster 3.
	if r := ic.Access(1, 4, false, false); r.Class != arch.LocalHit {
		t.Errorf("same-block word 1 from cluster 1 = %v, want local hit", r.Class)
	}
	if r := ic.Access(3, 4, false, false); r.Class != arch.RemoteHit {
		t.Errorf("same-block word 1 from cluster 3 = %v, want remote hit", r.Class)
	}
	// A fresh block touched remotely: remote miss.
	far := int64(1 << 20)
	if r := ic.Access(cfg.HomeCluster(far)+1, far, false, false); r.Class != arch.RemoteMiss {
		t.Error("fresh remote block must be a remote miss")
	}
}

// TestAttractionBufferFigure1 reproduces the Figure 1 narrative: a load in
// cluster 1 (0-based) referencing word 3 of a line attracts the subblock
// {W3, W7}; the next access to either word from that cluster is local.
func TestAttractionBufferFigure1(t *testing.T) {
	ic, _ := defaultInterleaved(t, true)
	w3, w7 := int64(3*4), int64(7*4) // same subblock, home cluster 3
	ic.Access(3, w3, false, false)   // warm the block (home touch)
	if r := ic.Access(1, w3, false, true); r.Class != arch.RemoteHit {
		t.Fatalf("attracting access = %v, want remote hit", r.Class)
	}
	r := ic.Access(1, w3, false, true)
	if r.Class != arch.LocalHit || !r.ABHit {
		t.Errorf("second access = %+v, want Attraction Buffer local hit", r)
	}
	// The *whole subblock* was attracted: W7 hits too.
	r = ic.Access(1, w7, false, true)
	if r.Class != arch.LocalHit || !r.ABHit {
		t.Errorf("sibling word access = %+v, want Attraction Buffer local hit", r)
	}
	// Another cluster did not attract anything.
	if r := ic.Access(2, w3, false, false); r.Class != arch.RemoteHit {
		t.Errorf("cluster 2 access = %v, want remote hit", r.Class)
	}
	if ic.ABLen(1) != 1 {
		t.Errorf("AB of cluster 1 holds %d subblocks, want 1", ic.ABLen(1))
	}
}

func TestAttractionBufferFlush(t *testing.T) {
	ic, _ := defaultInterleaved(t, true)
	w3 := int64(12)
	ic.Access(3, w3, false, false)
	ic.Access(1, w3, false, true)
	if ic.ABLen(1) != 1 {
		t.Fatal("expected one attracted subblock")
	}
	ic.FlushBuffers()
	if ic.ABLen(1) != 0 {
		t.Error("FlushBuffers must empty the Attraction Buffers")
	}
	if r := ic.Access(1, w3, false, true); r.Class != arch.RemoteHit {
		t.Errorf("post-flush access = %v, want remote hit", r.Class)
	}
}

// TestAttractionBufferHonorsHint: without the attract flag nothing is
// allocated (the §5.2 attractable-hints mechanism).
func TestAttractionBufferHonorsHint(t *testing.T) {
	ic, _ := defaultInterleaved(t, true)
	w3 := int64(12)
	ic.Access(3, w3, false, false)
	ic.Access(1, w3, false, false) // not attractable
	if ic.ABLen(1) != 0 {
		t.Error("non-attractable access must not allocate in the AB")
	}
	if r := ic.Access(1, w3, false, false); r.Class != arch.RemoteHit {
		t.Errorf("access = %v, want remote hit (nothing attracted)", r.Class)
	}
}

// TestAttractionBufferCapacity: a stream of 19 distinct remote subblocks
// overflows a 16-entry buffer (the epicdec loop of §5.2).
func TestAttractionBufferCapacity(t *testing.T) {
	ic, cfg := defaultInterleaved(t, true)
	// 19 subblocks homed in cluster 3, accessed from cluster 1.
	var addrs []int64
	for i := 0; i < 19; i++ {
		addrs = append(addrs, int64(i*cfg.BlockBytes+12))
	}
	for _, a := range addrs {
		ic.Access(3, a, false, false) // warm
		ic.Access(1, a, false, true)  // attract
	}
	if got := ic.ABLen(1); got > cfg.ABEntries {
		t.Errorf("AB holds %d > capacity %d", got, cfg.ABEntries)
	}
	// Re-walking the stream cannot hit for all 19 (some were evicted).
	hits := 0
	for _, a := range addrs {
		if r := ic.Access(1, a, false, true); r.ABHit {
			hits++
		}
	}
	if hits >= 19 {
		t.Errorf("all %d subblocks hit in a 16-entry buffer", hits)
	}
}

func TestMultiVLIWReplicationAndCoherence(t *testing.T) {
	cfg := arch.MultiVLIWConfig()
	mc, err := NewMultiVLIW(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := int64(64)
	if r := mc.Access(0, addr, false, false); r.Class != arch.LocalMiss {
		t.Errorf("first access = %v, want local miss", r.Class)
	}
	if r := mc.Access(0, addr, false, false); r.Class != arch.LocalHit {
		t.Errorf("re-access = %v, want local hit", r.Class)
	}
	// Cluster 1 pulls a copy: remote hit, then local hit (replication).
	if r := mc.Access(1, addr, false, false); r.Class != arch.RemoteHit || r.Home != 0 {
		t.Errorf("cluster 1 first = %+v, want remote hit from cluster 0", r)
	}
	if r := mc.Access(1, addr, false, false); r.Class != arch.LocalHit {
		t.Errorf("cluster 1 second = %v, want local hit (replicated)", r.Class)
	}
	// A store from cluster 2 invalidates both copies.
	mc.Access(2, addr, true, false)
	if r := mc.Access(0, addr, false, false); r.Class != arch.RemoteHit || r.Home != 2 {
		t.Errorf("post-store access from 0 = %+v, want remote hit from cluster 2", r)
	}
}

func TestUnifiedCache(t *testing.T) {
	cfg := arch.UnifiedConfig(5)
	uc, err := NewUnified(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := uc.Access(0, 128, false, false); r.Class != arch.LocalMiss {
		t.Errorf("first access = %v, want (local) miss", r.Class)
	}
	// Issuing cluster is irrelevant in a unified cache.
	if r := uc.Access(3, 128, false, false); r.Class != arch.LocalHit {
		t.Errorf("re-access from another cluster = %v, want hit", r.Class)
	}
	uc.FlushBuffers() // no-op, must not panic
}

func TestNewDispatch(t *testing.T) {
	mustNew := func(cfg arch.Config) Hierarchy {
		h, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if _, ok := mustNew(arch.Default()).(*Interleaved); !ok {
		t.Error("New(Interleaved config) wrong type")
	}
	if _, ok := mustNew(arch.MultiVLIWConfig()).(*MultiVLIWCache); !ok {
		t.Error("New(MultiVLIW config) wrong type")
	}
	if _, ok := mustNew(arch.UnifiedConfig(1)).(*UnifiedCache); !ok {
		t.Error("New(Unified config) wrong type")
	}
	bad := arch.Default()
	bad.Interleave = 3
	if _, err := New(bad); err == nil {
		t.Error("New must reject an invalid configuration with an error")
	}
}

// TestInterleavedWorkingSetCapacity: a working set larger than 8KB thrashes
// (hit rate well below 1); one that fits is all hits after warmup.
func TestInterleavedWorkingSetCapacity(t *testing.T) {
	ic, cfg := defaultInterleaved(t, false)
	// Fits: 4KB streamed twice.
	misses := 0
	for pass := 0; pass < 2; pass++ {
		for a := int64(0); a < 4096; a += 32 {
			if r := ic.Access(cfg.HomeCluster(a), a, false, false); r.Class == arch.LocalMiss || r.Class == arch.RemoteMiss {
				misses++
			}
		}
	}
	if misses != 128 {
		t.Errorf("4KB working set: %d misses, want 128 (cold only)", misses)
	}
	// Does not fit: 32KB streamed twice misses on every block.
	ic2, _ := defaultInterleaved(t, false)
	misses = 0
	for pass := 0; pass < 2; pass++ {
		for a := int64(0); a < 32*1024; a += 32 {
			if r := ic2.Access(cfg.HomeCluster(a), a, false, false); r.Class == arch.LocalMiss || r.Class == arch.RemoteMiss {
				misses++
			}
		}
	}
	if misses < 2000 {
		t.Errorf("32KB working set: only %d misses, want ~2048 (thrash)", misses)
	}
}

// TestHashedVsModuloResidency is the property test for the two set-index
// functions: over any operation sequence on single-home keys (home-cluster
// bits zero, as for L1 block numbers), a hashed and a modulo store of the
// same geometry agree exactly on residency whenever set indexing cannot
// influence evictions — (a) a single-set (fully associative) geometry, and
// (b) any geometry while the distinct-key count stays within one set's
// capacity, so neither store ever evicts.
func TestHashedVsModuloResidency(t *testing.T) {
	type op struct {
		kind byte // 0 = Fill, 1 = Lookup, 2 = Invalidate
		key  int64
	}
	run := func(s *Store, o op) bool {
		switch o.kind % 3 {
		case 0:
			s.Fill(o.key)
			return true
		case 1:
			return s.Lookup(o.key)
		default:
			return s.Invalidate(o.key)
		}
	}

	// (a) Fully associative: one set, identical behaviour for arbitrary
	// single-home key streams.
	fullyAssoc := func(kinds []byte, rawKeys []uint32) bool {
		mod := mustStore(t, 8, 8)
		hash := mustHashed(t, 8, 8)
		for i, k := range kinds {
			if i >= len(rawKeys) {
				break
			}
			o := op{kind: k, key: int64(rawKeys[i])} // single-home: high bits zero
			if run(mod, o) != run(hash, o) {
				return false
			}
		}
		return mod.Len() == hash.Len()
	}
	if err := quick.Check(fullyAssoc, nil); err != nil {
		t.Errorf("fully associative equivalence: %v", err)
	}

	// (b) Set-associative, eviction-free: at most `assoc` distinct keys in
	// play, so no set of either store can overflow and residency is the
	// same set of keys in both.
	evictionFree := func(kinds []byte, picks []byte, seed uint32) bool {
		const lines, assoc = 8, 2
		keys := [assoc]int64{int64(seed), int64(seed>>3) + 1<<20} // 2 distinct single-home keys
		mod := mustStore(t, lines, assoc)
		hash := mustHashed(t, lines, assoc)
		for i, k := range kinds {
			if i >= len(picks) {
				break
			}
			o := op{kind: k, key: keys[picks[i]%assoc]}
			if run(mod, o) != run(hash, o) {
				return false
			}
		}
		for _, key := range keys {
			// Residency check without MRU promotion side effects
			// differing: Lookup mutates both identically.
			if mod.Lookup(key) != hash.Lookup(key) {
				return false
			}
		}
		return mod.Len() == hash.Len()
	}
	if err := quick.Check(evictionFree, nil); err != nil {
		t.Errorf("eviction-free equivalence: %v", err)
	}
}

// refStore is the tag store as it stood before the flat layout, kept as the
// reference for Store: one slice per set, index 0 the MRU, and the set
// index always by modulo.
type refStore struct {
	sets   [][]int64
	assoc  int
	hashed bool
}

func newRefStore(lines, assoc int, hashed bool) *refStore {
	s := &refStore{sets: make([][]int64, lines/assoc), assoc: assoc, hashed: hashed}
	for i := range s.sets {
		s.sets[i] = make([]int64, 0, assoc)
	}
	return s
}

func (s *refStore) set(key int64) int {
	h := uint64(key)
	if s.hashed {
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return int(h % uint64(len(s.sets)))
}

func (s *refStore) Lookup(key int64) bool {
	set := s.sets[s.set(key)]
	for i, k := range set {
		if k == key {
			copy(set[1:i+1], set[:i])
			set[0] = key
			return true
		}
	}
	return false
}

func (s *refStore) Fill(key int64) {
	if s.Lookup(key) {
		return
	}
	si := s.set(key)
	set := s.sets[si]
	if len(set) < s.assoc {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = key
	s.sets[si] = set
}

// Access is the Lookup-then-Fill pair Store.Access replaces.
func (s *refStore) Access(key int64) bool {
	hit := s.Lookup(key)
	if !hit {
		s.Fill(key)
	}
	return hit
}

func (s *refStore) Invalidate(key int64) bool {
	si := s.set(key)
	set := s.sets[si]
	for i, k := range set {
		if k == key {
			s.sets[si] = append(set[:i], set[i+1:]...)
			return true
		}
	}
	return false
}

func (s *refStore) Flush() {
	for i := range s.sets {
		s.sets[i] = s.sets[i][:0]
	}
}

func (s *refStore) Len() int {
	n := 0
	for _, set := range s.sets {
		n += len(set)
	}
	return n
}

// sameSets reports whether every set of the flat store holds the reference
// set's keys in the same MRU-to-LRU order.
func sameSets(s *Store, r *refStore) bool {
	if len(s.count) != len(r.sets) {
		return false
	}
	for i, want := range r.sets {
		if !slices.Equal(s.resident(i), want) {
			return false
		}
	}
	return true
}

// randomKey draws from a small pool so sets fill, hit and evict: small
// block numbers, negative keys and high-bit subblock keys (home<<40).
func randomKey(rng *rand.Rand, lines int) int64 {
	k := int64(rng.IntN(3 * lines))
	switch rng.IntN(4) {
	case 0:
		return -k
	case 1:
		return k | int64(rng.IntN(8))<<40
	}
	return k
}

// TestStoreMatchesReference drives the flat Store and the reference over
// random operation sequences — modulo and hashed indexing, power-of-two and
// other set counts, associativity 1–8 — comparing every return value and
// each set's MRU order after every operation.
func TestStoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	for trial := 0; trial < 400; trial++ {
		sets, assoc := []int{1, 2, 3, 4, 5, 7, 8, 12, 16}[rng.IntN(9)], 1+rng.IntN(8)
		hashed := rng.IntN(2) == 0
		newStore := mustStore
		if hashed {
			newStore = mustHashed
		}
		s, r := newStore(t, sets*assoc, assoc), newRefStore(sets*assoc, assoc, hashed)
		for op := 0; op < 300; op++ {
			key := randomKey(rng, sets*assoc)
			var got, want any
			switch kind := rng.IntN(20); {
			case kind < 6:
				got, want = s.Lookup(key), r.Lookup(key)
			case kind < 12:
				got, want = s.Access(key), r.Access(key)
			case kind < 16:
				s.Fill(key)
				r.Fill(key)
			case kind < 19:
				got, want = s.Invalidate(key), r.Invalidate(key)
			default:
				s.Flush()
				r.Flush()
			}
			if got != want || s.Len() != r.Len() || !sameSets(s, r) {
				t.Fatalf("trial %d (%d sets × %d ways, hashed %t) op %d key %#x: got %v want %v, len %d/%d\n flat %v %v\n ref  %v",
					trial, sets, assoc, hashed, op, key, got, want, s.Len(), r.Len(), s.ways, s.count, r.sets)
			}
		}
	}
}

// refHierarchy is the access path of the three organizations as it stood
// before Store.Access, over reference stores: every miss is a Lookup then a
// Fill, and the Attraction Buffer key is hashed on each call.
type refHierarchy struct {
	cfg    arch.Config
	blocks *refStore   // interleaved and unified
	abs    []*refStore // interleaved with buffers
	mods   []*refStore // multiVLIW
}

func newRefHierarchy(cfg arch.Config) *refHierarchy {
	h := &refHierarchy{cfg: cfg}
	switch cfg.Org {
	case arch.MultiVLIW:
		for c := 0; c < cfg.Clusters; c++ {
			h.mods = append(h.mods, newRefStore(cfg.ModuleBytes()/cfg.BlockBytes, cfg.Assoc, false))
		}
		return h
	case arch.Interleaved:
		if cfg.AttractionBuffers {
			for c := 0; c < cfg.Clusters; c++ {
				h.abs = append(h.abs, newRefStore(cfg.ABEntries, cfg.ABAssoc, true))
			}
		}
	}
	h.blocks = newRefStore(cfg.CacheBytes/cfg.BlockBytes, cfg.Assoc, false)
	return h
}

func (h *refHierarchy) Access(cluster int, addr int64, store, attract bool) Result {
	blk := addr / int64(h.cfg.BlockBytes)
	switch h.cfg.Org {
	case arch.Unified:
		if h.blocks.Lookup(blk) {
			return Result{Class: arch.LocalHit, Home: -1}
		}
		h.blocks.Fill(blk)
		return Result{Class: arch.LocalMiss, Home: -1}
	case arch.MultiVLIW:
		if store {
			for c, m := range h.mods {
				if c != cluster {
					m.Invalidate(blk)
				}
			}
			if h.mods[cluster].Lookup(blk) {
				return Result{Class: arch.LocalHit, Home: cluster}
			}
			h.mods[cluster].Fill(blk)
			return Result{Class: arch.LocalMiss, Home: cluster}
		}
		if h.mods[cluster].Lookup(blk) {
			return Result{Class: arch.LocalHit, Home: cluster}
		}
		for c, m := range h.mods {
			if c != cluster && m.Lookup(blk) {
				h.mods[cluster].Fill(blk)
				return Result{Class: arch.RemoteHit, Home: c}
			}
		}
		h.mods[cluster].Fill(blk)
		return Result{Class: arch.LocalMiss, Home: cluster}
	}
	home := h.cfg.HomeCluster(addr)
	local := home == cluster
	if !local && h.abs != nil {
		key := blk | int64(home)<<40
		if store {
			h.abs[cluster].Lookup(key)
		} else if h.abs[cluster].Lookup(key) {
			return Result{Class: arch.LocalHit, ABHit: true, Home: home}
		}
	}
	hit := h.blocks.Lookup(blk)
	if !hit {
		h.blocks.Fill(blk)
	}
	if !local && !store && h.abs != nil && attract {
		h.abs[cluster].Fill(blk | int64(home)<<40)
	}
	switch {
	case local && hit:
		return Result{Class: arch.LocalHit, Home: home}
	case !local && hit:
		return Result{Class: arch.RemoteHit, Home: home}
	case local:
		return Result{Class: arch.LocalMiss, Home: home}
	}
	return Result{Class: arch.RemoteMiss, Home: home}
}

// sameTags reports whether every tag store of the hierarchy matches the
// reference's, set by set in MRU order.
func sameTags(h Hierarchy, r *refHierarchy) bool {
	pairs := map[*Store]*refStore{}
	switch h := h.(type) {
	case *Interleaved:
		pairs[h.blocks] = r.blocks
		for c, ab := range h.abs {
			pairs[ab] = r.abs[c]
		}
	case *MultiVLIWCache:
		for c, m := range h.mods {
			pairs[m] = r.mods[c]
		}
	case *UnifiedCache:
		pairs[h.blocks] = r.blocks
	}
	for s, rs := range pairs {
		if !sameSets(s, rs) {
			return false
		}
	}
	return true
}

// TestHierarchiesMatchReference drives each organization, with and without
// Attraction Buffers and over odd geometries, and the reference with the
// same random accesses (loads and stores, attracting or not, from every
// cluster, with buffer flushes between bursts), comparing each Result and
// every tag store.
func TestHierarchiesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	for trial := 0; trial < 300; trial++ {
		cfg := arch.Default()
		cfg.Org = []arch.CacheOrg{arch.Interleaved, arch.MultiVLIW, arch.Unified}[rng.IntN(3)]
		cfg.Clusters = []int{1, 2, 3, 4, 8}[rng.IntN(5)]
		cfg.Interleave = []int{1, 2, 3, 4}[rng.IntN(4)]
		cfg.BlockBytes = cfg.Clusters * cfg.Interleave * (1 + rng.IntN(2))
		cfg.Assoc = 1 + rng.IntN(4)
		cfg.CacheBytes = cfg.Clusters * cfg.Assoc * (1 + rng.IntN(4)) * cfg.BlockBytes
		cfg.AttractionBuffers = rng.IntN(3) > 0
		cfg.ABAssoc = 1 + rng.IntN(2)
		cfg.ABEntries = cfg.ABAssoc * (1 + rng.IntN(6))
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		h, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := newRefHierarchy(cfg)
		span := int64(4 * cfg.CacheBytes)
		for op := 0; op < 400; op++ {
			if rng.IntN(50) == 0 {
				h.FlushBuffers()
				for _, ab := range r.abs {
					ab.Flush()
				}
			}
			cluster, addr := rng.IntN(cfg.Clusters), rng.Int64N(span)-span/8
			store, attract := rng.IntN(4) == 0, rng.IntN(2) == 0
			got, want := h.Access(cluster, addr, store, attract), r.Access(cluster, addr, store, attract)
			if got != want || !sameTags(h, r) {
				t.Fatalf("trial %d (%s) op %d: Access(%d, %d, store %t, attract %t) = %+v, reference %+v (tags equal %t)",
					trial, cfg.ID(), op, cluster, addr, store, attract, got, want, sameTags(h, r))
			}
		}
	}
}

// TestInterleavedSameAndCopyTags: SameTags sees the whole tag state — the
// resident blocks and every Attraction Buffer, in LRU order — and only hierarchies of
// one geometry can match; after CopyTags two hierarchies classify every
// access alike, and the copy allocates nothing.
func TestInterleavedSameAndCopyTags(t *testing.T) {
	cfg := arch.Default()
	cfg.AttractionBuffers = true
	fresh := func(cfg arch.Config) *Interleaved {
		t.Helper()
		ic, err := NewInterleaved(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ic
	}
	access := func(ic *Interleaved, rng *rand.Rand) Result {
		return ic.Access(rng.IntN(cfg.Clusters), int64(rng.IntN(64<<10)), rng.IntN(4) == 0, rng.IntN(2) == 0)
	}
	a, b := fresh(cfg), fresh(cfg)
	if !a.SameTags(b) {
		t.Fatal("two fresh hierarchies differ")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		access(a, rng)
	}
	if a.SameTags(b) {
		t.Fatal("2000 accesses left the tags unchanged")
	}
	b.CopyTags(a)
	if !a.SameTags(b) {
		t.Fatal("CopyTags did not make the tags equal")
	}
	ra, rb := rand.New(rand.NewPCG(3, 4)), rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 2000; i++ {
		if x, y := access(a, ra), access(b, rb); x != y {
			t.Fatalf("access %d after CopyTags: %+v vs %+v", i, x, y)
		}
	}
	if !a.SameTags(b) {
		t.Fatal("equal tags diverged under equal accesses")
	}
	if n := testing.AllocsPerRun(100, func() { b.CopyTags(a) }); n != 0 {
		t.Errorf("CopyTags allocates %v times", n)
	}

	// Blocks 0 and 128 share set 0 of the 128-set L1: the same two
	// residents in the other LRU order are a different state.
	set := int64(cfg.CacheBytes / cfg.Assoc)
	c, d := fresh(cfg), fresh(cfg)
	c.Access(0, 0, false, false)
	c.Access(0, set, false, false)
	d.Access(0, set, false, false)
	d.Access(0, 0, false, false)
	if c.SameTags(d) {
		t.Error("SameTags ignores LRU order")
	}
	// The same blocks with and without an attracted subblock differ.
	c, d = fresh(cfg), fresh(cfg)
	c.Access(1, 0, false, true)
	d.Access(1, 0, false, false)
	if c.SameTags(d) {
		t.Error("SameTags ignores the Attraction Buffers")
	}
	noAB := cfg
	noAB.AttractionBuffers = false
	for _, tc := range []struct {
		base arch.Config
		edit func(*arch.Config)
	}{
		{cfg, func(c *arch.Config) { c.AttractionBuffers = false }},
		{cfg, func(c *arch.Config) { c.ABEntries *= 2 }},
		{cfg, func(c *arch.Config) { c.Assoc, c.ABAssoc = 4, 1 }},
		// Without buffers these keep the block store's shape, but its
		// keys name other blocks, homed in other clusters.
		{noAB, func(c *arch.Config) { c.Clusters = 2 }},
		{noAB, func(c *arch.Config) { c.Interleave *= 2 }},
		{noAB, func(c *arch.Config) { c.BlockBytes, c.CacheBytes = 2*c.BlockBytes, 2*c.CacheBytes }},
	} {
		ocfg := tc.base
		tc.edit(&ocfg)
		if fresh(tc.base).SameTags(fresh(ocfg)) || fresh(ocfg).SameTags(fresh(tc.base)) {
			t.Errorf("hierarchies of different geometries (%s vs %s) compare equal", tc.base.ID(), ocfg.ID())
		}
	}
}
