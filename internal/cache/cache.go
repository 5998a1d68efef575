// Package cache implements the functional memory-hierarchy models of the
// three evaluated organizations: the word-interleaved distributed cache
// (with optional per-cluster Attraction Buffers), the multiVLIW coherent
// per-cluster caches with a snoopy write-invalidate protocol, and the
// unified centralized cache. The models classify each access (local/remote ×
// hit/miss) and mutate tag state; timing, combining and bus contention are
// layered on top by the simulator.
package cache

import (
	"fmt"

	"ivliw/internal/arch"
)

// Store is a set-associative tag store with true LRU replacement. All ways
// live in one flat array, set-major: each set's resident keys are packed at
// the front of its assoc-wide slot range, index 0 the MRU, and count holds
// how many there are.
type Store struct {
	ways   []int64
	count  []int
	assoc  int
	sets   uint64
	hashed bool
}

// NewStore builds a tag store with the given number of lines and
// associativity, using modulo set indexing (like the L1 tag arrays). The
// geometry must be coherent: positive line and way counts, with the lines
// dividing evenly into sets.
func NewStore(lines, assoc int) (*Store, error) {
	if lines <= 0 || assoc <= 0 || lines%assoc != 0 {
		return nil, fmt.Errorf("cache: bad geometry lines=%d assoc=%d", lines, assoc)
	}
	sets := lines / assoc
	return &Store{
		ways:  make([]int64, lines),
		count: make([]int, sets),
		assoc: assoc,
		sets:  uint64(sets),
	}, nil
}

// MustStore is NewStore for geometries already validated upstream (for
// example by arch.Config.Validate); it panics on a bad geometry.
func MustStore(lines, assoc int) *Store {
	s, err := NewStore(lines, assoc)
	if err != nil {
		//ivliw:invariant Must contract: callers pass geometries already accepted by arch.Config.Validate
		panic(err)
	}
	return s
}

// NewHashedStore builds a tag store whose set index hashes the whole key.
// The Attraction Buffers use it because their keys combine a block number
// with a home-cluster id: with modulo indexing the (up to three) remote
// subblocks of one block would all collide in a single set.
func NewHashedStore(lines, assoc int) (*Store, error) {
	s, err := NewStore(lines, assoc)
	if err != nil {
		return nil, err
	}
	s.hashed = true
	return s, nil
}

func (s *Store) set(key int64) int {
	h := uint64(key)
	if s.hashed {
		// splitmix64 finalizer: the xor-shifts fold the high bits
		// (where the home-cluster id lives) into the low bits before
		// each multiply, so every key bit reaches the set index.
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	if n := s.sets; n&(n-1) == 0 {
		return int(h & (n - 1)) // power-of-two set count: mask, no division
	}
	return int(h % s.sets)
}

// resident returns the keys held in one set, MRU first.
func (s *Store) resident(set int) []int64 {
	return s.ways[set*s.assoc : set*s.assoc+s.count[set]]
}

// lookupIn is Lookup within an already-indexed set.
func (s *Store) lookupIn(set int, key int64) bool {
	ways := s.resident(set)
	for i, k := range ways {
		if k == key {
			copy(ways[1:i+1], ways[:i])
			ways[0] = key
			return true
		}
	}
	return false
}

// insertIn makes an absent key the MRU of an already-indexed set, evicting
// the LRU entry if the set is full.
func (s *Store) insertIn(set int, key int64) {
	if s.count[set] < s.assoc {
		s.count[set]++
	}
	ways := s.resident(set)
	copy(ways[1:], ways)
	ways[0] = key
}

// Lookup reports whether the key is present, promoting it to MRU on hit.
func (s *Store) Lookup(key int64) bool { return s.lookupIn(s.set(key), key) }

// Access looks the key up in one scan: a hit promotes it to MRU and a miss
// fills it as MRU, evicting the LRU entry if the set is full. It reports
// whether the key was present.
func (s *Store) Access(key int64) bool {
	set := s.set(key)
	if s.lookupIn(set, key) {
		return true
	}
	s.insertIn(set, key)
	return false
}

// Fill inserts the key as MRU, evicting the LRU entry if the set is full.
// Filling an already-present key just promotes it.
func (s *Store) Fill(key int64) { s.Access(key) }

// Invalidate removes the key if present and reports whether it was.
func (s *Store) Invalidate(key int64) bool {
	set := s.set(key)
	ways := s.resident(set)
	for i, k := range ways {
		if k == key {
			copy(ways[i:], ways[i+1:])
			s.count[set]--
			return true
		}
	}
	return false
}

// Flush empties the store.
func (s *Store) Flush() { clear(s.count) }

// Len returns the number of resident keys.
func (s *Store) Len() int {
	n := 0
	for _, c := range s.count {
		n += c
	}
	return n
}

// Result is the outcome of one cache access.
type Result struct {
	// Class is the latency class of the access.
	Class arch.LatencyClass
	// ABHit marks interleaved accesses satisfied by the local Attraction
	// Buffer (they are counted as local hits).
	ABHit bool
	// Home is the cluster owning the referenced word (interleaved) or
	// the supplying cluster (multiVLIW remote hits); -1 when meaningless.
	Home int
}

// Hierarchy is the organization-independent interface the simulator and the
// profiler drive. Access classifies and applies one access issued by
// `cluster` (ignored by the unified cache) to the given address; `store`
// marks writes; `attract` enables Attraction Buffer allocation for this
// access (the compiler's "attractable" hint — meaningful only for the
// interleaved organization with buffers enabled).
type Hierarchy interface {
	Access(cluster int, addr int64, store, attract bool) Result
	// FlushBuffers empties the Attraction Buffers (between loops); it is
	// a no-op for organizations without buffers.
	FlushBuffers()
}

// New builds the hierarchy selected by the configuration. The configuration
// is validated once here, so a bad machine point (for example one cell of a
// design-space sweep) fails with an error instead of a library panic.
func New(cfg arch.Config) (Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Org {
	case arch.Interleaved:
		return NewInterleaved(cfg)
	case arch.MultiVLIW:
		return NewMultiVLIW(cfg)
	case arch.Unified:
		return NewUnified(cfg)
	}
	return nil, fmt.Errorf("cache: unknown organization %v", cfg.Org)
}

// Interleaved is the word-interleaved distributed cache of §3. A block's
// subblocks live in fixed cache modules; tags are replicated, so hit/miss
// state is uniform across modules and is tracked by a single tag store with
// the total capacity. Optional Attraction Buffers hold replicated remote
// subblocks per cluster.
type Interleaved struct {
	cfg    arch.Config
	blocks *Store
	abs    []*Store // per cluster; nil when disabled
}

// NewInterleaved builds the interleaved hierarchy.
func NewInterleaved(cfg arch.Config) (*Interleaved, error) {
	blocks, err := NewStore(cfg.CacheBytes/cfg.BlockBytes, cfg.Assoc)
	if err != nil {
		return nil, err
	}
	ic := &Interleaved{cfg: cfg, blocks: blocks}
	if cfg.AttractionBuffers {
		if cfg.Clusters <= 0 {
			return nil, fmt.Errorf("cache: Clusters must be positive, got %d", cfg.Clusters)
		}
		ic.abs = make([]*Store, cfg.Clusters)
		for i := range ic.abs {
			if ic.abs[i], err = NewHashedStore(cfg.ABEntries, cfg.ABAssoc); err != nil {
				return nil, err
			}
		}
	}
	return ic, nil
}

func (ic *Interleaved) block(addr int64) int64 { return addr / int64(ic.cfg.BlockBytes) }

// subblockKey identifies one (block, home cluster) subblock. The home
// cluster lives in the high bits so that consecutive blocks index
// consecutive Attraction Buffer sets.
func (ic *Interleaved) subblockKey(addr int64, home int) int64 {
	return ic.block(addr) | int64(home)<<40
}

// Access classifies and applies one access.
func (ic *Interleaved) Access(cluster int, addr int64, store, attract bool) Result {
	return ic.AccessBlock(cluster, ic.block(addr), ic.cfg.HomeCluster(addr), store, attract)
}

// AccessBlock is Access with the address pre-resolved to its block number
// and home cluster. The batched simulator derives both once per merge event
// (they are lane-invariant) and fans them across lanes, so the per-lane work
// carries no address divisions.
func (ic *Interleaved) AccessBlock(cluster int, blk int64, home int, store, attract bool) Result {
	local := home == cluster

	// The Attraction Buffer is checked in parallel with the local module;
	// a hit there is satisfied with the local hit latency. Its key is
	// hashed once: a missing load that attracts fills the set it probed.
	var ab *Store
	var abSet int
	abKey := blk | int64(home)<<40
	if !local && ic.abs != nil {
		ab = ic.abs[cluster]
		abSet = ab.set(abKey)
		// A store to a remote word updates the owner module; the
		// lookup keeps any local replica coherent by updating it in
		// place (chains guarantee no other cluster reads it).
		if ab.lookupIn(abSet, abKey) && !store {
			return Result{Class: arch.LocalHit, ABHit: true, Home: home}
		}
	}

	hit := ic.blocks.Access(blk)
	if ab != nil && !store && attract {
		// The whole subblock is attracted to the issuing cluster.
		ab.insertIn(abSet, abKey)
	}
	switch {
	case local && hit:
		return Result{Class: arch.LocalHit, Home: home}
	case !local && hit:
		return Result{Class: arch.RemoteHit, Home: home}
	case local:
		return Result{Class: arch.LocalMiss, Home: home}
	default:
		return Result{Class: arch.RemoteMiss, Home: home}
	}
}

// FlushBuffers empties the Attraction Buffers (coherence between loops).
func (ic *Interleaved) FlushBuffers() {
	for _, ab := range ic.abs {
		if ab != nil {
			ab.Flush()
		}
	}
}

// ABLen returns the number of subblocks resident in one cluster's
// Attraction Buffer (testing hook).
func (ic *Interleaved) ABLen(cluster int) int {
	if ic.abs == nil {
		return 0
	}
	return ic.abs[cluster].Len()
}

// MultiVLIWCache models the cache-coherent clustered organization: each
// cluster has a private cache that may replicate any block; a snoopy
// write-invalidate protocol keeps copies coherent. A miss satisfied by
// another cluster's cache is a remote hit (cache-to-cache transfer).
type MultiVLIWCache struct {
	cfg  arch.Config
	mods []*Store
}

// NewMultiVLIW builds the coherent hierarchy.
func NewMultiVLIW(cfg arch.Config) (*MultiVLIWCache, error) {
	if cfg.Clusters <= 0 || cfg.CacheBytes%cfg.Clusters != 0 {
		return nil, fmt.Errorf("cache: CacheBytes (%d) must split evenly across %d modules",
			cfg.CacheBytes, cfg.Clusters)
	}
	mc := &MultiVLIWCache{cfg: cfg, mods: make([]*Store, cfg.Clusters)}
	lines := cfg.ModuleBytes() / cfg.BlockBytes
	for i := range mc.mods {
		var err error
		if mc.mods[i], err = NewStore(lines, cfg.Assoc); err != nil {
			return nil, err
		}
	}
	return mc, nil
}

// Access classifies and applies one access.
func (mc *MultiVLIWCache) Access(cluster int, addr int64, store, attract bool) Result {
	return mc.AccessBlock(cluster, addr/int64(mc.cfg.BlockBytes), store)
}

// AccessBlock is Access with the address pre-resolved to its block number
// (see Interleaved.AccessBlock); the snoopy protocol never needs the home
// cluster or the attract hint.
func (mc *MultiVLIWCache) AccessBlock(cluster int, blk int64, store bool) Result {
	if store {
		// Write-invalidate: kill every other copy, write locally
		// (write-allocate).
		for c, m := range mc.mods {
			if c != cluster {
				m.Invalidate(blk)
			}
		}
		if mc.mods[cluster].Access(blk) {
			return Result{Class: arch.LocalHit, Home: cluster}
		}
		return Result{Class: arch.LocalMiss, Home: cluster}
	}
	// A local miss replicates the block locally either way; the other
	// modules are independent stores, so filling before the snoop is the
	// same as filling after it.
	if mc.mods[cluster].Access(blk) {
		return Result{Class: arch.LocalHit, Home: cluster}
	}
	// Snoop the other clusters; the block is replicated locally on a
	// cache-to-cache transfer (this is the multiVLIW's advantage — data
	// migrates toward its users — and its capacity cost).
	for c, m := range mc.mods {
		if c != cluster && m.Lookup(blk) {
			return Result{Class: arch.RemoteHit, Home: c}
		}
	}
	return Result{Class: arch.LocalMiss, Home: cluster}
}

// FlushBuffers is a no-op (no Attraction Buffers in the multiVLIW).
func (mc *MultiVLIWCache) FlushBuffers() {}

// UnifiedCache is the centralized data cache baseline. Every access pays the
// configured total latency; there is no local/remote distinction.
type UnifiedCache struct {
	cfg    arch.Config
	blocks *Store
}

// NewUnified builds the unified hierarchy.
func NewUnified(cfg arch.Config) (*UnifiedCache, error) {
	blocks, err := NewStore(cfg.CacheBytes/cfg.BlockBytes, cfg.Assoc)
	if err != nil {
		return nil, err
	}
	return &UnifiedCache{cfg: cfg, blocks: blocks}, nil
}

// Access classifies and applies one access. Hits are reported as local hits
// and misses as local misses; the simulator maps them to the unified hit and
// miss latencies.
func (uc *UnifiedCache) Access(cluster int, addr int64, store, attract bool) Result {
	return uc.AccessBlock(addr / int64(uc.cfg.BlockBytes))
}

// AccessBlock is Access with the address pre-resolved to its block number
// (see Interleaved.AccessBlock); the unified cache ignores everything else.
func (uc *UnifiedCache) AccessBlock(blk int64) Result {
	if uc.blocks.Access(blk) {
		return Result{Class: arch.LocalHit, Home: -1}
	}
	return Result{Class: arch.LocalMiss, Home: -1}
}

// FlushBuffers is a no-op.
func (uc *UnifiedCache) FlushBuffers() {}
