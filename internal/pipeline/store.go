package pipeline

// Store is a content-addressed source of compile-stage artifacts: Get
// returns the artifact for the spec's Key(), compiling it on demand. The
// three implementations compose into the sweep engine's storage hierarchy:
//
//   - *Cache: the bounded in-memory LRU with single-flight compilation;
//   - *DiskStore: a persistent, checksummed, content-addressed file store
//     that survives processes (warm CLI sweeps, sharded multi-process runs);
//   - NewCacheOver(capacity, disk): the two-level memory-over-disk
//     composition — memory absorbs the per-process working set and
//     single-flights concurrent cells, disk makes repeated runs start warm.
//
// Every implementation must be safe for concurrent use and must return
// artifacts that callers treat as read-only (Simulate does). Row values are
// independent of the store: the content key covers every compile-relevant
// input, so a hit and a fresh compilation are interchangeable.
type Store interface {
	Get(s CompileSpec) (*Artifact, error)
}

// Lookup resolves a compile spec through st, or compiles fresh when st is
// nil — the nil-safe entry point callers use so that "no store" and "a
// store" share one code path.
func Lookup(st Store, s CompileSpec) (*Artifact, error) {
	if st == nil {
		return Compile(s)
	}
	return st.Get(s)
}

// keyedStore is a Store that can take the spec's key from its caller, so a
// layered lookup (memory over disk, then a compile) fingerprints the spec
// once instead of once per tier.
type keyedStore interface {
	get(s CompileSpec, key string) (*Artifact, error)
}

// getKeyed resolves s through st, handing key down when st accepts it.
func getKeyed(st Store, s CompileSpec, key string) (*Artifact, error) {
	if ks, ok := st.(keyedStore); ok {
		return ks.get(s, key)
	}
	return st.Get(s)
}
