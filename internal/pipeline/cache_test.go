package pipeline

import (
	"fmt"
	"sync"
	"testing"

	"ivliw/internal/arch"
	"ivliw/internal/core"
	"ivliw/internal/sched"
	"ivliw/internal/workload"
)

func cacheSpec(t testing.TB, clusters int) CompileSpec {
	t.Helper()
	syn, err := workload.SynthSuite(1, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.Default()
	cfg.Clusters = clusters
	return CompileSpec{
		Bench:   syn[0],
		Cfg:     cfg,
		Opt:     core.Options{Heuristic: sched.IPBC, Unroll: core.NoUnroll},
		Aligned: true,
	}
}

// TestCacheSingleFlight: concurrent Gets of one key compile exactly once
// and share one artifact.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(8)
	spec := cacheSpec(t, 4)
	const goroutines = 8
	arts := make([]*Artifact, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, err := c.Get(spec)
			if err != nil {
				t.Error(err)
				return
			}
			arts[g] = a
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("%d compilations for one key, want 1 (single flight)", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Errorf("hits = %d, want %d", st.Hits, goroutines-1)
	}
	for g := 1; g < goroutines; g++ {
		if arts[g] != arts[0] {
			t.Fatalf("goroutine %d got a different artifact instance", g)
		}
	}
}

// TestCacheEviction: a capacity-1 cache keeps working (recompiling evicted
// keys) and counts evictions.
func TestCacheEviction(t *testing.T) {
	c := NewCache(1)
	a := cacheSpec(t, 2)
	b := cacheSpec(t, 4)
	for i := 0; i < 3; i++ {
		if _, err := c.Get(a); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(b); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions != 5 {
		t.Errorf("capacity-1 cache with two alternating keys evicted %d times, want 5 (every miss but the first)", st.Evictions)
	}
	if st.Hits != 0 {
		t.Errorf("alternating keys through capacity 1 produced %d hits, want 0", st.Hits)
	}
	if st.Misses != 6 {
		t.Errorf("misses = %d, want 6", st.Misses)
	}
}

// TestCacheHit: a resident key is served without recompiling.
func TestCacheHit(t *testing.T) {
	c := NewCache(8)
	spec := cacheSpec(t, 4)
	first, err := c.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("second Get did not return the cached artifact")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestCacheDisabledAndNil: capacity 0 and nil caches compile fresh every
// time but still return correct artifacts.
func TestCacheDisabledAndNil(t *testing.T) {
	spec := cacheSpec(t, 4)
	c := NewCache(0)
	a1, err := c.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Error("disabled cache returned a shared artifact")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("disabled cache stats = %+v, want 0 hits / 2 misses", st)
	}
	var nc *Cache
	if _, err := nc.Get(spec); err != nil {
		t.Fatal(err)
	}
	if st := nc.Stats(); st != (CacheStats{}) {
		t.Errorf("nil cache stats = %+v, want zero", st)
	}
	if nc.Capacity() != 0 {
		t.Errorf("nil cache capacity = %d", nc.Capacity())
	}
}

// TestCacheErrorCaching: a deterministic compile error is cached and
// replayed for every cell sharing the key.
func TestCacheErrorCaching(t *testing.T) {
	c := NewCache(8)
	spec := cacheSpec(t, 4)
	spec.Opt.MaxII = 1 // no feasible schedule within II 1 for a multi-op loop
	_, err1 := c.Get(spec)
	if err1 == nil {
		t.Skip("MaxII=1 unexpectedly schedulable; nothing to cache")
	}
	_, err2 := c.Get(spec)
	if err2 == nil || err2.Error() != err1.Error() {
		t.Errorf("cached error differs: %v vs %v", err1, err2)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("error was recompiled: %d misses", st.Misses)
	}
}

// BenchmarkCacheGet measures a warm hit.
func BenchmarkCacheGet(b *testing.B) {
	c := NewCache(8)
	spec := cacheSpec(b, 4)
	if _, err := c.Get(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(spec); err != nil {
			b.Fatal(err)
		}
	}
	_ = fmt.Sprint(c.Stats().Hits)
}
