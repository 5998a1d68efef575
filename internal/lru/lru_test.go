package lru

import (
	"sync"
	"testing"
)

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %t; want 1, true", v, ok)
	}
	c.Add("c", 3) // b is now the least recently used
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction although a was used more recently")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Errorf("Get(%s) = %d, %t; want %d, true", k, v, ok, want)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestAddReplaces(t *testing.T) {
	c := New[int, string](2)
	c.Add(1, "x")
	c.Add(1, "y")
	if v, _ := c.Get(1); v != "y" || c.Len() != 1 {
		t.Errorf("after replacing: Get = %q, Len = %d; want y, 1", v, c.Len())
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := New[int, int](0)
	c.Add(1, 1)
	if _, ok := c.Get(1); ok || c.Len() != 0 {
		t.Error("a zero-capacity cache stored an entry")
	}
}

func TestReset(t *testing.T) {
	c := New[int, int](4)
	for i := 0; i < 4; i++ {
		c.Add(i, i)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
	c.Add(9, 9)
	if v, ok := c.Get(9); !ok || v != 9 {
		t.Error("cache unusable after Reset")
	}
}

// TestConcurrentBounded hammers one small cache from several goroutines
// (run it under -race) and checks the bound holds throughout.
func TestConcurrentBounded(t *testing.T) {
	const capacity = 8
	c := New[int, int](capacity)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (i * (g + 1)) % 13
				if v, ok := c.Get(k); ok && v != 10*k {
					t.Errorf("Get(%d) = %d, want %d", k, v, 10*k)
				}
				c.Add(k, 10*k)
				if l := c.Len(); l > capacity {
					t.Errorf("Len %d above capacity %d", l, capacity)
				}
			}
		}()
	}
	wg.Wait()
}
