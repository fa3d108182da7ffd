package lru

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestBasicGetAdd(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	if evicted := c.Add("a", 1); evicted {
		t.Fatal("insert below capacity evicted")
	}
	v, ok := c.Get("a")
	if !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 0 evictions", s)
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a") // a is now more recent than b
	if evicted := c.Add("c", 3); !evicted {
		t.Fatal("over-capacity insert did not evict")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

func TestAddReplacesInPlace(t *testing.T) {
	c := New[string, int](1)
	c.Add("a", 1)
	if evicted := c.Add("a", 2); evicted {
		t.Fatal("replacing an existing key evicted")
	}
	if v, _ := c.Get("a"); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

// TestGetOrAdmitInsertsOnce: goroutines missing together on one key agree on
// the first one's value — one mk call, one miss, every other a hit — and
// while there is room admit is never consulted.
func TestGetOrAdmitInsertsOnce(t *testing.T) {
	c := New[string, *int](2)
	const n = 16
	var made int // written under the cache lock, inside mk
	vals := make([]*int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, _ = c.GetOrAdmit("k",
				func(string) bool { t.Error("admit consulted with room to spare"); return false },
				func() *int { made++; return new(int) })
		}(i)
	}
	wg.Wait()
	for _, v := range vals {
		if v != vals[0] {
			t.Fatal("callers got different values for one key")
		}
	}
	if s := c.Stats(); made != 1 || s.Misses != 1 || s.Hits != n-1 {
		t.Fatalf("mk ran %d times, stats = %+v; want 1 build, 1 miss, %d hits", made, s, n-1)
	}
}

// TestGetOrAdmitFullCache: a miss on a full cache puts the least recently
// used key to admit. Refused, it inserts nothing, runs no mk and evicts
// nothing; admitted, it evicts exactly that key.
func TestGetOrAdmitFullCache(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a") // b is now the eviction candidate
	var asked []string
	admit := func(ok bool) func(string) bool {
		return func(victim string) bool { asked = append(asked, victim); return ok }
	}

	v, hit, ok := c.GetOrAdmit("c", admit(false), func() int { t.Error("mk ran for a refused key"); return 3 })
	if v != 0 || hit || ok || c.Len() != 2 {
		t.Fatalf("refused miss returned %d, %v, %v and left %d entries", v, hit, ok, c.Len())
	}
	if v, hit, ok := c.GetOrAdmit("b", admit(false), nil); v != 2 || !hit || !ok {
		t.Fatalf("the candidate of a refused miss: %d, %v, %v; want its value, a hit", v, hit, ok)
	}
	// a is the candidate now; an admitted miss evicts it and nothing else.
	if v, hit, ok := c.GetOrAdmit("c", admit(true), func() int { return 3 }); v != 3 || hit || !ok {
		t.Fatalf("admitted miss: %d, %v, %v", v, hit, ok)
	}
	if _, ok := c.Get("a"); ok || c.Len() != 2 {
		t.Fatalf("admitted miss did not evict the candidate: len %d", c.Len())
	}
	if len(asked) != 2 || asked[0] != "b" || asked[1] != "a" {
		t.Fatalf("admit was shown %v, want the least recently used key each time: [b a]", asked)
	}
	want := Stats{Hits: 2, Misses: 3, Evictions: 1, Rejected: 1}
	if s := c.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

func TestRemoveIsNotAnEviction(t *testing.T) {
	c := New[string, int](4)
	c.Add("a", 1)
	if !c.Remove("a") {
		t.Fatal("Remove of present key reported absent")
	}
	if c.Remove("a") {
		t.Fatal("Remove of absent key reported present")
	}
	if got := c.Stats().Evictions; got != 0 {
		t.Fatalf("deliberate removal counted as eviction (%d)", got)
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after removal", c.Len())
	}
}

func TestCapacityClamped(t *testing.T) {
	c := New[string, int](0)
	c.Add("a", 1)
	c.Add("b", 2)
	if c.Len() != 1 {
		t.Fatalf("capacity-0 cache holds %d entries, want clamp to 1", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%32)
				if v, ok := c.Get(k); ok && v < 0 {
					t.Errorf("corrupt value %d", v)
				}
				c.Add(k, i)
				if i%17 == 0 {
					c.Remove(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}

func TestInstrumentExportsCounters(t *testing.T) {
	c := New[string, int](2)
	reg := obs.NewRegistry()
	c.Instrument(reg, "test_cache")
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a")
	c.Get("zzz")
	c.Add("c", 3) // evicts b
	c.GetOrAdmit("d", func(string) bool { return false }, nil)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lru_hits_total{cache="test_cache"} 1`,
		`lru_misses_total{cache="test_cache"} 2`,
		`lru_evictions_total{cache="test_cache"} 1`,
		`lru_rejected_total{cache="test_cache"} 1`,
		`lru_entries{cache="test_cache"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("lru metrics missing %q:\n%s", want, out)
		}
	}
}
