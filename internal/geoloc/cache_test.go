package geoloc

import (
	"container/list"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"hoiho/internal/core"
)

// len returns the number of cached entries across all shards.
func (c *cache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.slots)
		s.mu.Unlock()
	}
	return n
}

// recency lists shard i's keys from the most to the least recently
// used, walking the ring from head.
func (c *cache) recency(i int) []string {
	s := &c.shards[i]
	keys := make([]string, 0, len(s.slots))
	for j, at := 0, s.head; j < len(s.slots); j, at = j+1, s.slots[at].next {
		keys = append(keys, s.slots[at].key)
	}
	return keys
}

// modelCache is the container/list LRU the slice-backed cache
// replaced, kept as the model it must agree with: same sharding, same
// per-shard capacity, one list.Element and one modelEntry per insert.
type modelCache struct {
	shards [cacheShards]modelShard
}

type modelShard struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type modelEntry struct {
	key string
	g   *core.Geolocation
}

func newModelCache(capacity int) *modelCache {
	per := (capacity + cacheShards - 1) / cacheShards
	if per < 1 {
		per = 1
	}
	c := &modelCache{}
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].entries = make(map[string]*list.Element, per)
		c.shards[i].order = list.New()
	}
	return c
}

func (c *modelCache) shard(key string) *modelShard {
	return &c.shards[fnv32a(key)&(cacheShards-1)]
}

func (c *modelCache) get(key string) (*core.Geolocation, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*modelEntry).g, true
}

func (c *modelCache) put(key string, g *core.Geolocation) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*modelEntry).g = g
		s.order.MoveToFront(el)
		return
	}
	s.entries[key] = s.order.PushFront(&modelEntry{key: key, g: g})
	if s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.entries, oldest.Value.(*modelEntry).key)
	}
}

// recency lists shard i's keys from the most to the least recently
// used.
func (c *modelCache) recency(i int) []string {
	var keys []string
	for el := c.shards[i].order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*modelEntry).key)
	}
	return keys
}

// TestCacheMatchesModel drives the cache and the container/list model
// through the same seeded sequence of gets and puts: every get must
// return the model's verdict and value, and every shard must end with
// the model's keys in the model's recency order. The key pool is about
// twice the capacity, so about half the gets hit and most puts evict.
func TestCacheMatchesModel(t *testing.T) {
	const ops = 100_000
	vals := []*core.Geolocation{nil, {Hint: "a"}, {Hint: "b"}, {Hint: "c"}}
	for _, capacity := range []int{1, 16, 17, 100, 4096} {
		c, m := newCache(capacity), newModelCache(capacity)
		keys := make([]string, 2*capacity+8)
		for i := range keys {
			keys[i] = fmt.Sprintf("host%d.example.net", i)
		}
		r := rand.New(rand.NewPCG(uint64(capacity), 27))
		for op := 0; op < ops; op++ {
			k := keys[r.IntN(len(keys))]
			if r.IntN(2) == 0 {
				g := vals[r.IntN(len(vals))]
				c.put(k, g)
				m.put(k, g)
				continue
			}
			got, ok := c.get(k)
			want, wantOK := m.get(k)
			if got != want || ok != wantOK {
				t.Fatalf("capacity %d, op %d: get(%q) = (%p, %v), model (%p, %v)",
					capacity, op, k, got, ok, want, wantOK)
			}
		}
		for i := range c.shards {
			if got, want := c.recency(i), m.recency(i); !slices.Equal(got, want) {
				t.Errorf("capacity %d, shard %d: keys by recency %q, model %q", capacity, i, got, want)
			}
		}
	}
}

// TestCacheAllocs pins a get, hit or miss, and a put that evicts from
// a full shard at zero allocations, at the default capacity.
func TestCacheAllocs(t *testing.T) {
	c := newCache(DefaultCacheSize)
	keys := sameShardKeys(4 * DefaultCacheSize / cacheShards)
	for _, k := range keys {
		c.put(k, nil) // the shard is full from here on
	}
	g := &core.Geolocation{}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		c.put(keys[i%len(keys)], g) // the last put was len(keys)-1 puts ago: a miss
		i++
	}); a != 0 {
		t.Errorf("evicting put: %v allocations, want 0", a)
	}
	hit, miss := keys[(i-1)%len(keys)], "absent.example.net"
	for _, k := range []string{hit, miss} {
		if a := testing.AllocsPerRun(1000, func() { c.get(k) }); a != 0 {
			t.Errorf("get(%q): %v allocations, want 0", k, a)
		}
	}
}

// sameShardKeys generates n distinct keys that all hash into shard 0,
// so per-shard LRU behavior can be observed deterministically.
func sameShardKeys(n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("router-%d.example.net", i)
		if fnv32a(k)&(cacheShards-1) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestCacheShardEvictionOrder(t *testing.T) {
	// Capacity cacheShards*2 gives every shard room for exactly two
	// entries; three same-shard keys must evict in LRU order.
	c := newCache(cacheShards * 2)
	keys := sameShardKeys(3)
	g := make([]*core.Geolocation, 3)
	for i := range g {
		g[i] = &core.Geolocation{Hostname: keys[i]}
		c.put(keys[i], g[i])
	}
	// keys[0] is the least recently used and must be gone.
	if _, ok := c.get(keys[0]); ok {
		t.Fatalf("oldest entry %q survived eviction", keys[0])
	}
	for i := 1; i < 3; i++ {
		got, ok := c.get(keys[i])
		if !ok || got != g[i] {
			t.Fatalf("entry %q missing after eviction of older key", keys[i])
		}
	}
}

func TestCacheGetRefreshesRecency(t *testing.T) {
	c := newCache(cacheShards * 2)
	keys := sameShardKeys(3)
	c.put(keys[0], &core.Geolocation{Hostname: keys[0]})
	c.put(keys[1], &core.Geolocation{Hostname: keys[1]})
	// Touch keys[0] so keys[1] becomes the LRU victim.
	if _, ok := c.get(keys[0]); !ok {
		t.Fatal("warm entry missing")
	}
	c.put(keys[2], &core.Geolocation{Hostname: keys[2]})
	if _, ok := c.get(keys[1]); ok {
		t.Fatalf("LRU entry %q survived; get did not refresh recency", keys[1])
	}
	if _, ok := c.get(keys[0]); !ok {
		t.Fatalf("recently used entry %q was evicted", keys[0])
	}
}

func TestCachePutUpdatesInPlace(t *testing.T) {
	c := newCache(cacheShards)
	keys := sameShardKeys(1)
	old := &core.Geolocation{Hostname: keys[0], Hint: "old"}
	replacement := &core.Geolocation{Hostname: keys[0], Hint: "new"}
	c.put(keys[0], old)
	c.put(keys[0], replacement)
	if c.len() != 1 {
		t.Fatalf("len = %d after double put of one key, want 1", c.len())
	}
	got, ok := c.get(keys[0])
	if !ok || got != replacement {
		t.Fatalf("get = %v, want the replacement entry", got)
	}
}

func TestCacheNegativeEntry(t *testing.T) {
	c := newCache(cacheShards)
	keys := sameShardKeys(2)
	c.put(keys[0], nil)
	got, ok := c.get(keys[0])
	if !ok {
		t.Fatal("cached negative entry not found")
	}
	if got != nil {
		t.Fatalf("negative entry returned %v, want nil", got)
	}
	if _, ok := c.get(keys[1]); ok {
		t.Fatal("missing key reported present")
	}
}

func TestCacheLenAcrossShards(t *testing.T) {
	c := newCache(cacheShards * 4)
	for i := 0; i < cacheShards*4; i++ {
		c.put(fmt.Sprintf("host%d.example.net", i), nil)
	}
	// Hashing spreads keys unevenly, so some shards may have evicted;
	// the total can never exceed the configured bound.
	if n := c.len(); n == 0 || n > cacheShards*4 {
		t.Fatalf("len = %d, want within (0, %d]", n, cacheShards*4)
	}
}

// TestNegativeCachingStats pins the Stats accounting for the negative
// path: a hostname with no matching convention is cached as a nil
// entry, so the second lookup is a cache hit that still counts as
// unmatched.
func TestNegativeCachingStats(t *testing.T) {
	ix := newTestIndex(t, Options{CacheSize: 64})
	const miss = "totally.unconventional.example"
	for i := 0; i < 3; i++ {
		if g, ok := ix.Lookup(miss); ok || g != nil {
			t.Fatalf("lookup %d of %q = (%v, %v), want (nil, false)", i, miss, g, ok)
		}
	}
	s := ix.Stats()
	if s.Lookups != 3 {
		t.Fatalf("Lookups = %d, want 3", s.Lookups)
	}
	if s.CacheMisses != 1 {
		t.Fatalf("CacheMisses = %d, want 1 (only the first lookup runs the regexes)", s.CacheMisses)
	}
	if s.CacheHits != 2 {
		t.Fatalf("CacheHits = %d, want 2 (negative entries are cached)", s.CacheHits)
	}
	if s.Unmatched != 3 {
		t.Fatalf("Unmatched = %d, want 3 (a cached negative still counts unmatched)", s.Unmatched)
	}
	if s.Matched != 0 {
		t.Fatalf("Matched = %d, want 0", s.Matched)
	}
}

// TestEvictionReloadsThroughLocate confirms an evicted entry is
// recomputed, not lost: overflow the resolved hostname's shard (one
// entry per shard at this cache size), then re-look it up — that must
// be a cache miss that still resolves identically.
func TestEvictionReloadsThroughLocate(t *testing.T) {
	ix := newTestIndex(t, Options{CacheSize: cacheShards}) // one entry per shard
	const host = "te0-0-0.core1.sjc1.he.net"
	first, ok := ix.Lookup(host)
	if !ok {
		t.Fatal("fixture hostname did not resolve")
	}
	// Drive a filler lookup through the same shard to evict host; the
	// filler's negative result occupies the shard's single slot.
	target := fnv32a(host) & (cacheShards - 1)
	for i := 0; ; i++ {
		k := fmt.Sprintf("filler-%d.example.net", i)
		if fnv32a(k)&(cacheShards-1) == target {
			ix.Lookup(k)
			break
		}
	}
	misses := ix.Stats().CacheMisses
	again, ok := ix.Lookup(host)
	if !ok {
		t.Fatal("hostname stopped resolving after eviction")
	}
	if ix.Stats().CacheMisses != misses+1 {
		t.Fatal("expected the evicted entry to be recomputed (a cache miss)")
	}
	if again.Loc.String() != first.Loc.String() || again.Hint != first.Hint || again.Suffix != first.Suffix {
		t.Fatalf("post-eviction lookup differs: %+v vs %+v", again, first)
	}
}
