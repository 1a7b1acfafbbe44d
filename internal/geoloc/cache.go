package geoloc

import (
	"container/list"
	"sync"

	"hoiho/internal/core"
)

// cache is a bounded LRU over lookup results, sharded by hostname hash
// so concurrent LookupBatch callers do not serialize on one mutex.
// Negative results are cached too (a nil Geolocation): traffic that
// repeatedly asks about hostnames without conventions is as common as
// traffic that repeats matching ones.
type cache struct {
	shards [cacheShards]shard
}

// cacheShards is fixed so shard selection is a mask; 16 keeps lock
// contention negligible at typical server parallelism.
const cacheShards = 16

type shard struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key string
	g   *core.Geolocation
}

func newCache(capacity int) *cache {
	per := (capacity + cacheShards - 1) / cacheShards
	if per < 1 {
		per = 1
	}
	c := &cache{}
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].entries = make(map[string]*list.Element, per)
		c.shards[i].order = list.New()
	}
	return c
}

func (c *cache) shard(key string) *shard {
	return &c.shards[fnv32a(key)&(cacheShards-1)]
}

// get returns the cached result and whether the key was present; a
// (nil, true) return is a cached negative result.
func (c *cache) get(key string) (*core.Geolocation, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).g, true
}

func (c *cache) put(key string, g *core.Geolocation) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*cacheEntry).g = g
		s.order.MoveToFront(el)
		return
	}
	s.entries[key] = s.order.PushFront(&cacheEntry{key: key, g: g})
	if s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.entries, oldest.Value.(*cacheEntry).key)
	}
}

// len returns the number of cached entries across all shards.
func (c *cache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// fnv32a is the 32-bit FNV-1a hash, inlined to avoid per-key allocation
// through hash/fnv's interface. The cache picks shards by it and the
// snapshot assigns suffixes to sections by it (shardOf).
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
