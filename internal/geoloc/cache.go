package geoloc

import (
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

// shard is one LRU. Its entries live in slots, linked by index into a
// recency ring: head is the most recently used slot and
// slots[head].prev the least. slots grows by append until it holds cap
// entries; from then on a new entry takes the least recently used
// slot, so a full shard allocates on no get or put.
type shard struct {
	mu    sync.Mutex
	cap   int
	index map[string]int32 // key → slot
	slots []slot
	head  int32
}

type slot struct {
	key        string
	g          *core.Geolocation
	prev, next int32
}

func newCache(capacity int) *cache {
	per := (capacity + cacheShards - 1) / cacheShards
	if per < 1 {
		per = 1
	}
	c := &cache{}
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].index = make(map[string]int32, per)
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
	i, ok := s.index[key]
	if !ok {
		return nil, false
	}
	s.touch(i)
	return s.slots[i].g, true
}

func (c *cache) put(key string, g *core.Geolocation) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[key]; ok {
		s.slots[i].g = g
		s.touch(i)
		return
	}
	if len(s.slots) == s.cap {
		// Full: the least recently used slot takes the new entry, and
		// moving head onto it makes it the most recently used.
		i := s.slots[s.head].prev
		delete(s.index, s.slots[i].key)
		s.slots[i].key, s.slots[i].g = key, g
		s.index[key], s.head = i, i
		return
	}
	i := int32(len(s.slots))
	s.slots = append(s.slots, slot{key: key, g: g, prev: i, next: i})
	if i > 0 {
		s.link(i)
	}
	s.index[key], s.head = i, i
}

// touch makes slot i the most recently used.
func (s *shard) touch(i int32) {
	if i == s.head {
		return
	}
	p, n := s.slots[i].prev, s.slots[i].next
	s.slots[p].next, s.slots[n].prev = n, p
	s.link(i)
	s.head = i
}

// link puts slot i into the ring just before head, the place of the
// most recently used once head moves to i.
func (s *shard) link(i int32) {
	h := s.head
	t := s.slots[h].prev
	s.slots[i].prev, s.slots[i].next = t, h
	s.slots[t].next, s.slots[h].prev = i, i
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
