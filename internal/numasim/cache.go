// Package numasim models the inference-node hardware that LiveUpdate's
// performance-isolation layer (paper §IV-D) manipulates: Core Complex Dies
// (CCDs) with private L3 caches, shared DRAM bandwidth with
// contention-induced latency inflation, the adaptive CCD-partitioning
// controller of Algorithm 2, the shadow-embedding-table reuse path, and a
// CPU power/utilization model (Figs 5, 10, 11, 16, 18).
//
// It substitutes for the paper's dual AMD EPYC 9684X testbed. Capacities and
// latencies are scaled to laptop-size workloads; the causal structure — hot
// embedding sets fit in a per-CCD L3, cross-workload co-location thrashes
// it, misses contend for DRAM bandwidth — is the paper's.
package numasim

// BlockKey identifies one cacheable block (an embedding row).
type BlockKey struct {
	Space int32 // block namespace (e.g. table id)
	Row   int32
}

// packKey folds a key into one word. Both halves keep all 32 bits, so every
// (Space, Row) pair, negative rows included, packs to a distinct value.
func packKey(k BlockKey) uint64 { return uint64(uint32(k.Space))<<32 | uint64(uint32(k.Row)) }

// maxL3Blocks bounds a cache's capacity so slot numbers, and the index's
// slot+1 encoding, fit in an int32.
const maxL3Blocks = 1 << 29

// slot is one resident block: its packed key and its neighbours in recency
// order (slot numbers, -1 at either end).
type slot struct {
	key        uint64
	prev, next int32
}

// L3Cache is an exact LRU cache over fixed-size blocks, modelling one CCD's
// private L3 at embedding-row granularity.
//
// It holds no pointers and allocates nothing after construction. Resident
// blocks live in a fixed slot array threaded into a doubly linked recency
// list by int32 links (head = most recent, tail = least). An open-addressing
// index over a power-of-two table at least twice the capacity maps a packed
// key to slot+1 (0 marks an empty bucket), with linear probing and
// backward-shift deletion, so no tombstones build up. A hit relinks its slot
// at the head; a miss on a full cache reuses the tail slot. The hit, miss
// and eviction sequence is that of any exact LRU.
type L3Cache struct {
	slots      []slot // len = capacity; slots[:n] are resident
	n          int
	head, tail int32
	index      []int32 // bucket -> slot+1, 0 when empty
	mask       int     // len(index) - 1
	shift      uint    // 64 - log2(len(index)), for Fibonacci hashing
}

// NewL3Cache builds a cache holding at most capacity blocks.
func NewL3Cache(capacity int) *L3Cache {
	if capacity <= 0 || capacity > maxL3Blocks {
		panic("numasim: cache capacity out of range")
	}
	size, shift := 2, uint(63)
	for size < 2*capacity {
		size <<= 1
		shift--
	}
	return &L3Cache{
		slots: make([]slot, capacity),
		head:  -1,
		tail:  -1,
		index: make([]int32, size),
		mask:  size - 1,
		shift: shift,
	}
}

// home returns k's preferred index bucket.
func (c *L3Cache) home(k uint64) int { return int((k * 0x9e3779b97f4a7c15) >> c.shift) }

// Access touches key, returning true on a hit. Misses install the block,
// evicting the least recently used one if full.
func (c *L3Cache) Access(key BlockKey) bool {
	k := packKey(key)
	b := c.home(k)
	for e := c.index[b]; e != 0; e = c.index[b] {
		if s := e - 1; c.slots[s].key == k {
			if s != c.head {
				c.unlink(s)
				c.pushFront(s)
			}
			return true
		}
		b = (b + 1) & c.mask
	}
	var s int32
	if c.n < len(c.slots) {
		s = int32(c.n)
		c.n++
	} else {
		s = c.tail
		c.unlink(s)
		c.unindex(s)
		// The backward shift may have emptied a bucket earlier in k's
		// probe run, so find the first empty bucket again.
		for b = c.home(k); c.index[b] != 0; b = (b + 1) & c.mask {
		}
	}
	c.slots[s].key = k
	c.index[b] = s + 1
	c.pushFront(s)
	return false
}

// unlink removes slot s from the recency list.
func (c *L3Cache) unlink(s int32) {
	p, n := c.slots[s].prev, c.slots[s].next
	if p >= 0 {
		c.slots[p].next = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.slots[n].prev = p
	} else {
		c.tail = p
	}
}

// pushFront links slot s in as the most recently used.
func (c *L3Cache) pushFront(s int32) {
	c.slots[s].prev, c.slots[s].next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = s
	} else {
		c.tail = s
	}
	c.head = s
}

// unindex deletes resident slot s from the index by backward shift: each
// later entry of the probe run moves into the hole unless its home bucket
// lies cyclically after the hole, which keeps every key reachable from its
// home without tombstones.
func (c *L3Cache) unindex(s int32) {
	hole := c.home(c.slots[s].key)
	for c.index[hole] != s+1 {
		hole = (hole + 1) & c.mask
	}
	for b := (hole + 1) & c.mask; c.index[b] != 0; b = (b + 1) & c.mask {
		if (b-c.home(c.slots[c.index[b]-1].key))&c.mask >= (b-hole)&c.mask {
			c.index[hole] = c.index[b]
			hole = b
		}
	}
	c.index[hole] = 0
}

// Contains reports residency without touching LRU order.
func (c *L3Cache) Contains(key BlockKey) bool {
	k := packKey(key)
	for b := c.home(k); c.index[b] != 0; b = (b + 1) & c.mask {
		if c.slots[c.index[b]-1].key == k {
			return true
		}
	}
	return false
}

// Len returns the number of resident blocks.
func (c *L3Cache) Len() int { return c.n }

// Capacity returns the maximum resident blocks.
func (c *L3Cache) Capacity() int { return len(c.slots) }

// Flush empties the cache (e.g. when a CCD is reassigned to a different
// workload, its working set is effectively cold).
func (c *L3Cache) Flush() {
	clear(c.index)
	c.n = 0
	c.head, c.tail = -1, -1
}
