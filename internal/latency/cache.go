package latency

import (
	"sync"
	"sync/atomic"
)

// cacheShard is one stripe of the path-state cache, which maps each
// attachment pair (netKey) to its netState. Reads are lock-free:
// the shard publishes its table through an atomic pointer, and the table
// publishes each entry by release-storing its hash word after the wide
// lane is written, so an acquire-load of a nonzero hash guarantees the
// key and state behind it are fully visible. Writers (inserts and
// growth) serialize on the mutex; entries are never overwritten or
// deleted, and growth swaps in a freshly built table rather than
// mutating the published one, so readers holding a stale table pointer
// still see every entry that existed when they loaded it — at worst
// they miss a newer insert and fall back to the locked recheck path.
//
// Locklessness here is not about contention (shards are plentiful): a
// warm scale-tier round performs millions of reads whose RWMutex
// acquire/release atomics were pure overhead, and — more importantly —
// it lets batched lookups (ResolveBatch) touch many shards' slots in
// flight at once without juggling lock ordering.
type cacheShard struct {
	mu  sync.Mutex
	tab atomic.Pointer[pairTable]
	_   [48]byte // pad to a cache line: neighbouring shards must not false-share
}

// lookup is the lock-free read path: nil if the pair is not cached.
func (s *cacheShard) lookup(h uint64, key netKey) *netState {
	t := s.tab.Load()
	if t == nil {
		return nil
	}
	return t.get(h, key)
}

// insertLocked stores (key, st) and returns the interior pointer. The
// caller must hold s.mu and must have re-checked, under that lock, that
// the key is absent. Growth builds the doubled table off to the side
// and publishes it before the new entry goes in, so readers never
// observe a half-rehashed table.
func (s *cacheShard) insertLocked(h uint64, key netKey, st netState) *netState {
	t := s.tab.Load()
	if t == nil || pairTableMaxLoadDen*(t.n+1) > pairTableMaxLoadNum*len(t.hashes) {
		t = t.grown()
		s.tab.Store(t)
	}
	return t.putSlot(h, key, st)
}

// pairTable is an open-addressed hash table mapping netKey to an inline
// netState value — the storage behind each cache shard. Compared with a
// map[netKey]*netState it removes one heap object and one pointer chase
// per cached pair, and because an entry contains no pointers at all,
// caching any number of attachment pairs adds zero GC scan work.
//
// The layout is split (struct-of-arrays): an 8-byte hash lane per slot,
// and a parallel key+value lane touched only on a hash match. A round
// performs millions of gets, and linear probing's displacement tail is
// heavy (a few percent of lookups probe past 8 slots). With interleaved
// 72-byte entries that tail would drag whole key+state lines through the
// cache per probe; with the split lanes a probe chain scans 8 slots per
// line and a get touches the wide lane exactly once.
type pairTable struct {
	hashes []uint64 // len is the capacity, always a power of two; 0 = empty
	kv     []pairKV // parallel wide lane: key + state of each occupied slot
	n      int      // occupied slots; written under the shard mutex only
}

// pairKV is the wide lane of one slot: the full key for collision
// resolution and the state value stored inline.
type pairKV struct {
	key netKey
	st  netState
}

// pairTableMinCap is the capacity of a shard's first slab. Small, so an
// engine with many shards but few cached pairs stays cheap; doubling
// growth takes over from there.
const pairTableMinCap = 64

// pairTableMaxLoadNum/Den cap the load factor at 3/4 before growth.
const (
	pairTableMaxLoadNum = 3
	pairTableMaxLoadDen = 4
)

// normPairHash maps the raw pair hash into the table's nonzero hash
// domain: 0 is the empty-slot sentinel, so a (cosmically unlikely) real
// hash of 0 is folded onto 1. Every table operation must receive hashes
// through this function so probing stays consistent across growth.
func normPairHash(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

// tableHash is the cache's own pair hash — deliberately NOT hashNetPath.
// An FNV fold walks its bytes through a serial multiply chain; fine
// once per path, but on the cache read path it is the critical-path
// head of every lookup, and its µops fill the out-of-order window so
// consecutive gets cannot overlap their cache misses. Four independent
// multiplies plus a murmur-style finalizer hash the same identity in
// ~20 cycles of latency. The cache hash names nothing outside the
// table (draw identities still come from the FNV folds), so changing it
// is pure layout.
func tableHash(key netKey) uint64 {
	x := uint64(key.lo.AS)*0x9e3779b97f4a7c15 ^
		uint64(key.lo.City)*0xbf58476d1ce4e5b9 ^
		uint64(key.hi.AS)*0x2545f4914f6cdd1d ^
		uint64(key.hi.City)*0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return normPairHash(x)
}

// keyEq reports a == b without branches: the probe loop compares the
// key on every hash match, millions of times per round, and or-ing the
// field differences keeps that compare a single test.
func keyEq(a, b *netKey) bool {
	return (uint64(a.lo.AS^b.lo.AS) | uint64(a.lo.City^b.lo.City) |
		uint64(a.hi.AS^b.hi.AS) | uint64(a.hi.City^b.hi.City)) == 0
}

// get returns the cached state for key, or nil. h must be normalized.
// Safe without any lock: hash words are acquire-loaded, and a nonzero
// hash happens-after the release-store that published its wide lane.
func (t *pairTable) get(h uint64, key netKey) *netState {
	mask := uint64(len(t.hashes) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		hh := atomic.LoadUint64(&t.hashes[i])
		if hh == 0 {
			return nil
		}
		if hh == h {
			e := &t.kv[i]
			if keyEq(&e.key, &key) {
				return &e.st
			}
		}
	}
}

// putSlot inserts (key, st) — the key must not already be present, the
// caller must hold the owning shard's mutex, and capacity must have
// been ensured (insertLocked does all three). The wide lane is written
// first; the release-store of the hash word is what makes the entry
// visible to lock-free readers.
func (t *pairTable) putSlot(h uint64, key netKey, st netState) *netState {
	mask := uint64(len(t.hashes) - 1)
	i := h & mask
	for t.hashes[i] != 0 {
		i = (i + 1) & mask
	}
	e := &t.kv[i]
	e.key, e.st = key, st
	atomic.StoreUint64(&t.hashes[i], h)
	t.n++
	return &e.st
}

// grown returns a new table of double capacity (or the first minimum
// slab for a nil receiver) holding every entry of t. The receiver is
// left untouched — readers still holding it keep a consistent, merely
// stale, view — and interior *netState pointers handed out from it
// remain valid forever.
func (t *pairTable) grown() *pairTable {
	newCap := pairTableMinCap
	if t != nil && len(t.hashes) > 0 {
		newCap = 2 * len(t.hashes)
	}
	nt := &pairTable{
		hashes: make([]uint64, newCap),
		kv:     make([]pairKV, newCap),
	}
	if t == nil {
		return nt
	}
	mask := uint64(newCap - 1)
	for i := range t.hashes {
		h := t.hashes[i]
		if h == 0 {
			continue
		}
		j := h & mask
		for nt.hashes[j] != 0 {
			j = (j + 1) & mask
		}
		nt.hashes[j] = h
		nt.kv[j] = t.kv[i]
	}
	nt.n = t.n
	return nt
}

// CacheShardStats describes one path-state cache shard: its occupancy,
// its current slot capacity, and the resulting load factor (occupied /
// capacity, 0 for an untouched shard). The table grows at a load factor
// of 0.75, so a healthy shard reports a value in (0, 0.75].
type CacheShardStats struct {
	Entries  int
	Capacity int
}

// LoadFactor returns Entries/Capacity, or 0 for an empty shard.
func (s CacheShardStats) LoadFactor() float64 {
	if s.Capacity == 0 {
		return 0
	}
	return float64(s.Entries) / float64(s.Capacity)
}

// CacheStats reports per-shard occupancy of the path-state cache, in
// shard order; each entry is one attachment pair. CachedPairs is the
// sum of Entries across the result;
// this view additionally exposes how full each open-addressed table is,
// so skewed shard hashing or runaway growth is observable.
func (e *Engine) CacheStats() []CacheShardStats {
	out := make([]CacheShardStats, len(e.shards))
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		if t := s.tab.Load(); t != nil {
			out[i] = CacheShardStats{Entries: t.n, Capacity: len(t.hashes)}
		}
		s.mu.Unlock()
	}
	return out
}
