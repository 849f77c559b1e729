package latency

import (
	"testing"
	"time"
	"unsafe"

	"shortcuts/internal/topology"
)

// synthKey builds a distinct canonical netKey from an integer.
func synthKey(i int) netKey {
	a := attachment{AS: uint32(100 + i), City: int32(i % 37)}
	b := attachment{AS: uint32(100000 + i), City: int32(i % 53)}
	return netKey{lo: a, hi: b}
}

// TestPairTableGrowth inserts far more keys than the initial slab holds
// and verifies every key still resolves to its own state afterwards —
// the regression guard for the open-addressed rehash path.
func TestPairTableGrowth(t *testing.T) {
	var shard cacheShard
	const n = 50 * pairTableMinCap
	for i := 0; i < n; i++ {
		key := synthKey(i)
		h := normPairHash(hashNetPath(key))
		if got := shard.lookup(h, key); got != nil {
			t.Fatalf("key %d present before insert", i)
		}
		st := shard.insertLocked(h, key, netState{wide: float64(i), cityPair: int32(i % 360)})
		if st == nil || st.wide != float64(i) {
			t.Fatalf("insert %d returned wrong state: %+v", i, st)
		}
	}
	tab := shard.tab.Load()
	if tab.n != n {
		t.Fatalf("occupancy = %d, want %d", tab.n, n)
	}
	if load := float64(tab.n) / float64(len(tab.hashes)); load > 0.75 {
		t.Fatalf("load factor %.3f exceeds growth threshold", load)
	}
	for i := 0; i < n; i++ {
		key := synthKey(i)
		st := shard.lookup(normPairHash(hashNetPath(key)), key)
		if st == nil {
			t.Fatalf("key %d lost after growth", i)
		}
		if st.wide != float64(i) || st.cityPair != int32(i%360) {
			t.Fatalf("key %d resolves to wrong state %+v", i, st)
		}
	}
}

// TestPairTablePointerStability verifies the contract the ping hot path
// relies on: a *netState returned before growth still reads the same
// immutable values after the table has rehashed several times.
func TestPairTablePointerStability(t *testing.T) {
	var shard cacheShard
	early := make([]*netState, 16)
	for i := range early {
		key := synthKey(i)
		early[i] = shard.insertLocked(normPairHash(hashNetPath(key)), key, netState{wide: float64(1000 + i)})
	}
	for i := 16; i < 20*pairTableMinCap; i++ {
		key := synthKey(i)
		shard.insertLocked(normPairHash(hashNetPath(key)), key, netState{wide: float64(1000 + i)})
	}
	for i, st := range early {
		if st.wide != float64(1000+i) {
			t.Fatalf("early pointer %d mutated: %v", i, st.wide)
		}
	}
}

// TestPairKVSize pins the wide lane's entry at 48 bytes: a 16-byte
// attachment pair and a 32-byte state. A wider field here multiplies
// over every cached attachment pair.
func TestPairKVSize(t *testing.T) {
	if got := unsafe.Sizeof(pairKV{}); got != 48 {
		t.Fatalf("pairKV is %d bytes, want 48", got)
	}
}

// TestNormPairHash pins the empty-slot sentinel mapping.
func TestNormPairHash(t *testing.T) {
	if normPairHash(0) != 1 {
		t.Fatal("hash 0 must normalize to 1")
	}
	if normPairHash(42) != 42 {
		t.Fatal("nonzero hashes must pass through")
	}
}

// TestCacheStatsTracksGrowth drives the engine cache past several slab
// growths through the public API and checks that CacheStats, CachedPairs
// and the per-shard load factors stay consistent.
func TestCacheStatsTracksGrowth(t *testing.T) {
	e := testEngine(t)
	eyes := cachedTopo.ASesOfType(topology.Eyeball)
	pairs := 0
	for i := 0; i < len(eyes) && pairs < 3*pairTableMinCap; i++ {
		for j := i + 1; j < len(eyes) && pairs < 3*pairTableMinCap; j++ {
			a := Endpoint{AS: eyes[i].ASN, City: eyes[i].HomeCity(), Access: time.Millisecond}
			b := Endpoint{AS: eyes[j].ASN, City: eyes[j].HomeCity(), Access: 2 * time.Millisecond}
			if _, err := e.BaseRTT(a, b); err != nil {
				t.Fatal(err)
			}
			pairs++
		}
	}
	stats := e.CacheStats()
	if len(stats) != e.NumShards() {
		t.Fatalf("CacheStats has %d shards, engine has %d", len(stats), e.NumShards())
	}
	total := 0
	for i, s := range stats {
		total += s.Entries
		if s.Entries > 0 && s.Capacity == 0 {
			t.Fatalf("shard %d has entries but no capacity", i)
		}
		if lf := s.LoadFactor(); lf < 0 || lf > 0.75 {
			t.Fatalf("shard %d load factor %.3f out of range", i, lf)
		}
	}
	// Other tests share this engine fixture, so the cache may hold more
	// pairs than this test inserted — never fewer.
	if got := e.CachedPairs(); got != total {
		t.Fatalf("CachedPairs %d != CacheStats sum %d", got, total)
	}
	if total < pairs {
		t.Fatalf("cached %d pairs, inserted %d", total, pairs)
	}
}
