package latency

import (
	"sync/atomic"
	"time"
)

// LinePair is one (source, destination) pair handed to ResolveBatch.
type LinePair struct {
	A, B Line
}

// PairHandle is a resolved pair, ready for train pricing without any
// further cache traffic: the composed path state of the pair, carried
// by value, and the overlay effect.
type PairHandle struct {
	st  pathState
	eff Effect
}

// resolveBatchChunk bounds how many lookups ResolveBatch keeps in
// flight at once. Large enough that the out-of-order core always has
// several independent cache-line misses to overlap, small enough that
// the per-chunk scratch stays on the stack.
const resolveBatchChunk = 16

// ResolveBatch resolves out[i] for pairs[i], len(out) must equal
// len(pairs). It prices exactly what per-pair resolution would price —
// same cached states, same draw identities — but restructures the
// lookups to run memory-parallel: a warm get is two dependent cache
// misses (hash lane, then wide lane), and resolving pairs one at a time
// serializes those misses behind each train's pricing work. Here a
// chunk of 16 pairs first hashes and probes all 16 hash lanes —
// independent loads the core overlaps — then touches the 16 wide lanes
// likewise, so the per-pair memory stall approaches latency/chunk
// instead of 2×latency. Attachment pairs that miss the cache fall back
// to the ordinary locked admission path, one at a time.
func (v View) ResolveBatch(pairs []LinePair, out []PairHandle) error {
	e := v.e
	for base := 0; base < len(pairs); base += resolveBatchChunk {
		n := len(pairs) - base
		if n > resolveBatchChunk {
			n = resolveBatchChunk
		}
		var (
			keys [resolveBatchChunk]netKey
			hs   [resolveBatchChunk]uint64
			tabs [resolveBatchChunk]*pairTable
			idxs [resolveBatchChunk]int64
		)
		// Pass 1: hash every attachment pair and probe its hash lane to
		// the first hash match (or the chain's end). The loop body is
		// short ALU work ahead of one independent miss per pair, which
		// is what lets the misses overlap.
		for j := 0; j < n; j++ {
			p := &pairs[base+j]
			keys[j] = netKeyOf(ordered(&p.A, &p.B))
			h := tableHash(keys[j])
			hs[j] = h
			idxs[j] = -1
			t := e.shards[e.shardOf(h)].tab.Load()
			tabs[j] = t
			if t == nil {
				continue
			}
			mask := uint64(len(t.hashes) - 1)
			for i := h & mask; ; i = (i + 1) & mask {
				hh := atomic.LoadUint64(&t.hashes[i])
				if hh == 0 {
					break
				}
				if hh == h {
					idxs[j] = int64(i)
					break
				}
			}
		}
		// Pass 2: confirm keys against the wide lanes — the second
		// round of independent misses. A hash match with the wrong key
		// (a 64-bit collision; effectively never) is demoted to the
		// slow path, which re-probes the whole chain itself.
		for j := 0; j < n; j++ {
			i := idxs[j]
			if i < 0 {
				continue
			}
			if !keyEq(&tabs[j].kv[i].key, &keys[j]) {
				idxs[j] = -1
			}
		}
		// Pass 3: compose handles; misses take the ordinary admission
		// path.
		for j := 0; j < n; j++ {
			var ns *netState
			if i := idxs[j]; i >= 0 {
				ns = &tabs[j].kv[i].st
			} else {
				var err error
				ns, err = e.netStateByHash(hs[j], keys[j])
				if err != nil {
					return err
				}
			}
			p := &pairs[base+j]
			lo, hi := ordered(&p.A, &p.B)
			out[base+j] = PairHandle{st: e.compose(ns, lo, hi, lo == &p.A), eff: v.effect(&p.A, &p.B)}
		}
	}
	return nil
}

// PingSample is one slot of a ping train: the observed RTT and whether a
// reply arrived at all.
type PingSample struct {
	RTT time.Duration
	OK  bool
}

// PingTrainSchedHandle prices one train for a resolved pair: len(out)
// pings, slot s at round `round` under the diurnal load of slot s of
// sched (which must have at least len(out) slots and come from an
// engine over the same topology). Each slot's draws derive from (pair,
// round, slot) alone. Pair resolution was paid by ResolveBatch and the
// load by Engine.Schedule, so nothing here touches the cache or the
// heap. The pair resolved in the other direction prices a slightly
// different train (path asymmetry) over the same cached state.
func (v View) PingTrainSchedHandle(h *PairHandle, round int, sched *Schedule, out []PingSample) {
	p := int(h.st.cityPair) * sched.n
	load := sched.load[p : p+sched.n : p+sched.n][:len(out)]
	for slot := range out {
		rtt, ok := v.e.pingSlot(&h.st, round, slot, load[slot], h.eff)
		out[slot] = PingSample{RTT: rtt, OK: ok}
	}
}
