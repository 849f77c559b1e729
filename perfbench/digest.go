package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"shortcuts"
	"shortcuts/internal/measure"
)

// pinnedDigests holds the SHA-256 of the public observation stream per
// campaign workload and seed, over the workload's fixed world: seed 1
// is the development seed, seed 7 is held out. Any other seed is
// checked by invariants instead (see checkStream). A change that moves
// these digests changes what the campaign measures and must say so.
var pinnedDigests = map[string]map[int64]string{
	"paper-campaign": {
		1: "15c2774c83660ded91d1eb7a6d65b7dbdbf489b43299b9828cc528f5309e5b47",
		7: "acc06907227081b49eb323aa4262b3474ab413091d058bab06e65ccec27d397a",
	},
	"scale-campaign": {
		1: "0c7273e34cdc506ecb6612af869fe533c1862c6ed8981d9d0b60878136272f0e",
		7: "5b246fbfe4aaf826b25b60c18a33d8adfa53be6b259cfeea052fbdf032e66629",
	},
}

// streamDigest hashes an observation stream field by field, in emission
// order, and counts what the invariant checks need. The public and the
// internal stream encode identically, so a campaign run through either
// API yields the same digest.
type streamDigest struct {
	h         hash.Hash
	buf       []byte
	obs       int64
	usable    int64
	attempted int64
	pings     int64
	endpoints int64
	rounds    int
}

func newStreamDigest() *streamDigest { return &streamDigest{h: sha256.New()} }

func (d *streamDigest) i64(v int64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v)) }
func (d *streamDigest) f32(v float32) {
	d.buf = binary.LittleEndian.AppendUint32(d.buf, math.Float32bits(v))
}
func (d *streamDigest) str(s string) {
	d.i64(int64(len(s)))
	d.buf = append(d.buf, s...)
}

func (d *streamDigest) flush() {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
}

// public hashes one observation delivered to a public shortcuts.Sink.
func (d *streamDigest) public(o *shortcuts.Observation) {
	d.obs++
	d.i64(int64(o.Round))
	d.str(o.SrcCC)
	d.str(o.DstCC)
	d.str(o.SrcCont)
	d.str(o.DstCont)
	d.f32(o.DirectMs)
	d.f32(o.RevDirectMs)
	for t := range o.BestMs {
		d.f32(o.BestMs[t])
		d.i64(int64(o.BestRelay[t]))
		d.i64(int64(o.FeasibleCount[t]))
	}
	d.i64(int64(len(o.Improving)))
	for _, e := range o.Improving {
		d.i64(int64(e.Relay))
		d.f32(e.RelayedMs)
	}
	d.flush()
}

// internal hashes one observation of the measure layer's stream exactly
// as public hashes its public form.
func (d *streamDigest) internal(o *measure.Observation) {
	d.obs++
	d.i64(int64(o.Round))
	d.str(o.SrcCC)
	d.str(o.DstCC)
	d.str(o.SrcCont)
	d.str(o.DstCont)
	d.f32(o.DirectMs)
	d.f32(o.RevDirectMs)
	for t := range o.BestMs {
		d.f32(o.BestMs[t])
		d.i64(int64(o.BestRelay[t]))
		d.i64(int64(o.FeasibleCount[t]))
	}
	d.i64(int64(len(o.Improving)))
	for _, e := range o.Improving {
		d.i64(int64(e.Relay))
		d.f32(e.RelayedMs)
	}
	d.flush()
}

// round hashes one round summary and accumulates its work counts.
func (d *streamDigest) round(round, endpoints, attempted, usable int, pings int64) {
	d.rounds++
	d.usable += int64(usable)
	d.attempted += int64(attempted)
	d.pings += pings
	d.endpoints += int64(endpoints)
	d.i64(-1) // separates round records from observations
	d.i64(int64(round))
	d.i64(int64(endpoints))
	d.i64(int64(attempted))
	d.i64(int64(usable))
	d.i64(pings)
	d.flush()
}

func (d *streamDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// checkStream checks one finished campaign stream: the observation
// count must equal the rounds' summed PairsUsable, every round must have
// arrived, and a pinned seed must reproduce its pinned digest.
func checkStream(workload string, seed int64, rounds int, d *streamDigest) error {
	if d.rounds != rounds {
		return fmt.Errorf("%d rounds reported, want %d", d.rounds, rounds)
	}
	if d.obs != d.usable {
		return fmt.Errorf("%d observations emitted but rounds report %d usable pairs", d.obs, d.usable)
	}
	if d.obs == 0 {
		return fmt.Errorf("campaign emitted no observations")
	}
	if want := pinnedDigests[workload][seed]; want != "" && d.sum() != want {
		return fmt.Errorf("stream digest %s, pinned %s for seed %d", d.sum(), want, seed)
	}
	return nil
}

// sameDigests checks that repeated campaigns of one seed produced one
// stream.
func sameDigests(sums []string) error {
	for i, s := range sums {
		if s != sums[0] {
			return fmt.Errorf("campaign %d digest %s differs from campaign 0 digest %s", i, s, sums[0])
		}
	}
	return nil
}
