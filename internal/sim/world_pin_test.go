package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"
)

// worldHasher folds values into one SHA-256: integers and float bits as
// little-endian words, strings length-prefixed.
type worldHasher struct{ h hash.Hash }

func (d worldHasher) word(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	d.h.Write(buf[:])
}

func (d worldHasher) int(v int)       { d.word(uint64(int64(v))) }
func (d worldHasher) float(v float64) { d.word(math.Float64bits(v)) }

func (d worldHasher) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d worldHasher) ints(v []int) {
	d.int(len(v))
	for _, x := range v {
		d.int(x)
	}
}

func (d worldHasher) strs(v []string) {
	d.int(len(v))
	for _, s := range v {
		d.str(s)
	}
}

func (d worldHasher) bool(v bool) {
	if v {
		d.word(1)
	} else {
		d.word(0)
	}
}

// worldDigest hashes what the build stages on the serial chain make:
// every AS, every link in order, every facility, every APNIC record and
// each country's ranked order, and every catalog relay with the funnel.
func worldDigest(w *World) string {
	d := worldHasher{sha256.New()}
	for _, a := range w.Topo.ASes {
		d.int(int(a.ASN))
		d.int(int(a.Type))
		d.str(a.CC)
		d.ints(a.PoPs)
		d.float(a.Coverage)
	}
	for _, l := range w.Topo.Links {
		d.int(int(l.A))
		d.int(int(l.B))
		d.int(int(l.Rel))
		d.ints(l.Cities)
	}
	for _, f := range w.Topo.Facilities {
		d.int(f.ID)
		d.int(f.PDBID)
		d.int(f.City)
		d.int(len(f.Members))
		for _, m := range f.Members {
			d.int(int(m))
		}
		d.strs(f.IXPs)
		d.bool(f.Cloud)
		d.int(f.ListedNets)
	}
	for _, r := range w.Apnic.Records {
		d.int(r.ASN)
		d.str(r.CC)
		d.float(r.Coverage)
	}
	for _, cc := range w.Apnic.Countries() {
		d.str(cc)
		recs := w.Apnic.ByCountry(cc)
		d.int(len(recs))
		for _, r := range recs {
			d.int(r.ASN)
		}
	}
	for i := range w.Catalog.Len() {
		r := w.Catalog.Relay(i)
		d.int(int(r.Type))
		d.str(r.ID())
		d.int(int(r.Endpoint.AS))
		d.int(r.Endpoint.City)
		d.int(int(r.Endpoint.Access))
		d.str(r.CC)
		d.int(r.City)
		d.int(r.FacilityPDB)
		d.str(r.FacilityName)
		d.int(int(r.ProbeID))
		d.int(r.NodeID)
	}
	d.str(fmt.Sprintf("%+v", w.Catalog.Funnel))
	return fmt.Sprintf("%x", d.h.Sum(nil))
}

// TestWorldPinned pins the built world bit for bit: the digests were
// recorded from the facility scan and the heap-driven route solver that
// the per-AS facility index and the bucket queue replaced. A topology
// that differs in one facility answer shifts every later draw of its
// stream, so any drift in the build's serial chain fails here.
func TestWorldPinned(t *testing.T) {
	cases := []struct {
		name string
		p    WorldParams
		want string
	}{
		{"small seed 1", SmallWorldParams(1), "a02509c534f685c179a5097d0a885d3660c5e300a9f82eafa63e6dac1a8cac74"},
		{"small seed 2", SmallWorldParams(2), "f2620ac0319c5f038a1a500d6e92becac4987187b614aff165b7072afbb54691"},
		{"default seed 1", DefaultWorldParams(1), "2be39c93a0fe4dd407c6c15f57c718bcc3845495fbebeddc9bd51af0372bf20c"},
		{"scale seed 3 at 20k", ScaleWorldParams(3, 20_000), "1f1535fe870b388fc07f9898d4d0dea42b9860a4664aeb6c8526823acea5e538"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, err := BuildWith(c.p, BuildOptions{WarmRoutes: false})
			if err != nil {
				t.Fatal(err)
			}
			if got := worldDigest(w); got != c.want {
				t.Fatalf("world digest %s, want %s", got, c.want)
			}
		})
	}
}
