package detect

import (
	"fmt"
	"reflect"
	"testing"

	"shortcuts/internal/measure"
)

// armFingerprint is everything the determinism matrix compares: the
// full event list and the full plan-delivery series.
type armFingerprint struct {
	Events []Event
	Plans  []RoundPlanStats
}

func fingerprint(d *Detector) armFingerprint {
	evs := d.Events()
	for i := range evs {
		evs[i].corrIdxs = nil // unexported scratch, not part of the contract
	}
	return armFingerprint{Events: evs, Plans: d.PlanHistory()}
}

// TestDetectorDeterminismMatrix pins the tentpole determinism claim:
// the same campaign stream produces bit-identical events and plan
// series at every Concurrency x latency-cache-shards combination, in
// both monitor and self-heal mode. The detector never sees schedule,
// so any divergence would mean the stream itself (or the self-heal
// feedback path) leaked nondeterminism.
func TestDetectorDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run is not short")
	}
	sc := hubOutage(rtOnset, rtEnd)
	for _, selfHeal := range []bool{false, true} {
		var ref *armFingerprint
		var refKey string
		for _, shards := range []int{1, 8} {
			w := buildWorld(t, 17, shards)
			for _, conc := range []int{1, 8} {
				key := fmt.Sprintf("selfheal=%v shards=%d conc=%d", selfHeal, shards, conc)
				det := New(w, Options{SelfHeal: selfHeal})
				cfg := measure.QuickConfig(rtRounds)
				cfg.Scenario = sc
				cfg.Concurrency = conc
				var sink measure.Sink = nopSink{}
				if selfHeal {
					cfg.SelfHeal = det
				} else {
					sink = det
				}
				if err := measure.RunStream(w, cfg, sink); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				fp := fingerprint(det)
				if ref == nil {
					ref = &fp
					refKey = key
					if len(fp.Events) == 0 {
						t.Fatalf("%s: no events; the matrix would compare empty runs", key)
					}
					continue
				}
				if !reflect.DeepEqual(fp.Events, ref.Events) {
					t.Errorf("%s: events diverge from %s:\n got %+v\nwant %+v", key, refKey, fp.Events, ref.Events)
				}
				if !reflect.DeepEqual(fp.Plans, ref.Plans) {
					t.Errorf("%s: plan history diverges from %s", key, refKey)
				}
			}
		}
	}
}
