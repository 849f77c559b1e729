package measure

import "testing"

// TestPairAtMatchesDoubleLoop proves the closed-form triangular inversion
// reproduces the canonical `for i { for j := i+1 }` enumeration exactly —
// the property the exhaustive golden digests rest on — across sizes that
// exercise the float estimate's edges (tiny, odd, pow2, larger).
func TestPairAtMatchesDoubleLoop(t *testing.T) {
	for _, ne := range []int{2, 3, 4, 5, 7, 16, 63, 64, 65, 161, 500} {
		k := 0
		for i := 0; i < ne; i++ {
			for j := i + 1; j < ne; j++ {
				gi, gj := pairAt(ne, k)
				if gi != i || gj != j {
					t.Fatalf("ne=%d k=%d: pairAt=(%d,%d), want (%d,%d)", ne, k, gi, gj, i, j)
				}
				k++
			}
		}
		if k != pairCount(ne) {
			t.Fatalf("ne=%d: enumerated %d pairs, pairCount says %d", ne, k, pairCount(ne))
		}
	}
}
