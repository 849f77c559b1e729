package measure

import "math"

// pairIdx32 addresses one endpoint pair by its positions in the round's
// endpoint sample.
type pairIdx32 struct{ i, j int32 }

// pairCount returns the exhaustive pair-universe size n*(n-1)/2.
func pairCount(ne int) int { return ne * (ne - 1) / 2 }

// pairAt inverts the triangular enumeration: it returns the k-th pair of
// the canonical double loop `for i { for j := i+1 }` without the loop.
// The float estimate lands within one row of the answer; the two integer
// correction loops make the result exact for every k in range.
func pairAt(ne, k int) (int, int) {
	rowStart := func(i int) int { return i * (2*ne - i - 1) / 2 }
	f := float64(ne) - 0.5
	i := int(f - math.Sqrt(f*f-2*float64(k)))
	if i < 0 {
		i = 0
	}
	if i > ne-2 {
		i = ne - 2
	}
	for i < ne-2 && rowStart(i+1) <= k {
		i++
	}
	for i > 0 && rowStart(i) > k {
		i--
	}
	return i, k - rowStart(i) + i + 1
}
