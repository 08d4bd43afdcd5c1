package core

import "testing"

// TestScratchPoolContract pins GetScratch's promise for each element type:
// length n on a capacity in [n, 2n), whatever was Put before it. A backing
// 16× the request is of another class and never serves it; an undersized
// backing of the request's own class is dropped, not handed out short.
func TestScratchPoolContract(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	t.Run("float64", checkScratchContract[float64])
	t.Run("float32", checkScratchContract[float32])
	t.Run("int32", checkScratchContract[int32])
	t.Run("byte", checkScratchContract[byte])
}

func checkScratchContract[T scratchElem](t *testing.T) {
	check := func(after string, n int, s []T) {
		t.Helper()
		if len(s) != n || cap(s) < n || cap(s) >= 2*n {
			t.Errorf("after %s: GetScratch(%d) has length %d, capacity %d; want length %d, capacity in [%d, %d)",
				after, n, len(s), cap(s), n, n, 2*n)
		}
	}
	for _, n := range []int{1, 7, 1000, 3000, 1 << 16} {
		PutScratch(make([]T, 16*n))
		check("a Put 16× the request", n, GetScratch[T](n))
		PutScratch(make([]T, n-1))
		check("an undersized Put", n, GetScratch[T](n))
	}
}
