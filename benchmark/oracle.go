package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/grid"
)

// advert is what an answer says about its own fidelity: the bound that
// was asked for, the bound the answer claims to guarantee
// (X-Ipcomp-Guaranteed-Error, or GuaranteedError() on a library or client
// result), and whether the server marked it degraded.
type advert struct {
	requested  float64
	guaranteed float64
	degraded   bool
}

// checkBox is the oracle: the only way an operation is counted as
// succeeded. It compares a decoded box [lo, hi) — from a library
// retrieval, a raw response, an ipcomp/client region after any number of
// refinements, a snapshot read or a post-restart read — to the source
// values and to what the answer advertised:
//
//	max|x − x̂| ≤ guaranteed ≤ requested      (the last unless degraded)
//
// route only labels the error.
func checkBox[T grid.Scalar](f *field, route string, lo, hi []int, got []T, a advert) error {
	if n := boxLen(lo, hi); len(got) != n {
		return fmt.Errorf("%s: box [%v, %v) has %d values, want %d", route, lo, hi, len(got), n)
	}
	if !(a.guaranteed >= 0) || math.IsInf(a.guaranteed, 0) {
		return fmt.Errorf("%s: advertised guarantee %g is not a bound", route, a.guaranteed)
	}
	if !a.degraded && a.guaranteed > a.requested {
		return fmt.Errorf("%s: advertised guarantee %g is looser than the requested bound %g", route, a.guaranteed, a.requested)
	}
	// A field kept as a crop (ingest_series keeps one box per snapshot)
	// sits at origin in dataset coordinates.
	org := f.origin
	if org == nil {
		org = make([]int, len(lo))
	}
	st := f.shape.Strides()
	worst, at := 0.0, -1
	i := 0
	for z := lo[0] - org[0]; z < hi[0]-org[0]; z++ {
		for y := lo[1] - org[1]; y < hi[1]-org[1]; y++ {
			o := z*st[0] + y*st[1] - org[2]
			for x := lo[2]; x < hi[2]; x++ {
				d := math.Abs(f.at(o+x) - float64(got[i]))
				if math.IsNaN(d) {
					return fmt.Errorf("%s: box [%v, %v) holds NaN at element %d", route, lo, hi, i)
				}
				if d > worst {
					worst, at = d, i
				}
				i++
			}
		}
	}
	if worst > a.guaranteed {
		return fmt.Errorf("%s: box [%v, %v) is off by %g at element %d, beyond the advertised guarantee %g", route, lo, hi, worst, at, a.guaranteed)
	}
	return nil
}

// tally counts operations; an operation enters it exactly once, with the
// oracle's verdict (or the transport error that kept it from the oracle).
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	first     error
}

// count records one operation and reports whether it succeeded.
func (t *tally) count(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = err
		}
	}
	return err == nil
}
