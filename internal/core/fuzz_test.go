package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"testing"
)

// FuzzArchiveHeader feeds mutated archive headers to NewArchive and to the
// planners, which read nothing but the header. NewArchive must never
// panic, and a header it accepts has a positive finite error bound. On
// such a header, planning by error bound and by byte budget and the span
// arithmetic between any two of the plans must never panic, the full plan
// must not load more than the archive's declared size, and a byte budget
// below the mandatory bytes plans the minimal plan. Decoding is left out:
// it reads the blocks, not only the header.
func FuzzArchiveHeader(f *testing.F) {
	var archives [][]byte
	for _, tc := range goldenCases() {
		for _, width := range []string{"f64", "f32"} {
			var blob []byte
			var err error
			if width == "f64" {
				blob, err = Compress(goldenField(f, tc.shape), Options{ErrorBound: 1e-6, Interpolation: tc.kind})
			} else {
				blob, err = Compress(goldenField32(f, tc.shape), Options{ErrorBound: 1e-3, Interpolation: tc.kind})
			}
			if err != nil {
				f.Fatal(err)
			}
			archives = append(archives, blob)
		}
	}
	for _, name := range []string{"testdata/v1_3d_cubic.ipc", v3Fixture} {
		blob, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		archives = append(archives, blob)
	}
	rng := rand.New(rand.NewSource(5))
	for _, blob := range archives {
		a, err := NewArchive(blob)
		if err != nil {
			f.Fatal(err)
		}
		eb := a.ErrorBound()
		f.Add(blob, 64*eb, a.TotalSize()/2)
		// Planning needs the header alone.
		header := blob[:a.HeaderSize()]
		f.Add(header, 4*eb, a.HeaderSize())
		f.Add(header, math.Inf(1), int64(math.MinInt64))
		f.Add(header, math.NaN(), int64(math.MaxInt64))
		// The error bound made zero, negative, infinite and NaN, and large
		// enough that a truncation error (1e307) or the quantization step
		// itself (1e308) overflows to +Inf.
		ebOff := 16 + 4*len(a.Shape())
		for _, v := range []float64{0, -eb, math.Inf(1), math.NaN(), 1e307, 1e308} {
			m := append([]byte(nil), header...)
			binary.LittleEndian.PutUint64(m[ebOff:], math.Float64bits(v))
			f.Add(m, math.Inf(1), int64(len(blob)))
			f.Add(m, 1.7e308, int64(len(blob)))
		}
		// That step overflowing where the progressive levels record no
		// loss for any drop: 0·Inf makes every drop's cost NaN.
		if a.h.prog > 0 {
			h, err := unmarshalHeader(header[8:])
			if err != nil {
				f.Fatal(err)
			}
			h.eb = 1e308
			for l := 1; l <= h.prog; l++ {
				clear(h.metaOf(l).maxDrop)
			}
			f.Add(h.marshal(), 1.7e308, int64(len(blob)))
		}
		// Header bytes flipped at random.
		for i := 0; i < 4; i++ {
			m := append([]byte(nil), header...)
			m[8+rng.Intn(len(m)-8)] ^= byte(1 + rng.Intn(255))
			f.Add(m, eb, int64(len(blob)))
		}
	}

	f.Fuzz(func(t *testing.T, blob []byte, bound float64, maxBytes int64) {
		a, err := NewArchive(blob)
		if err != nil {
			return
		}
		if eb := a.ErrorBound(); !(eb > 0) || math.IsInf(eb, 1) {
			t.Fatalf("accepted an archive whose error bound is %v", eb)
		}
		full := a.fullPlan()
		if got, total := a.PlanBytes(full), a.TotalSize(); got > total {
			t.Fatalf("the full plan loads %d bytes of a %d-byte archive", got, total)
		}
		plans := []Plan{{}, a.minimalPlan(), full}
		eb := a.ErrorBound()
		for _, b := range []float64{bound, eb, 2 * eb, 1024 * eb} {
			if p, err := a.PlanErrorBoundMode(b); err == nil {
				plans = append(plans, p)
			}
		}
		mandatory := a.PlanBytes(a.minimalPlan())
		for _, n := range []int64{maxBytes, a.HeaderSize(), a.TotalSize() / 2} {
			p, err := a.PlanBitrateMode(n)
			if err != nil {
				continue
			}
			if got := a.PlanBytes(p); n <= mandatory && got != mandatory {
				t.Fatalf("a %d-byte budget below the %d mandatory bytes planned %d", n, mandatory, got)
			}
			plans = append(plans, p)
		}
		for _, from := range plans {
			for _, to := range plans {
				a.PlanSpans(from, to)
			}
		}
	})
}
