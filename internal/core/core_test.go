package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/interp"
)

// smoothField builds a deterministic multi-scale smooth field resembling
// scientific data.
func smoothField(shape grid.Shape, seed int64) *grid.Grid[float64] {
	g := grid.MustNew[float64](shape)
	r := rand.New(rand.NewSource(seed))
	// Random low-order Fourier modes plus a little noise.
	type mode struct {
		amp   float64
		freq  [4]float64
		phase float64
	}
	modes := make([]mode, 6)
	for m := range modes {
		modes[m].amp = r.NormFloat64() * math.Pow(0.5, float64(m))
		for d := range modes[m].freq {
			modes[m].freq[d] = (r.Float64() + 0.2) * float64(m+1) * math.Pi
		}
		modes[m].phase = r.Float64() * 2 * math.Pi
	}
	data := g.Data()
	strides := shape.Strides()
	for i := range data {
		var coord [4]float64
		rem := i
		for d := 0; d < len(shape); d++ {
			coord[d] = float64(rem/strides[d]) / float64(shape[d])
			rem %= strides[d]
		}
		v := 0.0
		for _, m := range modes {
			arg := m.phase
			for d := 0; d < len(shape); d++ {
				arg += m.freq[d] * coord[d]
			}
			v += m.amp * math.Sin(arg)
		}
		data[i] = v
	}
	return g
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > worst {
			worst = d
		}
	}
	return worst
}

// decompress reconstructs an archive held in memory at full fidelity,
// widened to float64.
func decompress(blob []byte) (*grid.Grid[float64], error) {
	a, err := NewArchive(blob)
	if err != nil {
		return nil, err
	}
	res, err := a.RetrieveAll()
	if err != nil {
		return nil, err
	}
	return res.Grid(), nil
}

func TestCompressDecompressFullFidelity(t *testing.T) {
	shapes := []grid.Shape{{100}, {33, 21}, {17, 18, 19}, {6, 7, 8, 5}}
	for _, shape := range shapes {
		for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
			g := smoothField(shape, 1)
			eb := 1e-4
			blob, err := Compress(g, Options{ErrorBound: eb, Interpolation: kind})
			if err != nil {
				t.Fatalf("%v/%v: %v", shape, kind, err)
			}
			out, err := decompress(blob)
			if err != nil {
				t.Fatalf("%v/%v: %v", shape, kind, err)
			}
			if !out.Shape().Equal(shape) {
				t.Fatalf("%v/%v: shape %v", shape, kind, out.Shape())
			}
			if d := maxAbsDiff(g.Data(), out.Data()); d > eb {
				t.Errorf("%v/%v: max error %v exceeds bound %v", shape, kind, d, eb)
			}
		}
	}
}

// TestCompressionIsDeterministic: the parallel encode path must produce
// bit-identical archives across runs (results land by index, scheduling
// cannot reorder them).
func TestCompressionIsDeterministic(t *testing.T) {
	g := smoothField(grid.Shape{40, 36, 20}, 21)
	opts := Options{ErrorBound: 1e-7, Interpolation: interp.Cubic, ProgressiveThreshold: 256}
	a, err := Compress(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compress(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("archives differ at byte %d", i)
		}
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	g := smoothField(grid.Shape{64, 64, 64}, 2)
	blob, err := Compress(g, Options{ErrorBound: 1e-4, Interpolation: interp.Cubic})
	if err != nil {
		t.Fatal(err)
	}
	raw := g.Len() * 8
	if len(blob) >= raw/3 {
		t.Errorf("compressed %d bytes of %d raw; expected CR > 3 on smooth data", len(blob), raw)
	}
}

// TestProgressiveErrorBoundGuarantee is the paper's central claim: retrieval
// at ANY bound E >= eb yields max error <= E while loading fewer bytes for
// looser bounds.
func TestProgressiveErrorBoundGuarantee(t *testing.T) {
	g := smoothField(grid.Shape{48, 40, 36}, 3)
	eb := 1e-6
	blob, err := Compress(g, Options{ErrorBound: eb, Interpolation: interp.Cubic,
		ProgressiveThreshold: 512})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	prevLoaded := int64(1 << 62)
	for _, factor := range []float64{1, 4, 16, 256, 4096, 65536} {
		bound := eb * factor
		res, err := a.RetrieveErrorBound(bound)
		if err != nil {
			t.Fatalf("bound %v: %v", bound, err)
		}
		got := maxAbsDiff(g.Data(), res.Data())
		if got > bound {
			t.Errorf("bound %v: actual error %v exceeds it", bound, got)
		}
		if res.GuaranteedError() > bound {
			t.Errorf("bound %v: guaranteed %v exceeds request", bound, res.GuaranteedError())
		}
		if res.LoadedBytes() > prevLoaded {
			t.Errorf("bound %v: loaded %d bytes, more than tighter bound's %d",
				bound, res.LoadedBytes(), prevLoaded)
		}
		prevLoaded = res.LoadedBytes()
	}
	// The loosest bound must genuinely save data vs. the tightest.
	resTight, _ := a.RetrieveErrorBound(eb)
	resLoose, _ := a.RetrieveErrorBound(eb * 65536)
	if resLoose.LoadedBytes() >= resTight.LoadedBytes() {
		t.Errorf("loose bound loads %d >= tight %d: progressivity broken",
			resLoose.LoadedBytes(), resTight.LoadedBytes())
	}
}

func TestBitrateModeRespectsBudget(t *testing.T) {
	g := smoothField(grid.Shape{40, 40, 30}, 4)
	blob, err := Compress(g, Options{ErrorBound: 1e-7, Interpolation: interp.Cubic,
		ProgressiveThreshold: 512})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(g.Len())
	full := float64(a.TotalSize()) * 8 / n
	prevErr := math.Inf(1)
	for _, rate := range []float64{full * 0.3, full * 0.5, full * 0.8} {
		res, err := a.RetrieveBitrate(rate)
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		minimal := a.PlanBytes(a.minimalPlan())
		budget := int64(rate * n / 8)
		if res.LoadedBytes() > budget && res.LoadedBytes() > minimal {
			t.Errorf("rate %v: loaded %d bytes over budget %d", rate, res.LoadedBytes(), budget)
		}
		got := maxAbsDiff(g.Data(), res.Data())
		if got > res.GuaranteedError() {
			t.Errorf("rate %v: actual %v exceeds guarantee %v", rate, got, res.GuaranteedError())
		}
		if got > prevErr*1.0000001 {
			t.Errorf("rate %v: error %v not monotone vs %v", rate, got, prevErr)
		}
		prevErr = got
	}
}

// TestRefinementMatchesFreshRetrieval: Algorithm 2 must land on (nearly)
// the same reconstruction as a from-scratch Algorithm 1 with the same plan.
func TestRefinementMatchesFreshRetrieval(t *testing.T) {
	g := smoothField(grid.Shape{32, 30, 28}, 5)
	eb := 1e-7
	blob, err := Compress(g, Options{ErrorBound: eb, Interpolation: interp.Cubic,
		ProgressiveThreshold: 256})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RetrieveErrorBound(eb * 65536)
	if err != nil {
		t.Fatal(err)
	}
	for _, factor := range []float64{4096, 256, 16, 1} {
		bound := eb * factor
		if err := res.RefineErrorBound(bound); err != nil {
			t.Fatalf("refine to %v: %v", bound, err)
		}
		fresh, err := a.Retrieve(res.plan.clone())
		if err != nil {
			t.Fatal(err)
		}
		if n := bitDiffs(res.Data(), fresh.Data()); n != 0 {
			t.Errorf("refine to %v: %d values differ in bits from a fresh retrieval", bound, n)
		}
		if got := maxAbsDiff(g.Data(), res.Data()); got > bound*(1+1e-9) {
			t.Errorf("refine to %v: error %v exceeds bound", bound, got)
		}
	}
	// Final refinement to full fidelity.
	if err := res.RefineAll(); err != nil {
		t.Fatal(err)
	}
	if got := maxAbsDiff(g.Data(), res.Data()); got > eb*(1+1e-9) {
		t.Errorf("RefineAll: error %v exceeds eb %v", got, eb)
	}
}

func TestRefinementLoadsOnlyDelta(t *testing.T) {
	g := smoothField(grid.Shape{40, 32, 24}, 6)
	eb := 1e-6
	blob, _ := Compress(g, Options{ErrorBound: eb, Interpolation: interp.Cubic,
		ProgressiveThreshold: 256})
	a, _ := NewArchive(blob)

	res, err := a.RetrieveErrorBound(eb * 4096)
	if err != nil {
		t.Fatal(err)
	}
	coarseBytes := res.LoadedBytes()
	if err := res.RefineErrorBound(eb * 16); err != nil {
		t.Fatal(err)
	}
	refinedBytes := res.LoadedBytes()

	fresh, err := a.RetrieveErrorBound(eb * 16)
	if err != nil {
		t.Fatal(err)
	}
	// Incremental loading may read slightly more than a fresh plan (it
	// can never unload), but it must not double-load: total bytes stay
	// well under coarse + fresh.
	if refinedBytes >= coarseBytes+fresh.LoadedBytes() {
		t.Errorf("refinement loaded %d bytes; coarse=%d fresh=%d — no reuse happening",
			refinedBytes, coarseBytes, fresh.LoadedBytes())
	}
}

func TestRetrieveAllEqualsDecompress(t *testing.T) {
	g := smoothField(grid.Shape{25, 26}, 7)
	blob, _ := Compress(g, Options{ErrorBound: 1e-5, Interpolation: interp.Linear})
	a, _ := NewArchive(blob)
	res, err := a.RetrieveAll()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Data(), dec.Data()); d != 0 {
		t.Errorf("RetrieveAll differs from Decompress by %v", d)
	}
	if res.LoadedBytes() != int64(len(blob)) {
		t.Errorf("RetrieveAll loaded %d of %d bytes", res.LoadedBytes(), len(blob))
	}
}

func TestBoundTooTight(t *testing.T) {
	g := smoothField(grid.Shape{30, 30}, 8)
	blob, _ := Compress(g, Options{ErrorBound: 1e-4, Interpolation: interp.Cubic})
	a, _ := NewArchive(blob)
	if _, err := a.RetrieveErrorBound(1e-5); err != ErrBoundTooTight {
		t.Errorf("expected ErrBoundTooTight, got %v", err)
	}
}

func TestOutlierEscape(t *testing.T) {
	// A field with an extreme spike forces the outlier path.
	g := smoothField(grid.Shape{32, 32}, 9)
	g.Data()[517] = 1e18
	eb := 1e-9
	blob, err := Compress(g, Options{ErrorBound: eb, Interpolation: interp.Cubic})
	if err != nil {
		t.Fatal(err)
	}
	out, err := decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(g.Data(), out.Data()); d > eb {
		t.Errorf("outlier dataset: error %v exceeds %v", d, eb)
	}
	if out.Data()[517] != 1e18 {
		t.Errorf("outlier value reconstructed as %v", out.Data()[517])
	}
}

func TestNaNAndInfEscape(t *testing.T) {
	g := smoothField(grid.Shape{16, 16}, 10)
	g.Data()[33] = math.NaN()
	g.Data()[77] = math.Inf(1)
	blob, err := Compress(g, Options{ErrorBound: 1e-6, Interpolation: interp.Cubic})
	if err != nil {
		t.Fatal(err)
	}
	out, err := decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out.Data()[33]) {
		t.Errorf("NaN lost: %v", out.Data()[33])
	}
	if !math.IsInf(out.Data()[77], 1) {
		t.Errorf("Inf lost: %v", out.Data()[77])
	}
}

func TestConstantField(t *testing.T) {
	g := grid.MustNew[float64](grid.Shape{20, 20, 20})
	for i := range g.Data() {
		g.Data()[i] = 3.25
	}
	blob, err := Compress(g, Options{ErrorBound: 1e-8, Interpolation: interp.Cubic})
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 2000 {
		t.Errorf("constant field compressed to %d bytes", len(blob))
	}
	out, _ := decompress(blob)
	if d := maxAbsDiff(g.Data(), out.Data()); d > 1e-8 {
		t.Errorf("constant field error %v", d)
	}
}

func TestInvalidOptions(t *testing.T) {
	g := smoothField(grid.Shape{8, 8}, 11)
	if _, err := Compress(g, Options{ErrorBound: 0}); err == nil {
		t.Error("zero bound must error")
	}
	if _, err := Compress(g, Options{ErrorBound: -1}); err == nil {
		t.Error("negative bound must error")
	}
	if _, err := Compress(g, Options{ErrorBound: math.Inf(1)}); err == nil {
		t.Error("inf bound must error")
	}
	if _, err := Compress(g, Options{ErrorBound: 1, Interpolation: interp.Kind(9)}); err == nil {
		t.Error("bad kind must error")
	}
}

func TestCorruptArchiveRejected(t *testing.T) {
	g := smoothField(grid.Shape{16, 16}, 12)
	blob, _ := Compress(g, Options{ErrorBound: 1e-4, Interpolation: interp.Cubic})
	if _, err := NewArchive(blob[:4]); err == nil {
		t.Error("tiny blob must be rejected")
	}
	bad := append([]byte(nil), blob...)
	bad[8] ^= 0xFF // corrupt the magic
	if _, err := NewArchive(bad); err == nil {
		t.Error("bad magic must be rejected")
	}
	if _, err := NewArchive(blob[:len(blob)/2]); err == nil {
		// Header may parse if it fits in half; retrieval must then fail.
		a, err2 := NewArchive(blob[:len(blob)/2])
		if err2 == nil {
			if _, err3 := a.RetrieveAll(); err3 == nil {
				t.Error("truncated archive retrieved successfully")
			}
		}
	}
}

// TestForgedHeaderCountsDoNotAllocate: a header's counts size its tables,
// and a header may come off the network. With four bytes of 0xFF written
// over every position in turn, parsing must fail or succeed without
// allocating out of proportion to the header's few hundred bytes, and a
// retrieval from what still parses must not either (the 4 Gi-element
// anchor and outlier tables, and a field sized by a forged shape, are
// what this keeps out).
func TestForgedHeaderCountsDoNotAllocate(t *testing.T) {
	g := smoothField(grid.Shape{16, 16}, 12)
	blob, err := Compress(g, Options{ErrorBound: 1e-4, Interpolation: interp.Cubic})
	if err != nil {
		t.Fatal(err)
	}
	hlen := 8 + int(binary.LittleEndian.Uint64(blob))
	for at := 8; at+4 <= hlen; at++ {
		bad := append([]byte(nil), blob...)
		copy(bad[at:], "\xff\xff\xff\xff")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if a, err := NewArchive(bad); err == nil {
			a.RetrieveAll()
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("0xFFFFFFFF at header byte %d made a %d-byte archive allocate %d bytes", at, len(blob), grew)
		}
	}
}

func TestReaderAtSourcePartialIO(t *testing.T) {
	g := smoothField(grid.Shape{32, 32, 16}, 14)
	eb := 1e-6
	blob, _ := Compress(g, Options{ErrorBound: eb, Interpolation: interp.Cubic,
		ProgressiveThreshold: 256})
	cr := &countingReaderAt{data: blob}
	a, err := NewArchiveReaderAt(cr, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RetrieveErrorBound(eb * 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxAbsDiff(g.Data(), res.Data()); got > eb*4096 {
		t.Errorf("error %v over bound", got)
	}
	if cr.read >= int64(len(blob)) {
		t.Errorf("reader-at read %d of %d bytes: no partial I/O", cr.read, len(blob))
	}
}

type countingReaderAt struct {
	data []byte
	read int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n := copy(p, c.data[off:])
	c.read += int64(n)
	if n < len(p) {
		return n, errShort
	}
	return n, nil
}

var errShort = errorString("short read")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestBytesSourceReadRangeOverflow ensures crafted offsets near MaxInt64
// cannot overflow the bounds check into a panic or an out-of-range slice.
func TestBytesSourceReadRangeOverflow(t *testing.T) {
	src := bytesSource(make([]byte, 64))
	cases := []struct {
		off int64
		n   int
	}{
		{math.MaxInt64 - 4, 64}, // off+n wraps negative
		{math.MaxInt64, 1},
		{-1, 4},
		{0, -1},
		{60, 5}, // straddles the end
		{65, 0}, // past the end
	}
	for _, c := range cases {
		if _, err := src.ReadRange(c.off, c.n); err == nil {
			t.Errorf("ReadRange(%d, %d) did not fail", c.off, c.n)
		}
	}
	if got, err := src.ReadRange(60, 4); err != nil || len(got) != 4 {
		t.Errorf("valid tail read failed: %v", err)
	}
	if got, err := src.ReadRange(64, 0); err != nil || len(got) != 0 {
		t.Errorf("empty read at end failed: %v", err)
	}
}
