package store

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/interp"
)

// seriesGrid builds the deterministic t-th member of a synthetic time
// series: a smooth base field plus a per-step perturbation confined to
// the tiles listed in churn (tile indices in row-major tiling order), so
// exactly those tiles change between steps — the 5%-churn workload of a
// checkpoint stream.
func seriesGrid(t *testing.T, shape, chunk []int, step int, churn map[int][]int) *grid.Grid[float64] {
	t.Helper()
	data := make([]float64, grid.Shape(shape).Len())
	idx := make([]int, len(shape))
	til, err := newTiling(shape, chunk)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		x, y, z := float64(idx[0]), float64(idx[1]), float64(idx[2])
		data[i] = math.Sin(x/9)*math.Cos(y/7) + z/50
		// Advance the multi-index.
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < shape[d] {
				break
			}
			idx[d] = 0
		}
	}
	g, err := grid.FromSlice(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the churned tiles of every step up to and including this
	// one, so step s differs from s-1 in exactly churn[s].
	for s := 1; s <= step; s++ {
		for _, tile := range churn[s] {
			lo, hi := til.box(tile)
			pt := make([]int, len(lo))
			copy(pt, lo)
			for {
				off := 0
				for d, stride := range grid.Shape(shape).Strides() {
					off += pt[d] * stride
				}
				g.Data()[off] += 0.37 * float64(s)
				d := len(pt) - 1
				for ; d >= 0; d-- {
					pt[d]++
					if pt[d] < hi[d] {
						break
					}
					pt[d] = lo[d]
				}
				if d < 0 {
					break
				}
			}
		}
	}
	return g
}

// packOffline builds the byte-exact offline container a snapshot must
// match: one dataset named like the snapshot, same geometry and options.
func packOffline(t *testing.T, name string, g *grid.Grid[float64], opt WriteOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Add(w, name, g, opt); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotSeriesE2E drives the full online-ingest storage path the
// way a simulation checkpoint stream would: five snapshots with ~5% tile
// churn per step, sealed to a CAS, served back through OpenSnapshot, and
// compared — bit for bit — against fresh offline packs of the same data.
// It pins the ISSUE's acceptance numbers: the whole series stores in
// under 1.3x one snapshot's bytes, and gc after deleting a middle step
// reclaims exactly the blobs that step alone referenced.
func TestSnapshotSeriesE2E(t *testing.T) {
	shape := []int{48, 40, 40}
	chunk := []int{16, 16, 16} // 3*3*3 = 27 tiles; 1-2 churned ≈ 5%
	opt := WriteOptions{ErrorBound: 1e-4, ChunkShape: chunk}
	churn := map[int][]int{1: {3}, 2: {11, 12}, 3: {3}, 4: {26}}

	dir := t.TempDir()
	c, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 5
	var manifests []*cas.Manifest
	for s := 0; s < steps; s++ {
		g := seriesGrid(t, shape, chunk, s, churn)
		m, st, err := PackSnapshot(c, "density", g, opt)
		if err != nil {
			t.Fatalf("t%d: %v", s, err)
		}
		manifests = append(manifests, m)
		if s > 0 {
			// Churn touches len(churn[s]) tiles; dedup must reuse all others.
			// (A churned tile could in principle collide with an older blob,
			// so NewBlobs is at most the churn count.)
			if st.NewBlobs > len(churn[s]) {
				t.Fatalf("t%d added %d blobs, churned only %d tiles", s, st.NewBlobs, len(churn[s]))
			}
			if st.DedupBlobs < 27-len(churn[s]) {
				t.Fatalf("t%d deduplicated only %d of %d unchanged tiles", s, st.DedupBlobs, 27-len(churn[s]))
			}
		}
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}

	// The acceptance bound: five snapshots at 5% churn must cost less
	// than 1.3x one snapshot's bytes.
	single := manifests[0].Bytes()
	total := c.Stats().BlobBytes
	if float64(total) >= 1.3*float64(single) {
		t.Fatalf("series stores %d bytes, above the 1.3x single-snapshot bound (%d bytes)", total, single)
	}

	// Every snapshot must serve region reads bit-identical to a fresh
	// offline pack of the same grid — container image included.
	lo, hi := []int{8, 0, 16}, []int{40, 33, 40}
	for s := 0; s < steps; s++ {
		g := seriesGrid(t, shape, chunk, s, churn)
		name := cas.SnapshotName("density", s)
		offlineBytes := packOffline(t, name, g, opt)

		snap, err := OpenSnapshot(c, "density", s)
		if err != nil {
			t.Fatalf("t%d: %v", s, err)
		}
		offline, err := Open(bytes.NewReader(offlineBytes), int64(len(offlineBytes)))
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range []float64{0, 1e-2} {
			a, err := snap.RetrieveRegion(name, lo, hi, bound)
			if err != nil {
				t.Fatalf("t%d snapshot region: %v", s, err)
			}
			b, err := offline.RetrieveRegion(name, lo, hi, bound)
			if err != nil {
				t.Fatalf("t%d offline region: %v", s, err)
			}
			av, bv := a.Data(), b.Data()
			if len(av) != len(bv) {
				t.Fatalf("t%d bound %g: region sizes differ", s, bound)
			}
			for i := range av {
				if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
					t.Fatalf("t%d bound %g: value %d differs: CAS %v vs offline %v", s, bound, i, av[i], bv[i])
				}
			}
		}
		// The synthetic container image is byte-identical to the offline
		// pack: same preamble, same blobs in chunk order, same index.
		img, err := io.ReadAll(io.NewSectionReader(snap.SectionReader(), 0, snap.Size()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, offlineBytes) {
			t.Fatalf("t%d: synthetic container image differs from the offline pack (%d vs %d bytes)",
				s, len(img), len(offlineBytes))
		}
	}

	// Delete t1 and gc: only blobs referenced by t1 alone may go.
	refs := make(map[cas.Score]int)
	for _, m := range manifests {
		seen := make(map[cas.Score]bool)
		for _, tr := range m.Tiles {
			if !seen[tr.Score] {
				seen[tr.Score] = true
				refs[tr.Score]++
			}
		}
	}
	var wantGone int
	seen := make(map[cas.Score]bool)
	for _, tr := range manifests[1].Tiles {
		if !seen[tr.Score] && refs[tr.Score] == 1 {
			wantGone++
		}
		seen[tr.Score] = true
	}
	if err := c.Delete("density", 1); err != nil {
		t.Fatal(err)
	}
	st, err := c.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.Blobs != wantGone {
		t.Fatalf("gc reclaimed %d blobs, want exactly the %d blobs only t1 referenced", st.Blobs, wantGone)
	}

	// The surviving snapshots still read bit-identically.
	for _, s := range []int{0, 2, 3, 4} {
		g := seriesGrid(t, shape, chunk, s, churn)
		name := cas.SnapshotName("density", s)
		snap, err := OpenSnapshot(c, "density", s)
		if err != nil {
			t.Fatalf("t%d after gc: %v", s, err)
		}
		got, err := snap.RetrieveRegion(name, lo, hi, 0)
		if err != nil {
			t.Fatalf("t%d after gc: %v", s, err)
		}
		offlineBytes := packOffline(t, name, g, opt)
		offline, err := Open(bytes.NewReader(offlineBytes), int64(len(offlineBytes)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := offline.RetrieveRegion(name, lo, hi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f64bytes(got.Data()), f64bytes(want.Data())) {
			t.Fatalf("t%d differs after delete+gc of t1", s)
		}
	}
	if _, err := OpenSnapshot(c, "density", 1); err == nil {
		t.Fatal("deleted snapshot still opens")
	}
}

func f64bytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		bits := math.Float64bits(x)
		for b := 0; b < 8; b++ {
			out[i*8+b] = byte(bits >> (8 * b))
		}
	}
	return out
}

// TestSeriesBound pins the one rule both writers (the POST endpoints and
// `ipcomp snapshot put`) resolve a snapshot's bound by.
func TestSeriesBound(t *testing.T) {
	g := grid.MustNew[float32](grid.Shape{4})
	copy(g.Data(), []float32{-1, 0, 2, 3}) // value range 4
	flat := grid.MustNew[float32](grid.Shape{4})
	prev := &cas.Manifest{ErrorBound: 0.25}
	nan := float32(math.NaN())
	nanFirst := grid.MustNew[float32](grid.Shape{6})
	copy(nanFirst.Data(), []float32{nan, -1, 0, 2, 3, 1})
	nanLater := grid.MustNew[float32](grid.Shape{6})
	copy(nanLater.Data(), []float32{-1, 0, 2, 3, 1, nan})
	inf := float32(math.Inf(1))
	noFinite := grid.MustNew[float32](grid.Shape{4})
	copy(noFinite.Data(), []float32{inf, -inf, nan, inf})
	cases := []struct {
		name    string
		g       *grid.Grid[float32]
		prev    *cas.Manifest
		eb      float64
		rel     bool
		want    float64
		wantErr string
	}{
		{"absolute", g, nil, 1e-3, false, 1e-3, ""},
		{"relative", g, nil, 1e-3, true, 4e-3, ""},
		{"relative on a constant field stays absolute", flat, nil, 1e-3, true, 1e-3, ""},
		{"relative ignores a NaN at index 0", nanFirst, nil, 1e-3, true, 4e-3, ""},
		{"relative ignores a NaN at index 5", nanLater, nil, 1e-3, true, 4e-3, ""},
		{"relative with no finite value stays absolute", noFinite, nil, 1e-3, true, 1e-3, ""},
		{"inherited", g, prev, 0, false, 0.25, ""},
		{"given over inherited", g, prev, 1e-3, true, 4e-3, ""},
		{"inherited is never rescaled", g, prev, 0, true, 0, "rel applies to an eb given with the same snapshot"},
		{"a new series must give one", g, nil, 0, false, 0, "eb is required"},
		{"a new series must give one, rel or not", g, nil, 0, true, 0, "eb is required"},
	}
	for _, tc := range cases {
		got, err := SeriesBound(tc.g, tc.prev, tc.eb, tc.rel)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s: %g, %v; want %g", tc.name, got, err, tc.want)
		}
	}
}

// geometrySeries is the series the geometry tests append to: an f32 field,
// so that inheriting its element type differs from a new field's f64.
var geometrySeries = &cas.Manifest{Field: "density", Shape: []int{16, 24, 24}, Chunk: []int{8, 8, 8}, Scalar: uint8(core.Float32)}

// TestSeriesGeometry pins the one rule both writers (the POST endpoints
// and `ipcomp snapshot put`) resolve a snapshot's shape, tiling and
// element type by: each inherited, agreed with and refused.
func TestSeriesGeometry(t *testing.T) {
	prev := geometrySeries
	cases := []struct {
		name                string
		prev                *cas.Manifest
		shape, chunk, dtype string
		want                grid.Shape
		wantChunk           grid.Shape
		wantScalar          core.ScalarType
		wantErr             string
	}{
		{"new field", nil, "16x24x24", "", "", grid.Shape{16, 24, 24}, nil, core.Float64, ""},
		{"new field, everything given", nil, "16x24x24", "8x8x8", "float32", grid.Shape{16, 24, 24}, grid.Shape{8, 8, 8}, core.Float32, ""},
		{"new field without a shape", nil, "", "8x8x8", "f32", nil, nil, 0, "shape is required"},
		{"bad shape", nil, "32xx32", "", "", nil, nil, 0, "shape: bad extents"},
		{"shape beyond the rank limit", nil, "1x1x1x1x1", "", "", nil, nil, 0, "shape: bad extents"},
		{"bad chunk", nil, "16x24x24", "8x0x8", "", nil, nil, 0, "chunk: bad extents"},
		{"bad dtype", nil, "16x24x24", "", "f16", nil, nil, 0, "dtype must be f32 or f64"},
		{"append inherits everything", prev, "", "", "", grid.Shape{16, 24, 24}, grid.Shape{8, 8, 8}, core.Float32, ""},
		{"append agrees on shape", prev, "16x24x24", "", "", grid.Shape{16, 24, 24}, grid.Shape{8, 8, 8}, core.Float32, ""},
		{"append agrees on chunk", prev, "", "8x8x8", "", grid.Shape{16, 24, 24}, grid.Shape{8, 8, 8}, core.Float32, ""},
		{"append agrees on dtype", prev, "", "", "float32", grid.Shape{16, 24, 24}, grid.Shape{8, 8, 8}, core.Float32, ""},
		{"append refuses another shape", prev, "24x24x16", "", "", nil, nil, 0, "does not match the series shape"},
		{"append refuses another chunk", prev, "", "16x16x16", "", nil, nil, 0, "does not match the series tiling"},
		{"append refuses another dtype", prev, "", "", "f64", nil, nil, 0, "does not match the series dtype"},
		{"append refuses a bad shape", prev, "16x24x", "", "", nil, nil, 0, "shape: bad extents"},
	}
	for _, tc := range cases {
		shape, chunk, scalar, err := SeriesGeometry(tc.prev, tc.shape, tc.chunk, tc.dtype)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !shape.Equal(tc.want) || !chunk.Equal(tc.wantChunk) || scalar != tc.wantScalar {
			t.Errorf("%s: %v, %v, %v, %v; want %v, %v, %v", tc.name, shape, chunk, scalar, err, tc.want, tc.wantChunk, tc.wantScalar)
		}
	}
	// What an append is given is the caller's own: it never aliases the
	// series' manifest.
	shape, chunk, _, _ := SeriesGeometry(prev, "", "", "")
	shape[0], chunk[0] = 0, 0
	if prev.Shape[0] != 16 || prev.Chunk[0] != 8 {
		t.Fatalf("the resolved geometry aliases the manifest: %v, %v", prev.Shape, prev.Chunk)
	}
}

// TestSeriesInterp pins the series rule for the predictor: a new field
// takes the one named, cubic by default; an append to a linear series
// inherits linear, agrees with it or is refused.
func TestSeriesInterp(t *testing.T) {
	c, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shape, chunk := []int{12, 12, 12}, []int{8, 8, 8}
	prev, _, err := PackSnapshot(c, "density", seriesGrid(t, shape, chunk, 0, nil),
		WriteOptions{ErrorBound: 1e-4, ChunkShape: chunk, Interpolation: interp.Linear})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		prev    *cas.Manifest
		given   string
		want    interp.Kind
		wantErr string
	}{
		{"new field", nil, "", interp.Cubic, ""},
		{"new field, linear", nil, "linear", interp.Linear, ""},
		{"new field, bad name", nil, "spline", 0, "interp must be linear or cubic"},
		{"append inherits", prev, "", interp.Linear, ""},
		{"append agrees", prev, "linear", interp.Linear, ""},
		{"append refuses another predictor", prev, "cubic", 0, `interp "cubic" does not match the series predictor linear`},
		{"append refuses a bad name", prev, "spline", 0, "interp must be linear or cubic"},
	}
	for _, tc := range cases {
		got, err := SeriesInterp(c, tc.prev, tc.given)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s: %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

// FuzzSeriesGeometry: over any shape, chunk and dtype text, on a new field
// or an append, the series rule never panics, quotes a bounded share of
// its input, and accepts only a geometry every writer can use: a valid
// shape that round-trips through its String, a scalar that round-trips
// through its, and on an append the series' own.
func FuzzSeriesGeometry(f *testing.F) {
	for _, s := range []string{"", "16x24x24", "8x8x8", "32xx32", "0x4", "1x1x1x1x1", "9223372036854775807x2", "+16x024x24"} {
		f.Add(s, "", "", false)
		f.Add(s, s, "f32", true)
	}
	f.Add("16x24x24", "", "float64", true)
	f.Add("", "", "f16", false)
	f.Fuzz(func(t *testing.T, shape, chunk, dtype string, appending bool) {
		var prev *cas.Manifest
		if appending {
			prev = geometrySeries
		}
		s, c, scalar, err := SeriesGeometry(prev, shape, chunk, dtype)
		if err != nil {
			if n := len(err.Error()); n > 1024 {
				t.Fatalf("a %d-byte refusal of %d bytes of input", n, len(shape)+len(chunk)+len(dtype))
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted shape %v: %v", s, err)
		}
		if back, err := grid.ParseShape(s.String()); err != nil || !back.Equal(s) {
			t.Fatalf("shape %v reads back as %v, %v", s, back, err)
		}
		if c != nil {
			if back, err := grid.ParseShape(c.String()); err != nil || !back.Equal(c) {
				t.Fatalf("chunk %v reads back as %v, %v", c, back, err)
			}
		}
		if back, err := core.ParseScalar(scalar.String()); err != nil || back != scalar {
			t.Fatalf("scalar %v reads back as %v, %v", scalar, back, err)
		}
		if appending && (!s.Equal(prev.Shape) || !c.Equal(prev.Chunk) || scalar != core.ScalarType(prev.Scalar)) {
			t.Fatalf("append resolved to %v, %v, %v; the series is %v, %v, %v",
				s, c, scalar, prev.Shape, prev.Chunk, core.ScalarType(prev.Scalar))
		}
	})
}

// TestSeriesBoundRefusesInfiniteRange: a relative bound over a field that
// holds ±Inf beside finite values is refused with an error that says so,
// not with one about the infinite bound it would derive.
func TestSeriesBoundRefusesInfiniteRange(t *testing.T) {
	for _, inf := range []float32{float32(math.Inf(1)), float32(math.Inf(-1))} {
		g := grid.MustNew[float32](grid.Shape{4})
		copy(g.Data(), []float32{-1, inf, 2, 3})
		_, err := SeriesBound(g, nil, 1e-3, true)
		if err == nil || !strings.Contains(err.Error(), "holds an infinity") {
			t.Errorf("%v: err %v, want a refusal that names the field's infinity", inf, err)
		}
	}
}
