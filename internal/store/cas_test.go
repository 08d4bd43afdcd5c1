package store

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/grid"
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
