package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/interp"
)

// TestIngestSeriesProperty is the write path's oracle: whatever a series
// does — tiles that churn, flip back to an older state or change only in
// a sign bit or a NaN payload, compressor parameters that move mid-series,
// the latest snapshot deleted and swept between two POSTs, the store
// closed and reopened — the manifests and blobs the server leaves behind
// are byte for byte those of compressing every tile of every snapshot
// from scratch, and the server compressed exactly the tiles it had to.
func TestIngestSeriesProperty(t *testing.T) {
	t.Run("f64", func(t *testing.T) { ingestSeriesProperty[float64](t, 1) })
	t.Run("f32", func(t *testing.T) { ingestSeriesProperty[float32](t, 2) })
}

// seriesParams is what feeds the compressor besides the values.
type seriesParams struct {
	eb     float64
	interp string
}

// seriesServer is a writable server over a CAS the test keeps hold of, so
// that the server can be replaced without the store forgetting anything.
type seriesServer struct {
	c   *cas.Store
	srv *Server
	ts  *httptest.Server
}

func (s *seriesServer) start(t *testing.T) {
	t.Helper()
	s.srv = New()
	if err := s.srv.EnableIngest(IngestOptions{CAS: s.c}); err != nil {
		t.Fatal(err)
	}
	s.ts = httptest.NewServer(s.srv.Handler())
}

// stop seals the open epoch and takes the server down.
func (s *seriesServer) stop(t *testing.T) {
	t.Helper()
	if err := s.srv.CloseIngest(); err != nil {
		t.Fatal(err)
	}
	s.ts.Close()
}

// tileBox is one tile's box, in the row-major chunk order manifests use.
type tileBox struct{ lo, hi [3]int }

func tileBoxes(shape, chunk grid.Shape) []tileBox {
	var out []tileBox
	for z := 0; z < shape[0]; z += chunk[0] {
		for y := 0; y < shape[1]; y += chunk[1] {
			for x := 0; x < shape[2]; x += chunk[2] {
				out = append(out, tileBox{[3]int{z, y, x},
					[3]int{min(z+chunk[0], shape[0]), min(y+chunk[1], shape[1]), min(x+chunk[2], shape[2])}})
			}
		}
	}
	return out
}

// crop gathers a tile's values, row-major.
func crop[T grid.Scalar](data []T, shape grid.Shape, b tileBox) ([]T, grid.Shape) {
	var out []T
	for z := b.lo[0]; z < b.hi[0]; z++ {
		for y := b.lo[1]; y < b.hi[1]; y++ {
			row := (z*shape[1] + y) * shape[2]
			out = append(out, data[row+b.lo[2]:row+b.hi[2]]...)
		}
	}
	return out, grid.Shape{b.hi[0] - b.lo[0], b.hi[1] - b.lo[1], b.hi[2] - b.lo[2]}
}

// sameBits reports whether two tiles hold the same values bit for bit.
func sameBits[T grid.Scalar](a, b []T) bool {
	return bytes.Equal(grid.Bytes(a), grid.Bytes(b))
}

// leBytes renders values as the little-endian bytes of a POST body or a
// raw region response.
func leBytes[T grid.Scalar](vals []T) []byte {
	var buf bytes.Buffer
	grid.WriteLE(&buf, vals)
	return buf.Bytes()
}

// treeFiles reads every file under dir, keyed by its relative path.
func treeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func ingestSeriesProperty[T grid.Scalar](t *testing.T, seed int64) {
	const field = "rho"
	rng := rand.New(rand.NewSource(seed))
	// Extents that are not multiples of the chunk: edge tiles of their own
	// shapes in every dimension.
	shape, chunk := grid.Shape{20, 12, 12}, grid.Shape{8, 8, 8}
	boxes := tileBoxes(shape, chunk)
	scalar := core.ScalarOf[T]()
	dtype := map[core.ScalarType]string{core.Float64: "f64", core.Float32: "f32"}[scalar]

	data := make([]T, shape.Len())
	for i := range data {
		z, y, x := i/(shape[1]*shape[2]), i/shape[2]%shape[1], i%shape[2]
		data[i] = T(math.Sin(0.31*float64(x))*math.Cos(0.17*float64(y)) + 0.05*float64(z) + 0.01*rng.Float64())
	}
	forTile := func(b tileBox, fn func(i int)) {
		for z := b.lo[0]; z < b.hi[0]; z++ {
			for y := b.lo[1]; y < b.hi[1]; y++ {
				for x := b.lo[2]; x < b.hi[2]; x++ {
					fn((z*shape[1]+y)*shape[2] + x)
				}
			}
		}
	}

	dir, refDir := t.TempDir(), t.TempDir()
	open := func(d string) *cas.Store {
		c, err := cas.Open(d)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	s := &seriesServer{c: open(dir)}
	s.start(t)
	defer func() { s.stop(t) }()
	ref := open(refDir) // every tile of every snapshot compressed, plain Put

	p := seriesParams{eb: 1e-4, interp: "cubic"}
	var (
		history  [][]T // every body posted so far, for tiles that flip back
		last     []T   // the body of the previous POST the store remembers …
		lastP    seriesParams
		lastM    *cas.Manifest // … and what it became; nil once forgotten
		bitState int
		reused   int64
		scratch  = make(map[string][]byte) // tiles compressed from scratch, by input
	)
	const steps = 30
	for k := 0; k < steps; k++ {
		// What happens to the store before this POST.
		switch {
		case k%11 == 6 && len(s.c.Snapshots()) >= 2:
			// The latest snapshot — the one the store remembers — is deleted
			// and swept, in both stores. The CAS object lives on (a new
			// Server only because the old one still serves the deleted name).
			s.stop(t)
			if err := ref.Seal(); err != nil {
				t.Fatal(err)
			}
			latest, _ := s.c.Latest(field)
			for _, c := range []*cas.Store{s.c, ref} {
				if err := c.Delete(field, latest); err != nil {
					t.Fatal(err)
				}
				if _, err := c.GC(); err != nil {
					t.Fatal(err)
				}
			}
			s.start(t)
		case k%13 == 9:
			s.stop(t)
			s.c = open(dir)
			s.start(t)
			lastM = nil
		case k%7 == 4:
			p = seriesParams{
				eb:     []float64{1e-4, 3e-4, 1e-3}[rng.Intn(3)],
				interp: []string{"cubic", "linear"}[rng.Intn(2)],
			}
		}
		// What happens to the field. Every fifth POST repeats its predecessor.
		if k%5 != 2 {
			switch rng.Intn(3) {
			case 0: // churn
				for _, b := range boxes {
					if rng.Intn(4) == 0 {
						off := T(0.02 * (rng.Float64() - 0.5))
						forTile(b, func(i int) { data[i] += off })
					}
				}
			case 1: // tiles flip back to a state they had before
				if len(history) > 0 {
					old := history[rng.Intn(len(history))]
					for _, b := range boxes {
						if rng.Intn(4) == 0 {
							forTile(b, func(i int) { data[i] = old[i] })
						}
					}
				}
			case 2: // one value changes in bits that float equality cannot see
				nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
				states := []T{0, T(math.Copysign(0, -1)), T(nan1), T(nan2)}
				if scalar == core.Float32 {
					states[2], states[3] = T(math.Float32frombits(0x7fc00001)), T(math.Float32frombits(0x7fc00002))
				}
				bitState++
				data[(7*shape[1]+7)*shape[2]+7] = states[bitState%len(states)] // the first tile's last value
			}
		}
		body := append([]T(nil), data...)
		history = append(history, body)

		// What the store may skip: a tile unchanged in every bit under
		// unchanged parameters, whose blob some snapshot still references.
		held := make(map[cas.Score]bool)
		for _, sn := range s.c.Snapshots() {
			m, _ := s.c.Manifest(sn.Field, sn.T)
			for _, tr := range m.Tiles {
				held[tr.Score] = true
			}
		}
		wantReused := 0
		for i, b := range boxes {
			if lastM == nil || p != lastP || !held[lastM.Tiles[i].Score] {
				continue
			}
			now, _ := crop(body, shape, b)
			was, _ := crop(last, shape, b)
			if sameBits(now, was) {
				wantReused++
			}
		}

		// The POST. The series' bound is named only when it moves, so that
		// inheriting it is covered too.
		path := fmt.Sprintf("/v1/datasets/%s/snapshots?interp=%s", field, p.interp)
		_, exists := s.c.Latest(field)
		if !exists {
			path = fmt.Sprintf("/v1/datasets/%s?shape=20x12x12&chunk=8x8x8&dtype=%s&interp=%s", field, dtype, p.interp)
		}
		if !exists || lastM == nil || p.eb != lastM.ErrorBound {
			path += "&eb=" + strconv.FormatFloat(p.eb, 'g', -1, 64)
		}
		raw := leBytes(body)
		before := s.srv.ingestDoc()
		code, doc := (&ingestEnv{ts: s.ts}).post(t, path, raw)
		if code != 201 {
			t.Fatalf("step %d: POST %s: %d %v", k, path, code, doc)
		}
		after := s.srv.ingestDoc()
		tiles := len(boxes)
		if doc["tiles"] != float64(tiles) || doc["new_blobs"].(float64)+doc["dedup_blobs"].(float64) != float64(tiles) {
			t.Fatalf("step %d: acknowledgement %v: new_blobs + dedup_blobs is not the %d tiles", k, doc, tiles)
		}
		gotReused, gotCompressed := after.TilesReused-before.TilesReused, after.TilesCompressed-before.TilesCompressed
		if gotReused != int64(wantReused) || gotCompressed != int64(tiles-wantReused) {
			t.Fatalf("step %d: compressed %d tiles and reused %d, want %d and %d", k, gotCompressed, gotReused, tiles-wantReused, wantReused)
		}
		if after.Bytes-before.Bytes != int64(len(raw)) {
			t.Fatalf("step %d: ingest bytes moved by %d, want %d", k, after.Bytes-before.Bytes, len(raw))
		}
		reused += gotReused

		// The same snapshot from scratch: every tile compressed, plain Put.
		kind := interp.Cubic
		if p.interp == "linear" {
			kind = interp.Linear
		}
		blobs := make([][]byte, tiles)
		for i, b := range boxes {
			vals, sh := crop(body, shape, b)
			// Keyed by everything the compressor is given, in full: the
			// compressor's determinism is pinned elsewhere (golden SHAs), and
			// the race detector makes each call cost tens of milliseconds.
			key := fmt.Sprint(p, sh, string(grid.Bytes(vals)))
			if blobs[i] = scratch[key]; blobs[i] != nil {
				continue
			}
			sub, err := grid.FromSlice(vals, sh)
			if err != nil {
				t.Fatal(err)
			}
			if blobs[i], err = core.Compress(sub, core.Options{ErrorBound: p.eb, Interpolation: kind}); err != nil {
				t.Fatal(err)
			}
			scratch[key] = blobs[i]
		}
		want := &cas.Manifest{Field: field, T: ref.NextT(field), Shape: shape, Chunk: chunk, Scalar: uint8(scalar), ErrorBound: p.eb}
		st, err := ref.Put(want, blobs)
		if err != nil {
			t.Fatal(err)
		}
		if doc["new_blobs"] != float64(st.NewBlobs) || doc["dedup_blobs"] != float64(st.DedupBlobs) || doc["t"] != float64(want.T) {
			t.Fatalf("step %d: acknowledgement %v, packing from scratch gives t%d with %+v", k, doc, want.T, st)
		}
		got, ok := s.c.Manifest(field, want.T)
		if !ok {
			t.Fatalf("step %d: no manifest %s", k, want.Name())
		}
		gotRaw, err1 := cas.EncodeManifest(got)
		wantRaw, err2 := cas.EncodeManifest(want)
		if err1 != nil || err2 != nil || !bytes.Equal(gotRaw, wantRaw) {
			t.Fatalf("step %d: manifest %s differs from the one packed from scratch (%v, %v)", k, want.Name(), err1, err2)
		}
		// No reference may dangle: every tile the manifest names is held,
		// and holds the bytes compressing it gives.
		for i, tr := range got.Tiles {
			b, err := s.c.ReadBlob(tr.Score)
			if err != nil || !bytes.Equal(b, blobs[i]) {
				t.Fatalf("step %d: tile %d of %s: blob differs from compressing it (err %v)", k, i, got.Name(), err)
			}
		}
		last, lastP, lastM = body, p, got
	}
	if reused == 0 {
		t.Fatal("the series never reused a tile: the property was checked on nothing")
	}

	// Sealed, the two directories hold the same files.
	s.stop(t)
	if err := ref.Seal(); err != nil {
		t.Fatal(err)
	}
	s.start(t)
	gotTree, wantTree := treeFiles(t, dir), treeFiles(t, refDir)
	if len(gotTree) != len(wantTree) {
		t.Fatalf("store holds %d files, packing from scratch %d", len(gotTree), len(wantTree))
	}
	for name, b := range wantTree {
		if !bytes.Equal(gotTree[name], b) {
			t.Errorf("file %s differs from packing from scratch", name)
		}
	}
}
