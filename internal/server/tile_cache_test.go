package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"testing"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/store"
)

// TestSharedTileCacheProperty is the read path's oracle for the cache all
// snapshots share. A series is written through HTTP — tiles churn and flip
// back to older states, so blobs are shared by neighbours and by snapshots
// far apart — and read back through it: random snapshots, random boxes,
// random bounds, tighter after looser on tiles several snapshots reference.
// Every response must be, bit for bit and header for header, what a
// freshly opened store.OpenSnapshot with a cache of its own returns once
// each tile of the box has been taken through the bounds its *blob* was
// read at before, through whichever snapshot; and every blob is decoded
// once however many snapshots it was read through. Twice a snapshot that
// was the first to decode a tile is deleted and swept, and the tile is
// refined through a snapshot that still references it.
//
// Mutation check (recorded in CHANGES.md, PR 14): keying snapshot tiles by
// (field, chunk) without the score fails this test at the first read of a
// changed tile.
func TestSharedTileCacheProperty(t *testing.T) {
	t.Run("f64", func(t *testing.T) { sharedTileCacheProperty[float64](t, 3) })
	t.Run("f32", func(t *testing.T) { sharedTileCacheProperty[float32](t, 4) })
}

func sharedTileCacheProperty[T grid.Scalar](t *testing.T, seed int64) {
	const field = "rho"
	const eb = 1e-5
	rng := rand.New(rand.NewSource(seed))
	// Eight full tiles, big enough for their finest level to be bitplane-
	// progressive (a tighter bound is a real refine), and four thin edge
	// tiles that are not.
	shape, chunk := grid.Shape{48, 32, 36}, grid.Shape{24, 16, 16}
	boxes := tileBoxes(shape, chunk)
	scalar := core.ScalarOf[T]()
	dtype := map[core.ScalarType]string{core.Float64: "f64", core.Float32: "f32"}[scalar]
	ladder := []float64{eb, 8 * eb, 64 * eb, 512 * eb, 4096 * eb}

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

	c, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := &seriesServer{c: c}
	s.start(t)
	defer func() { s.stop(t) }()

	var (
		history   [][]T                           // every body posted, for tiles that flip back
		manifests = make(map[int]*cas.Manifest)   // the snapshots that exist
		bounds    = make(map[cas.Score][]float64) // the bounds each blob was read at, in order
		firstBy   = make(map[cas.Score]int)       // the snapshot each blob was first read through
		crossed   int                             // tile reads through another snapshot than the first
		refines   int
		swept     int
	)

	// read fetches [lo, hi) of snapshot ts at bound through the server and
	// checks it against the model.
	read := func(ts int, lo, hi [3]int, bound float64) {
		t.Helper()
		m := manifests[ts]
		url := fmt.Sprintf("%s/v1/datasets/%s/region?lo=%d,%d,%d&hi=%d,%d,%d&bound=%s", s.ts.URL, m.Name(),
			lo[0], lo[1], lo[2], hi[0], hi[1], hi[2], strconv.FormatFloat(bound, 'g', -1, 64))
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d %v %s", url, resp.StatusCode, err, got)
		}

		ref, err := store.OpenSnapshot(c, field, ts)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range boxes {
			if b.hi[0] <= lo[0] || b.lo[0] >= hi[0] || b.hi[1] <= lo[1] || b.lo[1] >= hi[1] || b.hi[2] <= lo[2] || b.lo[2] >= hi[2] {
				continue
			}
			score := m.Tiles[i].Score
			for _, was := range bounds[score] {
				if _, err := ref.RetrieveRegion(m.Name(), b.lo[:], b.hi[:], was); err != nil {
					t.Fatal(err)
				}
			}
			if by, seen := firstBy[score]; !seen {
				firstBy[score] = ts
			} else if by != ts {
				crossed++
			}
			bounds[score] = append(bounds[score], bound)
		}
		before := ref.Stats()
		want, err := ref.RetrieveRegion(m.Name(), lo[:], hi[:], bound)
		if err != nil {
			t.Fatal(err)
		}
		refines += int(ref.Stats().TileRefines - before.TileRefines)
		wantRaw := leBytes(want.Data())
		if scalar == core.Float32 {
			wantRaw = leBytes(want.DataFloat32())
		}
		if !bytes.Equal(got, wantRaw) {
			t.Fatalf("%s [%v,%v) at %g differs from a private-cache store taken through the same bounds", m.Name(), lo, hi, bound)
		}
		if g := resp.Header.Get("X-Ipcomp-Guaranteed-Error"); g != formatFloat(want.GuaranteedError()) {
			t.Fatalf("%s [%v,%v) at %g: guaranteed error %s, the private-cache store says %s", m.Name(), lo, hi, bound, g, formatFloat(want.GuaranteedError()))
		}
		if l := resp.Header.Get("X-Ipcomp-Loaded-Bytes"); l != strconv.FormatInt(want.LoadedBytes(), 10) {
			t.Fatalf("%s [%v,%v) at %g: loaded %s bytes, the private-cache store %d", m.Name(), lo, hi, bound, l, want.LoadedBytes())
		}
		if st := s.srv.statsDoc(); st.TileDecodes != int64(len(bounds)) {
			t.Fatalf("after reading %s: %d decodes for %d distinct blobs read", m.Name(), st.TileDecodes, len(bounds))
		}
	}

	// sweep deletes snapshot a — the first to decode tile i, which snapshot
	// b still references — and refines that tile through b.
	sweep := func(a, b, i int) {
		t.Helper()
		score := manifests[b].Tiles[i].Score
		if bounds[score] == nil {
			read(a, boxes[i].lo, boxes[i].hi, ladder[len(ladder)-1])
		}
		if firstBy[score] != a || manifests[a].Tiles[i].Score != score {
			t.Fatalf("tile %d of t%d was first read through t%d, not t%d", i, b, firstBy[score], a)
		}
		if err := s.srv.ingest.seal(); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(field, a); err != nil {
			t.Fatal(err)
		}
		if _, err := c.GC(); err != nil {
			t.Fatal(err)
		}
		delete(manifests, a)
		was := refines
		read(b, boxes[i].lo, boxes[i].hi, eb)
		if refines == was {
			t.Fatalf("tile %d was not refined through t%d after t%d was swept", i, b, a)
		}
		swept++
	}
	// Two sweeps: tile 0 (a full one) gets a blob of its own in the snapshot
	// before, which is read at anything but the tightest bound, and keeps it
	// in the sweep's snapshot.
	sweepAt := map[int]bool{9: true, 21: true}

	const steps = 30
	for k := 0; k < steps; k++ {
		if k > 0 {
			old := history[rng.Intn(len(history))]
			flip := rng.Intn(2) == 1
			for i, b := range boxes {
				switch {
				case i == 0 && sweepAt[k]:
				case i == 0 && sweepAt[k+1], !flip && rng.Intn(4) == 0: // churn
					off := T(0.02 * (rng.Float64() - 0.5))
					forTile(b, func(i int) { data[i] += off })
				case flip && rng.Intn(3) == 0: // back to a state the tile had before
					forTile(b, func(i int) { data[i] = old[i] })
				}
			}
		}
		body := append([]T(nil), data...)
		history = append(history, body)
		raw := leBytes(body)
		path := fmt.Sprintf("/v1/datasets/%s/snapshots", field)
		if k == 0 {
			path = fmt.Sprintf("/v1/datasets/%s?shape=48x32x36&chunk=24x16x16&dtype=%s&eb=%g", field, dtype, eb)
		}
		if code, doc := (&ingestEnv{ts: s.ts}).post(t, path, raw); code != 201 {
			t.Fatalf("step %d: POST %s: %d %v", k, path, code, doc)
		}
		m, ok := c.Manifest(field, k)
		if !ok {
			t.Fatalf("step %d: no manifest", k)
		}
		manifests[k] = m

		if sweepAt[k] {
			sweep(k-1, k, 0)
		}

		// Reads of what exists: the snapshot just written first.
		var have []int
		for ts := range manifests {
			have = append(have, ts)
		}
		sort.Ints(have)
		from := ladder
		if sweepAt[k+1] {
			from = ladder[1:]
		}
		for n := 0; n < 4; n++ {
			ts := k
			if n > 0 {
				ts = have[rng.Intn(len(have))]
			}
			var lo, hi [3]int
			for d := range lo {
				lo[d] = rng.Intn(shape[d])
				hi[d] = lo[d] + 1 + rng.Intn(shape[d]-lo[d])
			}
			read(ts, lo, hi, from[rng.Intn(len(from))])
		}
	}
	t.Logf("%d blobs read, %d tile reads through a second snapshot, %d in-place refines, %d sweeps", len(bounds), crossed, refines, swept)
	if swept != 2 {
		t.Fatalf("%d of the 2 delete-and-refine sweeps found a tile to run on", swept)
	}
	if refines < 10 {
		t.Fatalf("only %d in-place refines in the whole series: tighter-after-looser was checked on next to nothing", refines)
	}
	if crossed == 0 {
		t.Fatal("no blob was read through a second snapshot: sharing was checked on nothing")
	}
}
