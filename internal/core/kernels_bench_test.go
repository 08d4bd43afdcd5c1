package core

import (
	"bytes"
	"compress/flate"
	"testing"

	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/quant"
)

// BenchmarkQuantizeLevel measures the fused predict+quantize pass — the
// dominant stage of Compress — over every level of realPlaneFields, coarse
// to fine from a fresh copy of the field, as Compress runs it. It reports
// ns per value of the field.
func BenchmarkQuantizeLevel(b *testing.B) {
	for _, c := range realPlaneFields(b) {
		b.Run(c.name, func(b *testing.B) {
			dec, err := interp.NewDecomposition(c.g.Shape())
			if err != nil {
				b.Fatal(err)
			}
			L := dec.NumLevels()
			ks := make([][]int32, L+1)
			for l := 1; l <= L; l++ {
				ks[l] = make([]int32, dec.LevelCount(l))
			}
			work := make([]float32, c.g.Len())
			enc := newLevelQuantizer(work, quant.New(c.eb))
			b.ReportAllocs()
			for b.Loop() {
				copy(work, c.g.Data())
				for l := L; l >= 1; l-- {
					var m levelMeta
					enc.quantizeLevel(dec, l, interp.Cubic, ks[l], &m)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(work)), "ns/value")
		})
	}
}

type namedArchive struct {
	name string
	a    *Archive
}

type namedField struct {
	name string
	g    *grid.Grid[float32]
	eb   float64
}

// realPlaneFields is Density as float32, once as the 128³ field and once
// as that field's corner 32³ tile, the unit a chunked store decodes, each
// with the absolute bound 1e-5 of the field's range.
func realPlaneFields(tb testing.TB) []namedField {
	field, err := datagen.GenerateShape("Density", grid.Shape{128, 128, 128})
	if err != nil {
		tb.Fatal(err)
	}
	eb := 1e-5 * field.ValueRange()
	tile := grid.MustNew[float32](grid.Shape{32, 32, 32})
	for z := 0; z < 32; z++ {
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				tile.Set(float32(field.At(z, y, x)), z, y, x)
			}
		}
	}
	return []namedField{{"tile32", tile, eb}, {"field128", grid.Narrow(field), eb}}
}

// realPlaneArchives compresses realPlaneFields.
func realPlaneArchives(tb testing.TB) []namedArchive {
	var out []namedArchive
	for _, c := range realPlaneFields(tb) {
		blob, err := Compress(c.g, Options{ErrorBound: c.eb, Interpolation: interp.Cubic})
		if err != nil {
			tb.Fatal(err)
		}
		a, err := NewArchive(blob)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, namedArchive{c.name, a})
	}
	return out
}

// BenchmarkDecodeRealPlanes measures the entropy-decode half of a full
// retrieval — fetchPlanes for every level, no merge, no reconstruction —
// over the planes of realPlaneArchives. MB/s are decoded plane bytes;
// allocs/op pin that a raise costs no allocation per plane, and its
// pooled backing none.
func BenchmarkDecodeRealPlanes(b *testing.B) {
	for _, c := range realPlaneArchives(b) {
		a := c.a
		b.Run(c.name, func(b *testing.B) {
			var planeBytes int64
			for l := 1; l <= a.h.levels; l++ {
				m := a.h.metaOf(l)
				planeBytes += int64(m.usedPlanes * ((m.count + 7) / 8))
			}
			b.SetBytes(planeBytes)
			b.ReportAllocs()
			for b.Loop() {
				r := &Result{arch: a, plan: Plan{Keep: make([]int, a.h.levels)}}
				for l := 1; l <= a.h.levels; l++ {
					want := a.h.metaOf(l).usedPlanes
					got := byteScratch.Get(r.raiseBytes(l, want))
					if err := r.fetchPlanes(l, want, got); err != nil {
						b.Fatal(err)
					}
					byteScratch.Put(got)
				}
			}
		})
	}
}

// BenchmarkMergeRealPlanes measures the other half, mergePlanes, on the
// finest level of realPlaneArchives — seven eighths of the values and the
// most planes: a first raise to half the level's planes, as a retrieval
// makes, and a later one from there to all of them, as a refinement does.
// It reports ns per value of the level. The merge reads its planes without
// changing them and does the same work whatever indices it raises, so each
// iteration only rewinds the plan.
func BenchmarkMergeRealPlanes(b *testing.B) {
	for _, c := range realPlaneArchives(b) {
		a := c.a
		m := a.h.metaOf(1)
		half := m.usedPlanes / 2
		for _, s := range []struct {
			name       string
			have, want int
		}{{"first", 0, half}, {"later", half, m.usedPlanes}} {
			b.Run(c.name+"/"+s.name, func(b *testing.B) {
				r := &Result{arch: a, plan: Plan{Keep: make([]int, a.h.levels)}, trunc: make([][]int32, a.h.levels)}
				r.trunc[0] = make([]int32, m.count)
				if err := r.loadPlanes(1, s.have); err != nil {
					b.Fatal(err)
				}
				got := make([]byte, r.raiseBytes(1, s.want))
				if err := r.fetchPlanes(1, s.want, got); err != nil {
					b.Fatal(err)
				}
				for b.Loop() {
					r.plan.Keep[0] = s.have
					r.mergePlanes(1, s.want, got)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.count), "ns/value")
			})
		}
	}
}

// TestDeflateMatchesFlateOnRealPlanes holds codec's DEFLATE encoder to
// compress/flate's Writer at level 1 on every plane of realPlaneArchives,
// and wants each plane to re-encode to the block the archive stores.
func TestDeflateMatchesFlateOnRealPlanes(t *testing.T) {
	for _, c := range realPlaneArchives(t) {
		a := c.a
		r := &Result{arch: a, plan: Plan{Keep: make([]int, a.h.levels)}}
		deflated := 0
		for l := 1; l <= a.h.levels; l++ {
			m := a.h.metaOf(l)
			got := make([]byte, r.raiseBytes(l, m.usedPlanes))
			if err := r.fetchPlanes(l, m.usedPlanes, got); err != nil {
				t.Fatal(err)
			}
			planeBytes := (m.count + 7) / 8
			for p := 0; p < m.usedPlanes; p++ {
				plane := got[p*planeBytes : (p+1)*planeBytes]
				var want bytes.Buffer
				w, _ := flate.NewWriter(&want, 1)
				w.Write(plane)
				w.Close()
				if !bytes.Equal(codec.Deflate(plane), want.Bytes()) {
					t.Fatalf("%s level %d plane %d: Deflate differs from compress/flate", c.name, l, p)
				}
				stored, err := a.src.ReadRange(a.h.blockOff[l-1][p], int(m.blockSizes[p]))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(codec.EncodeBlock(plane), stored) {
					t.Fatalf("%s level %d plane %d: EncodeBlock differs from the stored block", c.name, l, p)
				}
				if stored[0] == 1 { // tag 1: DEFLATE
					deflated++
				}
			}
		}
		if deflated == 0 {
			t.Fatalf("%s: no plane is stored as DEFLATE", c.name)
		}
	}
}

// BenchmarkRebuild measures the reconstruction half of a retrieval —
// rebuild, Algorithm 1's dequantize-and-interpolate over every level from
// the anchors down — on realPlaneArchives, from indices decoded once. It
// reports ns per value of the field.
func BenchmarkRebuild(b *testing.B) {
	for _, c := range realPlaneArchives(b) {
		a := c.a
		b.Run(c.name, func(b *testing.B) {
			r, err := a.RetrieveAll()
			if err != nil {
				b.Fatal(err)
			}
			data := make([]float32, a.h.shape.Len())
			b.ReportAllocs()
			for b.Loop() {
				rebuild(a, data, r.trunc, a.h.levels)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/value")
		})
	}
}
