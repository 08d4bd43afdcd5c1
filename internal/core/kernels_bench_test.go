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
// retrieval — fetch for every level, no merge, no reconstruction — over
// the planes of realPlaneArchives. MB/s are decoded plane bytes; allocs/op
// pin that a raise costs no allocation per plane, and its pooled backing
// none.
func BenchmarkDecodeRealPlanes(b *testing.B) {
	for _, c := range realPlaneArchives(b) {
		a := c.a
		b.Run(c.name, func(b *testing.B) {
			planeBytes := a.h.planeSlots()
			full := a.fullPlan()
			b.SetBytes(int64(planeBytes))
			b.ReportAllocs()
			for b.Loop() {
				r := &Result{arch: a, plan: Plan{Keep: make([]int, a.h.levels)}}
				planes := GetScratch[byte](planeBytes)
				if _, err := r.fetch(full, planes, nil); err != nil {
					b.Fatal(err)
				}
				PutScratch(planes)
			}
		})
	}
}

// BenchmarkMergeRealPlanes measures the other half, the block merge every
// rebuild runs (applyShard's blockMerge), on the finest level of
// realPlaneArchives — seven eighths of the values and the most planes —
// merged from its decoded planes a block of mergeBlockValues indices at a
// time, without the reconstruction that consumes each block: at the planes
// a retrieval at 1e3·eb loads ("first", the first rung of the codec_field
// workload), and at all of them ("all", a retrieval or refinement to full
// fidelity). It reports ns per value of the level.
func BenchmarkMergeRealPlanes(b *testing.B) {
	for _, c := range realPlaneArchives(b) {
		a := c.a
		m := a.h.metaOf(1)
		first, err := a.PlanErrorBoundMode(1e3 * a.h.eb)
		if err != nil {
			b.Fatal(err)
		}
		planes := a.h.levelSlots(fetchAll(b, &Result{arch: a, plan: Plan{Keep: make([]int, a.h.levels)}}, a.fullPlan()), 1)
		for _, s := range []struct {
			name string
			keep int
		}{{"first", a.keepOf(first, 1)}, {"all", m.usedPlanes}} {
			b.Run(c.name+"/"+s.name, func(b *testing.B) {
				var bm blockMerge
				b.ReportAllocs()
				for b.Loop() {
					for base := 0; base < m.count; base += mergeBlockValues {
						bm.merge(planes, s.keep, m, base, min(base+mergeBlockValues, m.count))
					}
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
		planes := fetchAll(t, r, a.fullPlan())
		deflated := 0
		for l := 1; l <= a.h.levels; l++ {
			m := a.h.metaOf(l)
			got := a.h.levelSlots(planes, l)
			for p := 0; p < m.usedPlanes; p++ {
				plane := m.plane(got, p)
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
// rebuild, the block merge of every level's planes and Algorithm 1's
// dequantize-and-interpolate over every level from the anchors down — on
// realPlaneArchives at full fidelity, from planes decoded once, as a
// refinement rebuilds. It reports ns per value of the field.
func BenchmarkRebuild(b *testing.B) {
	for _, c := range realPlaneArchives(b) {
		a := c.a
		b.Run(c.name, func(b *testing.B) {
			full := a.fullPlan()
			planes := fetchAll(b, &Result{arch: a, plan: Plan{Keep: make([]int, a.h.levels)}}, full)
			data := make([]float32, a.h.shape.Len())
			b.ReportAllocs()
			for b.Loop() {
				rebuild(a, data, planes, full.Keep, a.h.levels)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/value")
		})
	}
}

// BenchmarkRetrieveAll measures a full-fidelity retrieval end to end — the
// planes read and entropy-decoded, the value backing taken while they are,
// every level merged and rebuilt — on realPlaneFields at both widths.
// MB/s are bytes of the answer; B/op over them is what a retrieval
// allocates for each byte it returns.
func BenchmarkRetrieveAll(b *testing.B) {
	for _, c := range realPlaneFields(b) {
		for _, width := range []string{"f32", "f64"} {
			var blob []byte
			var err error
			if width == "f32" {
				blob, err = Compress(c.g, Options{ErrorBound: c.eb, Interpolation: interp.Cubic})
			} else {
				g, ferr := grid.FromSlice(grid.WidenSlice(c.g.Data()), c.g.Shape())
				if ferr != nil {
					b.Fatal(ferr)
				}
				blob, err = Compress(g, Options{ErrorBound: c.eb, Interpolation: interp.Cubic})
			}
			if err != nil {
				b.Fatal(err)
			}
			a, err := NewArchive(blob)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(c.name+"/"+width, func(b *testing.B) {
				b.SetBytes(int64(c.g.Len() * a.h.scalar.Bytes()))
				b.ReportAllocs()
				for b.Loop() {
					if _, err := a.RetrieveAll(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
