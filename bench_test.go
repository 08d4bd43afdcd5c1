// Package repro's root benchmarks regenerate each table and figure of the
// IPComp paper's evaluation as testing.B benchmarks, at a reduced scale so
// `go test -bench=.` completes in minutes. For full-size figure runs, use
// cmd/ipbench (see EXPERIMENTS.md for a reference run and the mapping to
// the paper's numbers).
//
//	BenchmarkTable2PrefixEntropy — Table 2
//	BenchmarkFig5Compress*       — Figure 5 (compression ratio; ratios are
//	                               reported via b.ReportMetric)
//	BenchmarkFig6Retrieval       — Figure 6 (error-bound mode loading)
//	BenchmarkFig7BitrateMode     — Figure 7 (fixed-rate mode error)
//	BenchmarkFig8*               — Figure 8 (speed)
//	BenchmarkFig9ResidualCount   — Figure 9 (residual scaling)
//	BenchmarkFig10PSNR           — Figure 10 (PSNR vs bitrate)
//	BenchmarkFig11PostAnalysis   — Figure 11 (derived quantities)
//	BenchmarkAblation*           — ablations of the design choices each one names
package repro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/baselines/harness"
	"repro/internal/baselines/lossy"
	"repro/internal/baselines/mgard"
	"repro/internal/baselines/residual"
	"repro/internal/baselines/sperr"
	"repro/internal/baselines/sz3"
	"repro/internal/baselines/zfp"
	"repro/internal/bitplane"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/metrics"
	"repro/ipcomp"
)

// benchDivisor keeps benchmark datasets at 1/8 of the paper's linear size.
const benchDivisor = 8

func benchField(b *testing.B, name string) *grid.Grid[float64] {
	b.Helper()
	ds, err := datagen.Generate(name, benchDivisor)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Grid
}

// ---- Table 2 ----

func BenchmarkTable2PrefixEntropy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.Table2(harness.Config{Divisor: benchDivisor})
		if err != nil {
			b.Fatal(err)
		}
		_ = t
	}
}

// ---- Figure 5: compression ratio per compressor ----

func benchCompressRatio(b *testing.B, mk func() harness.Progressive, relEB float64) {
	g := benchField(b, "Density")
	eb := relEB * g.ValueRange()
	raw := int64(g.Len() * 8)
	var size int64
	b.SetBytes(raw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := mk()
		var err error
		size, err = p.Compress(g, eb)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(metrics.CompressionRatio(raw, size), "CR")
}

func BenchmarkFig5CompressIPComp(b *testing.B) {
	benchCompressRatio(b, harness.NewIPComp, 1e-6)
}

func BenchmarkFig5CompressSZ3M(b *testing.B) {
	benchCompressRatio(b, func() harness.Progressive { return harness.NewSZ3M(9) }, 1e-6)
}

func BenchmarkFig5CompressSZ3R(b *testing.B) {
	benchCompressRatio(b, func() harness.Progressive { return harness.NewSZ3R(9) }, 1e-6)
}

func BenchmarkFig5CompressZFPR(b *testing.B) {
	benchCompressRatio(b, func() harness.Progressive { return harness.NewZFPR(9) }, 1e-6)
}

func BenchmarkFig5CompressPMGARD(b *testing.B) {
	benchCompressRatio(b, harness.NewPMGARD, 1e-6)
}

func BenchmarkFig5CompressIPCompHighPrecision(b *testing.B) {
	benchCompressRatio(b, harness.NewIPComp, 1e-9)
}

// ---- Figure 6: error-bound mode retrieval ----

func BenchmarkFig6Retrieval(b *testing.B) {
	g := benchField(b, "Density")
	eb := 1e-9 * g.ValueRange()
	ip := harness.NewIPComp()
	if _, err := ip.Compress(g, eb); err != nil {
		b.Fatal(err)
	}
	bounds := []float64{eb * 65536, eb * 256, eb}
	b.ResetTimer()
	var loaded int64
	for i := 0; i < b.N; i++ {
		for _, bound := range bounds {
			_, l, _, err := ip.RetrieveErrorBound(bound)
			if err != nil {
				b.Fatal(err)
			}
			loaded = l
		}
	}
	b.ReportMetric(metrics.Bitrate(loaded, g.Len()), "bits/val@eb")
}

// ---- Figure 7: bitrate mode ----

func BenchmarkFig7BitrateMode(b *testing.B) {
	g := benchField(b, "Density")
	eb := 1e-9 * g.ValueRange()
	ip := harness.NewIPComp()
	if _, err := ip.Compress(g, eb); err != nil {
		b.Fatal(err)
	}
	budget := int64(2 * float64(g.Len()) / 8) // 2 bits/value
	b.ResetTimer()
	var errV float64
	for i := 0; i < b.N; i++ {
		data, _, err := ip.RetrieveBitrate(budget)
		if err != nil {
			b.Fatal(err)
		}
		errV = metrics.MaxAbsError(g.Data(), data)
	}
	b.ReportMetric(errV, "Linf@2bits")
}

// ---- Figure 8: speed ----

func benchCodecCompress(b *testing.B, c lossy.Codec, name string) {
	g := benchField(b, name)
	eb := 1e-9 * g.ValueRange()
	b.SetBytes(int64(g.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(g, eb); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCodecDecompress(b *testing.B, c lossy.Codec, name string) {
	g := benchField(b, name)
	eb := 1e-9 * g.ValueRange()
	blob, err := c.Compress(g, eb)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(g.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(blob, g.Shape()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8CompressSZ3(b *testing.B)   { benchCodecCompress(b, sz3.New(), "Density") }
func BenchmarkFig8CompressZFP(b *testing.B)   { benchCodecCompress(b, zfp.New(), "Density") }
func BenchmarkFig8CompressMGARD(b *testing.B) { benchCodecCompress(b, mgard.New(), "Density") }
func BenchmarkFig8CompressSPERR(b *testing.B) { benchCodecCompress(b, sperr.New(), "Density") }

// BenchmarkFig8CompressIPComp compresses the Density field on default
// options, the configuration every archive is written with.
func BenchmarkFig8CompressIPComp(b *testing.B) {
	g := benchField(b, "Density")
	eb := 1e-9 * g.ValueRange()
	b.SetBytes(int64(g.Len() * 8))
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		blob, err := core.Compress(g, core.Options{ErrorBound: eb, Interpolation: interp.Cubic})
		if err != nil {
			b.Fatal(err)
		}
		size = len(blob)
	}
	b.ReportMetric(float64(g.Len()*8)/float64(size), "ratio")
}

func BenchmarkFig8DecompressSZ3(b *testing.B) { benchCodecDecompress(b, sz3.New(), "Density") }
func BenchmarkFig8DecompressZFP(b *testing.B) { benchCodecDecompress(b, zfp.New(), "Density") }

func BenchmarkFig8DecompressIPComp(b *testing.B) {
	g := benchField(b, "Density")
	eb := 1e-9 * g.ValueRange()
	blob, err := core.Compress(g, core.Options{ErrorBound: eb, Interpolation: interp.Cubic})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(g.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- scalar-width comparison: native float32 vs float64 ----

// scalarBenchGrids returns the same 128³ field at both widths with one
// shared error bound. The shape is deliberately larger than the figure
// benchmarks' 1/8-scale fields: at 2M elements the work arrays no longer
// fit in cache, so the float32 engine's halved memory traffic is actually
// measurable. The bound is 1e-4 of the range — comfortably above float32's
// ~1e-7 representational precision, where a width comparison is fair
// (near the precision floor float32 pays for outlier escapes that float64
// does not).
func scalarBenchGrids(b *testing.B) (*grid.Grid[float64], *grid.Grid[float32], float64) {
	b.Helper()
	g64, err := datagen.GenerateShape("Density", grid.Shape{128, 128, 128})
	if err != nil {
		b.Fatal(err)
	}
	return g64, grid.Narrow(g64), 1e-4 * g64.ValueRange()
}

// BenchmarkScalarCompress compresses the same grid shape at both scalar
// widths: the float32 kernels must win on ns/op (native 4-byte arithmetic,
// half the bandwidth through every pass). B/op ties by construction — the
// output blob dominates compression's allocation and its size is
// width-independent.
func BenchmarkScalarCompress(b *testing.B) {
	g64, g32, eb := scalarBenchGrids(b)
	b.Run("f64", func(b *testing.B) {
		b.SetBytes(int64(g64.Len() * 8))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Compress(g64, core.Options{ErrorBound: eb, Interpolation: interp.Cubic}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("f32", func(b *testing.B) {
		b.SetBytes(int64(g32.Len() * 4))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Compress(g32, core.Options{ErrorBound: eb, Interpolation: interp.Cubic}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScalarDecompress mirrors BenchmarkScalarCompress for the
// full-fidelity retrieval path; float32 must win on both ns/op and B/op
// (the reconstruction array is half the bytes).
func BenchmarkScalarDecompress(b *testing.B) {
	g64, g32, eb := scalarBenchGrids(b)
	blob64, err := core.Compress(g64, core.Options{ErrorBound: eb, Interpolation: interp.Cubic})
	if err != nil {
		b.Fatal(err)
	}
	blob32, err := core.Compress(g32, core.Options{ErrorBound: eb, Interpolation: interp.Cubic})
	if err != nil {
		b.Fatal(err)
	}
	run := func(blob []byte, elemBytes int) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(g64.Len() * elemBytes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := core.NewArchive(blob)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.RetrieveAll(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("f64", run(blob64, 8))
	b.Run("f32", run(blob32, 4))
}

// BenchmarkScalarRoundTrip is the headline same-shape comparison: one
// compress plus one full-fidelity decompress per iteration. Native float32
// beats float64 on both time per operation and bytes allocated.
func BenchmarkScalarRoundTrip(b *testing.B) {
	g64, g32, eb := scalarBenchGrids(b)
	b.Run("f64", func(b *testing.B) {
		b.SetBytes(int64(g64.Len() * 8))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blob, err := core.Compress(g64, core.Options{ErrorBound: eb, Interpolation: interp.Cubic})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Decompress(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("f32", func(b *testing.B) {
		b.SetBytes(int64(g32.Len() * 4))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blob, err := core.Compress(g32, core.Options{ErrorBound: eb, Interpolation: interp.Cubic})
			if err != nil {
				b.Fatal(err)
			}
			a, err := core.NewArchive(blob)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := a.RetrieveAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Figure 9: residual count scaling ----

func BenchmarkFig9ResidualCount(b *testing.B) {
	g := benchField(b, "Density")
	eb := 1e-9 * g.ValueRange()
	for _, rungs := range []int{1, 5, 9} {
		b.Run(fmt.Sprintf("rungs=%d", rungs), func(b *testing.B) {
			c := sz3.New()
			b.SetBytes(int64(g.Len() * 8))
			for i := 0; i < b.N; i++ {
				if _, err := residual.CompressResidual(c, g, residual.Ladder(eb, rungs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 10: PSNR at fixed bitrate ----

func BenchmarkFig10PSNR(b *testing.B) {
	g := benchField(b, "Pressure")
	eb := 1e-9 * g.ValueRange()
	ip := harness.NewIPComp()
	if _, err := ip.Compress(g, eb); err != nil {
		b.Fatal(err)
	}
	budget := int64(2 * float64(g.Len()) / 8)
	b.ResetTimer()
	var psnr float64
	for i := 0; i < b.N; i++ {
		data, _, err := ip.RetrieveBitrate(budget)
		if err != nil {
			b.Fatal(err)
		}
		psnr = metrics.PSNR(g.Data(), data)
	}
	b.ReportMetric(psnr, "PSNR@2bits")
}

// ---- Figure 11: post-analysis ----

func BenchmarkFig11PostAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig11(harness.Config{Divisor: benchDivisor}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (one design choice each, named in its comment) ----

// BenchmarkAblationInterpolation compares linear vs. cubic prediction: the
// paper (after SZ3) picks cubic for its higher ratios on smooth data.
func BenchmarkAblationInterpolation(b *testing.B) {
	g := benchField(b, "Density")
	eb := 1e-6 * g.ValueRange()
	for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
		b.Run(kind.String(), func(b *testing.B) {
			var size int
			b.SetBytes(int64(g.Len() * 8))
			for i := 0; i < b.N; i++ {
				blob, err := core.Compress(g, core.Options{ErrorBound: eb, Interpolation: kind})
				if err != nil {
					b.Fatal(err)
				}
				size = len(blob)
			}
			b.ReportMetric(metrics.CompressionRatio(int64(g.Len()*8), int64(size)), "CR")
		})
	}
}

// BenchmarkAblationPrefixBits quantifies Table 2's design choice directly:
// entropy after 0/1/2/3-bit XOR prefix prediction.
func BenchmarkAblationPrefixBits(b *testing.B) {
	g := benchField(b, "Density")
	// Reuse the harness front end through a tiny archive: quantize via the
	// public pipeline and take the bitplanes of the result.
	blob, err := ipcomp.Compress(g.Data(), g.Shape(), ipcomp.Options{ErrorBound: 1e-6, Relative: true})
	if err != nil {
		b.Fatal(err)
	}
	_ = blob
	for prefix := 0; prefix <= 3; prefix++ {
		b.Run(fmt.Sprintf("prefix=%d", prefix), func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				vals := make([]uint32, 4096)
				for j := range vals {
					vals[j] = uint32(j*2654435761) >> 16 // deterministic mix
				}
				e = bitplane.PrefixEntropy(vals, prefix)
			}
			b.ReportMetric(e, "bits/bit")
		})
	}
}

// BenchmarkAblationBoundMode compares the safe and paper error accountings:
// bytes loaded for the same requested bound.
func BenchmarkAblationBoundMode(b *testing.B) {
	g := benchField(b, "Density")
	eb := 1e-9 * g.ValueRange()
	blob, err := core.Compress(g, core.Options{ErrorBound: eb, Interpolation: interp.Cubic})
	if err != nil {
		b.Fatal(err)
	}
	arch, err := core.NewArchive(blob)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []core.BoundMode{core.SafeBound, core.PaperBound} {
		name := "safe"
		if mode == core.PaperBound {
			name = "paper"
		}
		b.Run(name, func(b *testing.B) {
			arch.SetBoundMode(mode)
			var loaded int64
			for i := 0; i < b.N; i++ {
				res, err := arch.RetrieveErrorBound(eb * 1024)
				if err != nil {
					b.Fatal(err)
				}
				loaded = res.LoadedBytes()
			}
			b.ReportMetric(metrics.Bitrate(loaded, g.Len()), "bits/val")
		})
	}
	arch.SetBoundMode(core.SafeBound)
}

// BenchmarkRefinementVsFresh quantifies Algorithm 2's benefit: refining an
// existing result vs. a fresh retrieval at the finer bound.
func BenchmarkRefinementVsFresh(b *testing.B) {
	g := benchField(b, "Density")
	eb := 1e-9 * g.ValueRange()
	blob, err := core.Compress(g, core.Options{ErrorBound: eb, Interpolation: interp.Cubic})
	if err != nil {
		b.Fatal(err)
	}
	arch, err := core.NewArchive(blob)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("refine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := arch.RetrieveErrorBound(eb * 4096)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(g.Len() * 8))
			if err := res.RefineErrorBound(eb * 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := arch.RetrieveErrorBound(eb * 4096); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(g.Len() * 8))
			if _, err := arch.RetrieveErrorBound(eb * 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- chunked store: tiled parallel compression + ROI retrieval ----

func storeField(b *testing.B, shape []int) *grid.Grid[float64] {
	b.Helper()
	g, err := datagen.GenerateShape("Density", grid.Shape(shape))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkStorePack contrasts tiled parallel compression ("chunked",
// 64³ tiles fanned out across cores) against compressing the same ≥128³
// grid as one archive ("single"): the chunked MB/s must win on any
// multi-core machine.
func BenchmarkStorePack(b *testing.B) {
	g := storeField(b, []int{128, 128, 128})
	eb := 1e-6 * g.ValueRange()
	for _, cfg := range []struct {
		name  string
		chunk []int
	}{
		{"single", []int{128, 128, 128}},
		{"chunked", []int{64, 64, 64}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.SetBytes(int64(g.Len() * 8))
			var size int64
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				sw, err := ipcomp.NewStoreWriter(&buf)
				if err != nil {
					b.Fatal(err)
				}
				if err := sw.Add("field", g.Data(), g.Shape(), ipcomp.StoreOptions{
					ErrorBound: eb, ChunkShape: cfg.chunk,
				}); err != nil {
					b.Fatal(err)
				}
				if err := sw.Close(); err != nil {
					b.Fatal(err)
				}
				size = int64(buf.Len())
			}
			b.ReportMetric(metrics.CompressionRatio(int64(g.Len()*8), size), "CR")
		})
	}
}

func storeBlob(b *testing.B, g *grid.Grid[float64], eb float64) []byte {
	b.Helper()
	var buf bytes.Buffer
	sw, err := ipcomp.NewStoreWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.Add("field", g.Data(), g.Shape(), ipcomp.StoreOptions{ErrorBound: eb}); err != nil {
		b.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkStoreRegion measures a ~10%-volume ROI query against a 128³
// container, cold (fresh store per query, every tile re-decoded) and warm
// (LRU chunk cache reuses decodes across queries).
func BenchmarkStoreRegion(b *testing.B) {
	g := storeField(b, []int{128, 128, 128})
	eb := 1e-6 * g.ValueRange()
	blob := storeBlob(b, g, eb)
	lo, hi := []int{0, 0, 0}, []int{64, 64, 48}
	bound := 256 * eb
	b.Run("cold", func(b *testing.B) {
		b.SetBytes(int64(64 * 64 * 48 * 8))
		for i := 0; i < b.N; i++ {
			s, err := ipcomp.OpenStore(bytes.NewReader(blob), int64(len(blob)))
			if err != nil {
				b.Fatal(err)
			}
			s.SetCacheBytes(0)
			if _, err := s.RetrieveRegion("field", lo, hi, bound); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s, err := ipcomp.OpenStore(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.RetrieveRegion("field", lo, hi, bound); err != nil {
			b.Fatal(err) // prime the cache
		}
		b.SetBytes(int64(64 * 64 * 48 * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.RetrieveRegion("field", lo, hi, bound); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreExtract measures whole-dataset reconstruction through the
// chunked path: every tile decodes concurrently, so this is also the
// parallel-decompression figure.
func BenchmarkStoreExtract(b *testing.B) {
	g := storeField(b, []int{128, 128, 128})
	eb := 1e-6 * g.ValueRange()
	blob := storeBlob(b, g, eb)
	b.SetBytes(int64(g.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := ipcomp.OpenStore(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			b.Fatal(err)
		}
		s.SetCacheBytes(0)
		if _, err := s.RetrieveDataset("field", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePackF32 packs the float32 narrowing of the 128³ field at
// the same absolute bound as BenchmarkStorePack's chunked case — the
// native f32 tile pipeline must beat it on time and allocation.
func BenchmarkStorePackF32(b *testing.B) {
	g := storeField(b, []int{128, 128, 128})
	eb := 1e-6 * g.ValueRange()
	g32 := grid.Narrow(g)
	b.SetBytes(int64(g32.Len() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		sw, err := ipcomp.NewStoreWriter(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.AddFloat32("field", g32.Data(), g32.Shape(), ipcomp.StoreOptions{
			ErrorBound: eb, ChunkShape: []int{64, 64, 64},
		}); err != nil {
			b.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreExtractF32 is the float32 twin of BenchmarkStoreExtract:
// whole-dataset reconstruction through the chunked parallel path.
func BenchmarkStoreExtractF32(b *testing.B) {
	g := storeField(b, []int{128, 128, 128})
	eb := 1e-6 * g.ValueRange()
	g32 := grid.Narrow(g)
	var buf bytes.Buffer
	sw, err := ipcomp.NewStoreWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.AddFloat32("field", g32.Data(), g32.Shape(), ipcomp.StoreOptions{ErrorBound: eb}); err != nil {
		b.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.SetBytes(int64(g32.Len() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := ipcomp.OpenStore(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			b.Fatal(err)
		}
		s.SetCacheBytes(0)
		if _, err := s.RetrieveDataset("field", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- component micro-benchmarks ----

func BenchmarkSPERRCompress(b *testing.B) { benchCodecCompress(b, sperr.New(), "Wave") }

// BenchmarkBitplaneSplit measures the engine's actual split stage: the
// compressor predicts and transposes into pooled backings via
// SplitPredictRange, allocation-free.
// (Before PR 2 the compressor used the allocating Split inside this loop;
// BenchmarkBitplaneSplitAlloc below still measures that API for
// apples-to-apples comparison with pre-PR-2 numbers.)
func BenchmarkBitplaneSplit(b *testing.B) {
	vals := make([]uint32, 1<<16)
	for i := range vals {
		vals[i] = uint32(i * 2654435761)
	}
	nbytes := (len(vals) + 7) / 8
	backing := make([]byte, bitplane.Planes*nbytes)
	planes := make([][]byte, bitplane.Planes)
	for p := range planes {
		planes[p] = backing[p*nbytes : (p+1)*nbytes]
	}
	b.SetBytes(int64(len(vals) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitplane.SplitPredictRange(planes, vals, 0, len(vals))
	}
}

// BenchmarkBitplaneSplitAlloc measures the allocating Split API, the exact
// workload the pre-PR-2 BenchmarkBitplaneSplit timed (allocation included).
func BenchmarkBitplaneSplitAlloc(b *testing.B) {
	vals := make([]uint32, 1<<16)
	for i := range vals {
		vals[i] = uint32(i * 2654435761)
	}
	b.SetBytes(int64(len(vals) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitplane.Split(vals)
	}
}

func BenchmarkBitplaneMerge(b *testing.B) {
	vals := make([]uint32, 1<<16)
	for i := range vals {
		vals[i] = uint32(i * 2654435761)
	}
	planes := bitplane.Split(vals)
	out := make([]uint32, len(vals))
	b.SetBytes(int64(len(vals) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitplane.MergeInto(out, planes)
	}
}
