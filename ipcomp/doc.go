// Package ipcomp is the public API of the IPComp reproduction: an
// interpolation-based progressive lossy compressor for scientific
// floating-point data (Yang et al., "IPComp: Interpolation Based Progressive
// Lossy Compression for Scientific Applications", HPDC 2025), grown into a
// chunked, network-servable archive store.
//
// # Quick start
//
//	blob, _ := ipcomp.Compress(data, []int{256, 384, 384}, ipcomp.Options{
//		ErrorBound: 1e-6,
//	})
//	arch, _ := ipcomp.Open(blob)
//
//	// Coarse first: guarantee an L∞ error of 1e-2 while loading the
//	// fewest possible bytes.
//	res, _ := arch.RetrieveErrorBound(1e-2)
//	coarse := res.Data()
//
//	// Later: refine in place down to 1e-4 by loading only additional
//	// bitplanes (no re-decoding of what is already in memory).
//	_ = res.RefineErrorBound(1e-4)
//
// Compression guarantees |x[i] - x̂[i]| <= ErrorBound for every point at
// full fidelity; every progressive retrieval guarantees the (coarser) bound
// it was asked for. docs/FORMAT.md is the byte-level format specification.
//
// # Scalar types
//
// Scientific datasets are overwhelmingly single-precision, and the whole
// pipeline is generic over float32/float64 internally. The public surface
// deliberately exposes typed pairs instead of type parameters —
// Compress/CompressFloat32, Data/DataFloat32, Add/AddFloat32 — because an
// archive's scalar type is a runtime property of the bytes being opened:
// Open cannot return an Archive[T], so a generic surface would push a type
// assertion onto every caller. CompressFloat32 produces a version-2 archive
// that stores anchors and outliers as 4-byte floats and moves half the
// memory bandwidth through every kernel; all bound arithmetic runs in
// float64, so the full-fidelity error bound is honored exactly for both
// widths, and the optimizer folds a conservative float32 rounding slack
// (~1e-6 of the field magnitude, recorded in the v2 header) into the
// guarantee of any truncated plan, so reported bounds stay hard at every
// granularity. Choose float32 bounds above the type's ~1e-7 relative
// representational precision — tighter ones escape point by point through
// the lossless outlier path. Float64 archives remain version 1,
// byte-identical with earlier releases.
//
// Every plane block is coded one way: zero, DEFLATE or raw, whichever is
// smallest. Version-3 archives, which earlier releases wrote under an
// "auto" codec policy with RLE and Huffman blocks, still open and decode;
// nothing writes them any more.
//
// # Containers and region-of-interest retrieval
//
// StoreWriter packs any number of named datasets into one container,
// tiled into independently compressed chunks; Store answers
// region-of-interest queries by opening only the tiles a box intersects,
// each at the requested fidelity, behind a goroutine-safe progressive
// tile cache (tightening a bound refines cached tiles in place). A Store
// may be shared by any number of goroutines.
//
// # Serving over HTTP
//
// cmd/ipcompd serves containers over HTTP — dataset listing, metadata,
// and progressive region retrieval where refinement responses carry only
// the delta bitplanes (docs/PROTOCOL.md). The ipcomp/client package is
// the Go client; its Region values refine in place like Result, paying
// only incremental bytes per tightened bound.
package ipcomp
