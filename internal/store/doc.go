// Package store implements IPComp's chunked multi-dataset archive
// container. A container holds any number of named N-d float64/float32
// datasets, each split into fixed-size tiles (default 64³, edge tiles
// clipped) that are compressed as independent IPComp archives. Because
// every tile is an independently addressable blob behind io.ReaderAt —
// the venti/fossil block-store shape — compression parallelizes across
// cores, and a region-of-interest query reads only the bytes of the
// tiles it overlaps, each at whatever progressive fidelity the caller
// asked for.
//
// Container layout (docs/FORMAT.md has the byte-level spec):
//
//	preamble (8 bytes)   magic "IPCS", version, reserved
//	chunk blobs          each an independent IPComp archive (core format)
//	index                named-dataset table + per-chunk records
//	footer (24 bytes)    index offset, index size, magic, version
//
// The index lives at the tail so a Writer can stream chunk blobs to any
// io.Writer without seeking; readers locate it through the fixed-size
// footer. Per dataset the index records the shape, the nominal chunk
// shape, the scalar type (v2), and the compression error bound; per chunk
// it records the byte extent [off, off+size), the region [lo, hi) the
// chunk covers in dataset coordinates, and the chunk's guaranteed maximum
// absolute error.
//
// Reading splits into two independent paths:
//
//   - RetrieveRegion / RetrieveDataset decode. Decoded tiles live in a
//     byte-budgeted LRU cache of progressively refinable results, which
//     holds at most its budget plus one tile: concurrent requests for a
//     cold tile decode it exactly once, warm requests stream it
//     concurrently under a read lock, and a tighter bound refines the
//     cached tile in place. A Store is safe for concurrent use by any
//     number of goroutines (the serving story of internal/server depends
//     on this).
//   - PlanRegion does not decode. It computes, per intersecting tile,
//     the loading plan for a bound and the raw byte ranges a client is
//     missing — the wire-serving path, where the server ships compressed
//     planes straight out of the container.
package store
