// Package core implements the IPComp compressor itself: the archive
// format, the progressive encoder built on the interpolation predictor
// (internal/interp), negabinary bitplane coding (internal/nb,
// internal/bitplane), and the DP-based optimized data loader (paper §5).
// docs/FORMAT.md specifies the archive bytes exhaustively; the sketch:
//
//	header (always loaded)
//	  magic, version, interpolation kind, scalar type (v2), shape,
//	  error bound, max |value| (v2)
//	  L (levels), Lp (progressive levels)
//	  anchor values (raw at the native scalar width, lossless)
//	  per level: element count, outlier table, used-plane count,
//	             per-plane compressed block sizes, maxDrop truncation table
//	blocks (loaded on demand)
//	  level L..1 (coarse first), bitplane MSB..LSB within a level
//
// The maxDrop table records, for every level l and every possible number of
// dropped low bitplanes d, the exact maximum quantization-index error
// max_i |k_i - negabinaryTruncate(k_i, d)| observed in that level. This is
// the ‖δy_l‖∞ of the paper's Theorem 1 (in units of the quantization step),
// and it is what makes the optimizer's error predictions tight.
//
// The package's surfaces, by consumer:
//
//   - Compress / NewArchive / NewArchiveReaderAt / NewArchiveFrom and the
//     Retrieve*/Refine* families are the compression and progressive
//     retrieval engine behind the public ipcomp package. Results refine
//     in place: tightening a bound loads only additional plane blocks.
//     A result below full fidelity keeps the planes it decoded, and a
//     refinement decodes its new planes beside them and rebuilds from all
//     of them, as a retrieval of its plan does: there is one rebuild.
//   - Plan, PlanErrorBoundMode, PlanBitrateMode expose the loading
//     optimizer; PlanSpans/HeaderSize (spans.go) turn a plan diff into
//     the archive byte ranges it needs, which is what lets a server ship
//     progressive refinements without decoding anything.
//   - ParallelFor / ParallelForErr are the worker-pool substrate shared
//     with internal/store. GetScratch / PutScratch (pool.go) are the one
//     scratch pool per element type, a sync.Pool per capacity class, that
//     core, the store's tile staging and the server's ingest bodies draw
//     their buffers from; a released Result's backings go back to it.
//
// The interpolation passes run through AVX2 kernels (kernels_amd64.s,
// with the generic loops of kernels.go as the purego reference and the
// scalar path for what no kernel takes). interp.Pass.Walk hands both the
// quantizer and the rebuild blocks of rows, one kernel call covers a whole
// block, and a kernel lane takes one of two shapes:
//
//   - pairs: the targets of a level-1 row, 2 elements apart with
//     contiguous indices — 7/8 of a field's values. Each operand is two
//     whole-vector loads and a lane deinterleave, and masked stores write
//     only the targets.
//   - strided: lanes any stride apart, gathered and scattered lane by
//     lane — the rows of coarser levels, and the columns of a block whose
//     rows are shorter than a group (the ≤ 3 boundary targets of each row
//     of the innermost pass).
//
// A quantize kernel returns the first group it did not commit, and the
// scalar loop takes that group before the kernel resumes after it.
//
// Each lane computes exactly the generic expression, in the same order and
// without FMA, so archives and retrievals are bit for bit the same down
// either path (TestQuantizeDispatchDifferential,
// TestApplyDispatchDifferential, FuzzKernelDispatch).
//
// Everything here is deterministic: the same input bytes and the same
// plan produce bit-identical output regardless of GOMAXPROCS — and, for a
// Result, regardless of the refinements it took to reach that plan, at
// either scalar width — pinned by SHA-256 golden tests and
// TestRefineIsPureFunctionOfPlan.
package core
