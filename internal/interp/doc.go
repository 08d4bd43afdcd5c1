// Package interp implements the multi-level interpolation predictor that
// IPComp inherits from SZ3 (paper §4.1, Fig 3). The input grid is split into
// a hierarchy of levels: level l covers the points whose coordinates are all
// multiples of the stride s = 2^(l-1) and at least one coordinate is an odd
// multiple of s. Points with all coordinates multiple of 2^L are "anchors"
// and seed the recursion.
//
// Within a level the predictor runs one pass per dimension: the pass along
// dimension d predicts points whose coordinate along d is an odd multiple of
// s from their 2 (linear) or 4 (cubic) neighbours at ±s and ±3s along d,
// which are guaranteed to be already reconstructed. The visit order is fully
// deterministic, so compression and decompression see identical predictions.
//
// The package exposes the geometry at two granularities:
//
//   - Decomposition answers shape-level questions (NumLevels, LevelCount,
//     Anchors) in closed form.
//   - LevelPasses / VisitRuns decompose a level's pass into maximal runs
//     of uniform prediction in canonical order, shardable by target range,
//     for the point-at-a-time baselines. Pass.Walk covers a pass, shardable
//     by lines, in blocks of rows of one prediction formula (one block per
//     segment of the rows for the innermost pass); it is what
//     internal/core's compressor and retrieval consume.
//
// Predict evaluates the interpolation formulas themselves, generically
// over float32/float64.
package interp
