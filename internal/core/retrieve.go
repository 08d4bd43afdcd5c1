package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/quant"
)

// BlockSource abstracts where archive bytes come from, so retrievals can
// read from memory or lazily from a file while the archive accounts for
// every byte actually loaded.
type BlockSource interface {
	// ReadRange returns n bytes starting at absolute offset off.
	ReadRange(off int64, n int) ([]byte, error)
	// Size returns the total archive size.
	Size() int64
}

// bytesSource serves an in-memory archive.
type bytesSource []byte

func (b bytesSource) ReadRange(off int64, n int) ([]byte, error) {
	// Phrased as a subtraction so a crafted offset near math.MaxInt64
	// cannot overflow off+n into a small value and sneak past the check.
	if n < 0 || off < 0 || off > int64(len(b)) || int64(n) > int64(len(b))-off {
		return nil, fmt.Errorf("core: read %d bytes at %d outside archive of %d bytes", n, off, len(b))
	}
	return b[off : off+int64(n)], nil
}

func (b bytesSource) Size() int64 { return int64(len(b)) }

// readerAtSource serves an archive through io.ReaderAt (e.g. *os.File),
// reading only the requested ranges — true partial retrieval.
type readerAtSource struct {
	r    io.ReaderAt
	size int64
}

func (s *readerAtSource) ReadRange(off int64, n int) ([]byte, error) {
	buf := make([]byte, n)
	if err := s.ReadRangeInto(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadRangeInto fills a caller-owned buffer, letting hot paths reuse pooled
// scratch for transient reads (see readSpan).
func (s *readerAtSource) ReadRangeInto(dst []byte, off int64) error {
	_, err := s.r.ReadAt(dst, off)
	return err
}

func (s *readerAtSource) Size() int64 { return s.size }

// rangeIntoReader is the optional BlockSource extension for reading into a
// caller-owned buffer.
type rangeIntoReader interface {
	ReadRangeInto(dst []byte, off int64) error
}

// readSpan reads [off, off+n) from src, preferring a pooled buffer when the
// source supports caller-owned reads. The returned release func must be
// called once the bytes are no longer referenced; the in-memory source
// returns a zero-copy subslice with a no-op release.
func readSpan(src BlockSource, off int64, n int) ([]byte, func(), error) {
	if ir, ok := src.(rangeIntoReader); ok {
		buf := spanScratch.Get(n)
		if err := ir.ReadRangeInto(buf, off); err != nil {
			spanScratch.Put(buf)
			return nil, nil, err
		}
		return buf, func() { spanScratch.Put(buf) }, nil
	}
	raw, err := src.ReadRange(off, n)
	if err != nil {
		return nil, nil, err
	}
	return raw, func() {}, nil
}

// Archive provides progressive access to one compressed dataset.
type Archive struct {
	h     *header
	src   BlockSource
	mode  BoundMode
	dec   *interp.Decomposition
	quant quant.Quantizer
	// weight[l-1] is the optimizer's amplification weight for truncation
	// loss introduced at level l (see boundWeights).
	weight []float64
	// slack bounds the float32 rounding error of truncated reconstructions
	// (zero for float64 archives); see roundSlack.
	slack float64
}

// NewArchive opens an in-memory archive.
func NewArchive(blob []byte) (*Archive, error) {
	return NewArchiveFrom(bytesSource(blob))
}

// NewArchiveReaderAt opens an archive backed by an io.ReaderAt of the given
// total size; only the header plus requested blocks are ever read.
func NewArchiveReaderAt(r io.ReaderAt, size int64) (*Archive, error) {
	return NewArchiveFrom(&readerAtSource{r: r, size: size})
}

// NewArchiveFrom opens an archive from an arbitrary block source.
func NewArchiveFrom(src BlockSource) (*Archive, error) {
	// Header length prefix first, then the full header.
	pre, err := src.ReadRange(0, 8)
	if err != nil {
		return nil, err
	}
	// Guard with a subtraction, not hlen+8: a crafted length near 2^63
	// would overflow the addition and reach make() with a huge size.
	hlen := int64(binary.LittleEndian.Uint64(pre))
	if hlen <= 0 || hlen > src.Size()-8 {
		return nil, fmt.Errorf("core: implausible header length %d", hlen)
	}
	rest, err := src.ReadRange(8, int(hlen))
	if err != nil {
		return nil, err
	}
	raw := make([]byte, 8+hlen)
	copy(raw, pre)
	copy(raw[8:], rest)
	h, err := unmarshalHeader(raw)
	if err != nil {
		return nil, err
	}
	dec, err := interp.NewDecomposition(h.shape)
	if err != nil {
		return nil, err
	}
	if dec.NumLevels() != h.levels {
		return nil, fmt.Errorf("core: archive has %d levels, shape %v implies %d",
			h.levels, h.shape, dec.NumLevels())
	}
	a := &Archive{
		h:     h,
		src:   src,
		mode:  SafeBound,
		dec:   dec,
		quant: quant.New(h.eb),
	}
	a.weight = boundWeights(h, a.mode)
	a.slack = roundSlack(h, a.weight)
	return a, nil
}

// SetBoundMode switches between the conservative (default) and the paper's
// error accounting; see BoundMode.
func (a *Archive) SetBoundMode(m BoundMode) {
	a.mode = m
	a.weight = boundWeights(a.h, m)
	a.slack = roundSlack(a.h, a.weight)
}

// roundSlack bounds the error a truncated float32 reconstruction adds on
// top of the truncation model: computing and storing each level in float32
// injects a per-point rounding error that amplifies through finer levels
// exactly like truncation loss, so it reuses the same weights. The
// per-level injection is budgeted at 8 ulps of maxAbs: the cubic predictor
// evaluates ~6 float32 operations whose intermediates reach ~9·1.25·maxAbs
// before the /16 (worst-case accumulated rounding ≈ 3 ulp of maxAbs after
// scaling), plus the k·step multiply-add and the final store (≤ 1 ulp
// combined) — 8 doubles that worst case for safety, and at ~1e-6 relative
// the pessimism only matters to retrievals within a few quantization steps
// of eb. Full-fidelity plans need no slack: they reproduce the encoder's
// work array bit for bit, and the encoder verified every point against eb
// as stored.
func roundSlack(h *header, weight []float64) float64 {
	if h.scalar != Float32 || h.maxAbs == 0 {
		return 0
	}
	if math.IsNaN(h.maxAbs) || math.IsInf(h.maxAbs, 0) {
		// Non-finite data: no finite guarantee for truncated plans.
		return math.Inf(1)
	}
	ulp := 8 * h.maxAbs / (1 << 23)
	s := 0.0
	for _, w := range weight {
		s += w * ulp
	}
	return s
}

// boundWeights returns the per-level multiplier applied to a level's
// truncation loss when predicting the final L∞ error.
func boundWeights(h *header, mode BoundMode) []float64 {
	p := h.kind.Amplification()
	d := len(h.shape)
	w := make([]float64, h.levels)
	switch mode {
	case PaperBound:
		for l := 1; l <= h.levels; l++ {
			w[l-1] = math.Pow(p, float64(l-1))
		}
	default: // SafeBound
		amp := math.Pow(p, float64(d)) // per-level amplification p^D
		c := 0.0
		for k := 0; k < d; k++ {
			c += math.Pow(p, float64(k))
		}
		for l := 1; l <= h.levels; l++ {
			w[l-1] = c * math.Pow(amp, float64(l-1))
		}
	}
	return w
}

// Shape returns the dataset shape.
func (a *Archive) Shape() grid.Shape { return a.h.shape }

// ErrorBound returns the compression-time error bound eb.
func (a *Archive) ErrorBound() float64 { return a.h.eb }

// Scalar returns the archive's element type.
func (a *Archive) Scalar() ScalarType { return a.h.scalar }

// FormatVersion returns the archive format version as parsed from the
// header: 1 for archives this encoder writes for float64 data, 2 for
// float32 — but a v2 blob that declares float64 (legal, from another
// writer) reports 2, not what this encoder would have emitted. Earlier
// releases' "auto" codec policy wrote version 3, which still opens.
func (a *Archive) FormatVersion() int { return int(a.h.version) }

// NumLevels returns the interpolation level count L.
func (a *Archive) NumLevels() int { return a.h.levels }

// ProgressiveLevels returns Lp, the number of bitplane-progressive levels.
func (a *Archive) ProgressiveLevels() int { return a.h.prog }

// TotalSize returns the archive size in bytes.
func (a *Archive) TotalSize() int64 { return a.h.totalSize() }

// CompressedSize is an alias of TotalSize for metric reporting.
func (a *Archive) CompressedSize() int64 { return a.h.totalSize() }

// Plan records, for every level, how many MSB-first bitplanes to load.
// Non-progressive levels always load all their planes.
type Plan struct {
	// Keep[l-1] is the number of planes kept at level l (0..usedPlanes).
	Keep []int
}

// clonePlan deep-copies a plan.
func (p Plan) clone() Plan {
	keep := make([]int, len(p.Keep))
	copy(keep, p.Keep)
	return Plan{Keep: keep}
}

// fullPlan loads every stored plane.
func (a *Archive) fullPlan() Plan {
	keep := make([]int, a.h.levels)
	for l := 1; l <= a.h.levels; l++ {
		keep[l-1] = a.h.metaOf(l).usedPlanes
	}
	return Plan{Keep: keep}
}

// minimalPlan loads only the mandatory data: all planes of non-progressive
// levels, nothing from progressive ones.
func (a *Archive) minimalPlan() Plan {
	keep := make([]int, a.h.levels)
	for l := 1; l <= a.h.levels; l++ {
		if l > a.h.prog {
			keep[l-1] = a.h.metaOf(l).usedPlanes
		}
	}
	return Plan{Keep: keep}
}

// PlanBytes returns the number of archive bytes the plan loads, counting
// the always-loaded header.
func (a *Archive) PlanBytes(p Plan) int64 {
	total := a.h.headerSize
	for l := 1; l <= a.h.levels; l++ {
		m := a.h.metaOf(l)
		for q := 0; q < p.Keep[l-1]; q++ {
			total += int64(m.blockSizes[q])
		}
	}
	return total
}

// PlanErrorBound returns the guaranteed L∞ bound of the plan:
// eb + sum_l weight_l · maxDrop_l(dropped) · step, plus — for float32
// archives whose plan drops any plane — the rounding slack of roundSlack,
// so the returned bound is conservative at every scalar width. Plans that
// drop nothing are exact for both widths: full fidelity reproduces the
// encoder's bound-checked work array bit for bit.
func (a *Archive) PlanErrorBound(p Plan) float64 {
	e := a.h.eb
	truncated := false
	for l := 1; l <= a.h.levels; l++ {
		m := a.h.metaOf(l)
		dropped := m.usedPlanes - p.Keep[l-1]
		if dropped > 0 {
			truncated = true
		}
		e += a.weight[l-1] * float64(m.maxDrop[dropped]) * a.quant.Step()
	}
	if truncated {
		e += a.slack
	}
	return e
}

// truncErr is the predicted truncation-induced error of keeping `keep`
// planes at level l (excluding the base eb).
func (a *Archive) truncErr(l, keep int) float64 {
	m := a.h.metaOf(l)
	return a.weight[l-1] * float64(m.maxDrop[m.usedPlanes-keep]) * a.quant.Step()
}

// dpOption is one per-level choice for the planning knapsack: a discretized
// budget cost (error units or size units) and the score the solver
// maximizes — bytes saved in error-bound mode, exact in a float64 below
// 2^53; the negated truncation error in fixed-rate mode.
type dpOption struct {
	cost  int
	score float64
}

// errorUnits is the discretization granularity of the error-bound knapsack.
// The paper normalizes the error budget into [128, 1023] discrete values;
// 1024 units matches its upper end.
const errorUnits = 1024

// sizeUnits is the granularity of the bitrate-mode knapsack.
const sizeUnits = 4096

// PlanErrorBoundMode computes the requested bound E's loading plan (paper
// §5.2): the byte-minimal plan whose guaranteed error stays within E.
// Costs are rounded up during discretization so the continuous constraint
// is implied by the discrete one — the returned plan's PlanErrorBound never
// exceeds E.
func (a *Archive) PlanErrorBoundMode(bound float64) (Plan, error) {
	if bound < a.h.eb {
		return Plan{}, ErrBoundTooTight
	}
	// Any plan that truncates pays the float32 rounding slack up front; if
	// the budget cannot cover it, only the (slack-free, exact) full plan
	// can honor the bound.
	budget := bound - a.h.eb - a.slack
	plan := a.fullPlan()
	if a.h.prog == 0 || budget <= 0 {
		return plan, nil
	}
	unit := budget / errorUnits

	levelOpts := make([][]dpOption, a.h.prog)
	for l := 1; l <= a.h.prog; l++ {
		m := a.h.metaOf(l)
		opts := make([]dpOption, m.usedPlanes+1)
		var cum int64
		for d := 0; d <= m.usedPlanes; d++ {
			if d > 0 {
				cum += int64(m.blockSizes[m.usedPlanes-d]) // LSB-most plane first
			}
			errCost := a.truncErr(l, m.usedPlanes-d)
			c := 0
			switch {
			case d == 0 || errCost <= 0: // dropping nothing costs nothing
			case errCost > budget:
				c = errorUnits + 1 // infeasible on its own
			default:
				c = int(math.Ceil(errCost / unit))
			}
			opts[d] = dpOption{cost: c, score: float64(cum)}
		}
		levelOpts[l-1] = opts
	}

	drops := solveKnapsack(levelOpts, errorUnits)
	for l := 1; l <= a.h.prog; l++ {
		plan.Keep[l-1] = a.h.metaOf(l).usedPlanes - drops[l-1]
	}
	return plan, nil
}

// solveKnapsack solves the layered knapsack of both planning modes: pick one
// option per layer, maximizing the summed score subject to a summed cost of
// at most budget units. dp[li][u] holds the best score of layers 0..li-1
// within cost u. Option 0 of every layer costs nothing (keep every plane,
// or load none), so every state is reachable and seeds its maximum; ties go
// to the lowest option index. Returns the chosen option index per layer.
func solveKnapsack(layers [][]dpOption, budget int) []int {
	nl := len(layers)
	dp := make([][]float64, nl+1)
	dp[0] = make([]float64, budget+1) // all zeros: empty assignment
	for li, opts := range layers {
		cur := make([]float64, budget+1)
		prev := dp[li]
		first, rest := opts[0].score, opts[1:]
		for u := range cur {
			best := prev[u] + first
			for _, op := range rest {
				if op.cost <= u {
					if v := prev[u-op.cost] + op.score; v > best {
						best = v
					}
				}
			}
			cur[u] = best
		}
		dp[li+1] = cur
	}
	choice := make([]int, nl)
	u := budget
	for li := nl - 1; li >= 0; li-- {
		target := dp[li+1][u]
		for d, op := range layers[li] {
			if op.cost <= u && dp[li][u-op.cost]+op.score == target {
				choice[li] = d
				u -= op.cost
				break
			}
		}
	}
	return choice
}

// PlanBitrateMode computes the loading plan for a byte budget (paper §5.3):
// minimize the guaranteed error subject to loading at most maxBytes,
// including the mandatory header/anchor/outlier/coarse-level data. If the
// budget does not even cover the mandatory data, the minimal plan is
// returned (nothing less can be decoded).
func (a *Archive) PlanBitrateMode(maxBytes int64) (Plan, error) {
	minimal := a.minimalPlan()
	mandatory := a.PlanBytes(minimal)
	if a.h.prog == 0 {
		return minimal, nil
	}
	remaining := maxBytes - mandatory
	if remaining <= 0 {
		return minimal, nil
	}
	// Quick exit: everything fits.
	full := a.fullPlan()
	if a.PlanBytes(full) <= maxBytes {
		return full, nil
	}
	unit := float64(remaining) / sizeUnits

	// One layer per progressive level; option = keep k planes, cost = bytes
	// of the kept planes (rounded UP), score = the negated truncation error,
	// so maximizing it minimizes the error.
	levelOpts := make([][]dpOption, a.h.prog)
	for l := 1; l <= a.h.prog; l++ {
		m := a.h.metaOf(l)
		opts := make([]dpOption, m.usedPlanes+1)
		var cum int64
		for k := 0; k <= m.usedPlanes; k++ {
			if k > 0 {
				cum += int64(m.blockSizes[k-1]) // MSB-most plane first
			}
			c := 0
			if cum > 0 {
				if cum > remaining {
					c = sizeUnits + 1
				} else {
					c = int(math.Ceil(float64(cum) / unit))
				}
			}
			opts[k] = dpOption{cost: c, score: -a.truncErr(l, k)}
		}
		levelOpts[l-1] = opts
	}

	keeps := solveKnapsack(levelOpts, sizeUnits)
	plan := minimal.clone()
	for l := 1; l <= a.h.prog; l++ {
		plan.Keep[l-1] = keeps[l-1]
	}
	return plan, nil
}
