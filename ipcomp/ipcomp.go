package ipcomp

import (
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/interp"
)

// CodecStat reports the compressed bytes this process moved through one
// block-coding method; see CodecStats.
type CodecStat = codec.MethodStat

// CodecStats snapshots process-wide per-method byte counters across every
// archive encoded or decoded (CLI, store, and server share them).
func CodecStats() []CodecStat { return codec.Stats() }

// Interpolation selects the prediction formula. The zero value picks the
// paper's default (cubic spline).
type Interpolation int

const (
	// DefaultInterpolation is cubic, the paper's default.
	DefaultInterpolation Interpolation = iota
	// Linear interpolation: midpoint average, amplification factor 1.
	Linear
	// Cubic interpolation: 4-point spline, amplification factor 1.25.
	Cubic
)

func (k Interpolation) kind() interp.Kind {
	if k == Linear {
		return interp.Linear
	}
	return interp.Cubic
}

// BoundMode selects the optimizer's error accounting; see core.BoundMode.
type BoundMode = core.BoundMode

const (
	// SafeBound (default) makes progressive error bounds hard guarantees.
	SafeBound = core.SafeBound
	// PaperBound uses the paper's Eq. (5) accounting, loading less data.
	PaperBound = core.PaperBound
)

// ScalarType identifies an archive's element type.
type ScalarType = core.ScalarType

const (
	// Float64 archives use the version-1 format.
	Float64 = core.Float64
	// Float32 archives use the version-2 format with 4-byte anchors.
	Float32 = core.Float32
)

// Options configures Compress.
type Options struct {
	// ErrorBound is the absolute point-wise error bound (required, > 0).
	ErrorBound float64
	// Relative, when true, interprets ErrorBound as a fraction of the data
	// value range (max-min), the convention used throughout the paper's
	// evaluation (e.g. eb = 1e-6 means 1e-6 x range).
	Relative bool
	// Interpolation defaults to Cubic (DefaultInterpolation).
	Interpolation Interpolation
	// ProgressiveThreshold is the minimum level size (elements) that is
	// bitplane-progressive; 0 means the library default.
	ProgressiveThreshold int
}

// Compress encodes a row-major float64 array of the given shape into an
// IPComp archive (format version 1).
func Compress(data []float64, shape []int, opt Options) ([]byte, error) {
	return compressAs(data, shape, opt)
}

// CompressFloat32 encodes a row-major float32 array of the given shape into
// an IPComp archive (format version 2) — natively, with no widening copy:
// the compressor's work arrays and kernels run at 4 bytes per element. The
// error bound (absolute or relative) is honored exactly, like Compress.
func CompressFloat32(data []float32, shape []int, opt Options) ([]byte, error) {
	return compressAs(data, shape, opt)
}

func compressAs[T grid.Scalar](data []T, shape []int, opt Options) ([]byte, error) {
	g, err := grid.FromSlice(data, grid.Shape(shape))
	if err != nil {
		return nil, err
	}
	eb := opt.ErrorBound
	if opt.Relative {
		r := g.ValueRange()
		if r == 0 {
			r = 1 // constant field: any positive bound works
		}
		eb *= r
	}
	return core.Compress(g, core.Options{
		ErrorBound:           eb,
		Interpolation:        opt.Interpolation.kind(),
		ProgressiveThreshold: opt.ProgressiveThreshold,
	})
}

// Decompress fully reconstructs an archive, returning the data and shape
// as float64. Float32 archives are widened losslessly; use
// DecompressFloat32 for a native single-precision view.
func Decompress(blob []byte) ([]float64, []int, error) {
	res, shape, err := decompressResult(blob)
	if err != nil {
		return nil, nil, err
	}
	return res.Data(), shape, nil
}

// DecompressFloat32 fully reconstructs an archive as float32. For float32
// archives this is the native reconstruction; float64 archives are
// narrowed, losing precision beyond ~7 significant digits.
func DecompressFloat32(blob []byte) ([]float32, []int, error) {
	res, shape, err := decompressResult(blob)
	if err != nil {
		return nil, nil, err
	}
	return res.DataFloat32(), shape, nil
}

func decompressResult(blob []byte) (*core.Result, []int, error) {
	a, err := core.NewArchive(blob)
	if err != nil {
		return nil, nil, err
	}
	res, err := a.RetrieveAll()
	if err != nil {
		return nil, nil, err
	}
	return res, a.Shape(), nil
}

// Archive provides progressive access to a compressed dataset.
type Archive struct {
	a *core.Archive
}

// Open reads an in-memory archive. Only the header is parsed eagerly.
func Open(blob []byte) (*Archive, error) {
	a, err := core.NewArchive(blob)
	if err != nil {
		return nil, err
	}
	return &Archive{a: a}, nil
}

// OpenReaderAt opens an archive backed by an io.ReaderAt (such as an
// *os.File) of the given size. Retrievals read only the byte ranges their
// loading plans select — true partial I/O.
func OpenReaderAt(r io.ReaderAt, size int64) (*Archive, error) {
	a, err := core.NewArchiveReaderAt(r, size)
	if err != nil {
		return nil, err
	}
	return &Archive{a: a}, nil
}

// Shape returns the dataset's shape.
func (ar *Archive) Shape() []int { return ar.a.Shape() }

// NumElements returns the total element count.
func (ar *Archive) NumElements() int { return grid.Shape(ar.a.Shape()).Len() }

// ErrorBound returns the compression-time absolute error bound.
func (ar *Archive) ErrorBound() float64 { return ar.a.ErrorBound() }

// Scalar returns the archive's element type.
func (ar *Archive) Scalar() ScalarType { return ar.a.Scalar() }

// FormatVersion returns the archive format version: 1 for float64
// archives, 2 for float32, 3 for archives an earlier release wrote under
// its "auto" codec policy.
func (ar *Archive) FormatVersion() int { return ar.a.FormatVersion() }

// CompressedSize returns the total archive size in bytes.
func (ar *Archive) CompressedSize() int64 { return ar.a.TotalSize() }

// SetBoundMode switches between SafeBound and PaperBound accounting.
func (ar *Archive) SetBoundMode(m BoundMode) { ar.a.SetBoundMode(m) }

// RetrieveAll reconstructs at full fidelity.
func (ar *Archive) RetrieveAll() (*Result, error) {
	res, err := ar.a.RetrieveAll()
	if err != nil {
		return nil, err
	}
	return &Result{r: res}, nil
}

// RetrieveErrorBound reconstructs with the byte-minimal loading plan whose
// guaranteed L∞ error is at most the given absolute bound. The bound must
// be >= ErrorBound().
func (ar *Archive) RetrieveErrorBound(bound float64) (*Result, error) {
	res, err := ar.a.RetrieveErrorBound(bound)
	if err != nil {
		return nil, err
	}
	return &Result{r: res}, nil
}

// RetrieveBitrate reconstructs with the most accurate plan loading at most
// bitsPerValue bits per element (paper's fixed-rate mode).
func (ar *Archive) RetrieveBitrate(bitsPerValue float64) (*Result, error) {
	res, err := ar.a.RetrieveBitrate(bitsPerValue)
	if err != nil {
		return nil, err
	}
	return &Result{r: res}, nil
}

// Result is a progressive reconstruction that can be refined in place.
type Result struct {
	r *core.Result
}

// Scalar returns the reconstruction's element type (the archive's).
func (res *Result) Scalar() ScalarType { return res.r.Scalar() }

// Data returns the reconstructed values as float64. For float64 archives
// this is the shared backing slice (refinement mutates it in place); for
// float32 archives it is a widened lossless copy that does not observe
// later refinement — use DataFloat32 for the shared native view.
func (res *Result) Data() []float64 { return res.r.Data() }

// DataFloat32 returns the reconstructed values as float32. For float32
// archives this is the shared backing slice (refinement mutates it in
// place); for float64 archives it is a narrowed, precision-losing copy.
func (res *Result) DataFloat32() []float32 { return res.r.DataFloat32() }

// LoadedBytes reports the archive bytes read so far, header included.
func (res *Result) LoadedBytes() int64 { return res.r.LoadedBytes() }

// Bitrate reports loaded bits per value.
func (res *Result) Bitrate() float64 { return res.r.Bitrate() }

// GuaranteedError returns the L∞ bound guaranteed by the data loaded so far.
func (res *Result) GuaranteedError() float64 { return res.r.GuaranteedError() }

// RefineErrorBound loads the additional bitplanes needed to guarantee the
// tighter bound and updates the reconstruction in a single incremental pass.
func (res *Result) RefineErrorBound(bound float64) error {
	return res.r.RefineErrorBound(bound)
}

// RefineBitrate refines up to a total loaded-bitrate budget. Budgets below
// what has already been loaded are no-ops: progressive retrieval never
// unloads data.
func (res *Result) RefineBitrate(bitsPerValue float64) error {
	return res.r.RefineBitrate(bitsPerValue)
}

// RefineAll loads everything that remains, reaching full fidelity.
func (res *Result) RefineAll() error { return res.r.RefineAll() }

// String summarizes the result for logs.
func (res *Result) String() string {
	return fmt.Sprintf("ipcomp.Result{loaded=%dB bitrate=%.3f bound=%.3g}",
		res.LoadedBytes(), res.Bitrate(), res.GuaranteedError())
}
