package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/le"
)

// Magic identifies IPComp archives ("IPC1" little-endian).
const Magic = 0x31435049

// Archive format versions. Version 2 gives meaning to the header byte that
// version 1 reserved (and always wrote as zero): it now names the scalar
// type, and float32 archives store their anchors and outlier values as
// 4-byte floats. The encoder emits the lowest version that can represent an
// archive — float64 archives are still written as version 1, byte-identical
// to earlier releases (the golden digests pin this) — and the reader
// accepts both, and version 3 (see Version3).
const (
	// Version1 is the original float64-only format.
	Version1 = 1
	// Version adds the scalar-type header field (float32 archives).
	Version = 2
	// Version3 adds a codec-policy header byte, written by earlier releases
	// whose "auto" policy could code planes with RLE and byte Huffman
	// blocks. This encoder never writes it; the reader still opens v3
	// archives (testdata/v3_auto_cubic.ipc pins one).
	Version3 = 3
)

// ScalarType identifies the element type an archive stores. The numeric
// values are part of the v2 format.
type ScalarType uint8

const (
	// Float64 matches version 1's implicit element type (code 0, the byte
	// v1 archives wrote as reserved).
	Float64 ScalarType = 0
	// Float32 archives store values, anchors, and outliers as 4-byte
	// floats; all bound arithmetic stays in float64.
	Float32 ScalarType = 1
)

func (s ScalarType) String() string {
	switch s {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("ScalarType(%d)", uint8(s))
	}
}

// ParseScalar is the inverse of String, and reads the short spellings
// f32 and f64 too. The text may come from a request, so an error quotes
// at most 64 runes of it.
func ParseScalar(s string) (ScalarType, error) {
	switch s {
	case "f32", "float32":
		return Float32, nil
	case "f64", "float64":
		return Float64, nil
	}
	return 0, fmt.Errorf("dtype must be f32 or f64, got %.64q", s)
}

// Bytes returns the element width in bytes.
func (s ScalarType) Bytes() int {
	if s == Float32 {
		return 4
	}
	return 8
}

// ScalarOf maps a Go scalar type onto its archive code.
func ScalarOf[T grid.Scalar]() ScalarType {
	var z T
	if _, ok := any(z).(float32); ok {
		return Float32
	}
	return Float64
}

// DefaultProgressiveThreshold is the minimum number of elements a level
// must have to be bitplane-progressive. Smaller (coarser) levels are always
// loaded in full: they are cheap, and their truncation error would be
// amplified through every finer level.
const DefaultProgressiveThreshold = 4096

// Options configures compression.
type Options struct {
	// ErrorBound is the point-wise absolute error bound eb (> 0).
	ErrorBound float64
	// Interpolation selects linear or cubic prediction. Cubic is the
	// paper's default and almost always wins on smooth scientific data.
	Interpolation interp.Kind
	// ProgressiveThreshold overrides DefaultProgressiveThreshold when > 0.
	ProgressiveThreshold int
}

// levelMeta is the per-level bookkeeping stored in the header.
type levelMeta struct {
	count      int       // number of elements in the level
	outlierIdx []uint32  // positions (in level visit order) escaped losslessly
	outlierVal []float64 // their exact values
	usedPlanes int       // number of stored MSB-first planes (0..32)
	blockSizes []uint32  // compressed size of each stored plane, MSB first
	maxDrop    []uint32  // maxDrop[d], d=0..usedPlanes: exact truncation loss
}

// header is the always-loaded portion of an archive.
type header struct {
	// version is the format version of the serialized bytes: chosen by
	// marshal (the lowest that can represent the archive), recorded from
	// the parsed byte on read — a v2 archive that declares Float64 is
	// legal and must report as v2, not as what the encoder would emit.
	version uint8
	kind    interp.Kind
	scalar  ScalarType
	shape   grid.Shape
	eb      float64
	// maxAbs is the largest absolute input value, recorded by v2 (float32)
	// archives so the optimizer can bound the per-level float32 rounding of
	// truncated reconstructions (see Archive.roundSlack). Zero for v1.
	maxAbs float64
	levels int // L
	prog   int // Lp: levels 1..prog are progressive
	// anchors and the outlier values below are held as float64 in memory
	// for both scalar types — float32 values widen losslessly — and are
	// serialized at the archive's native width.
	anchors []float64
	meta    []levelMeta // index 0 -> level 1 (finest) ... levels-1 -> level L
	// headerSize is the serialized header length; block offsets are
	// relative to this.
	headerSize int64
	// blockOff[l][p] is the absolute offset of level (l+1)'s plane p block.
	blockOff [][]int64
}

func (h *header) metaOf(level int) *levelMeta { return &h.meta[level-1] }

// computeOffsets fills blockOff from the block sizes, laying blocks out
// coarse level first, MSB plane first — the order a monotone refinement
// reads them.
func (h *header) computeOffsets() {
	h.blockOff = make([][]int64, h.levels)
	off := h.headerSize
	for l := h.levels; l >= 1; l-- {
		m := h.metaOf(l)
		offs := make([]int64, m.usedPlanes)
		for p := 0; p < m.usedPlanes; p++ {
			offs[p] = off
			off += int64(m.blockSizes[p])
		}
		h.blockOff[l-1] = offs
	}
}

// planeSpan returns the archive range that holds the blocks of planes
// [have, want) of a level; they are adjacent by construction.
func (h *header) planeSpan(level, have, want int) (off, n int64) {
	offs := h.blockOff[level-1]
	return offs[have], offs[want-1] - offs[have] + int64(h.metaOf(level).blockSizes[want-1])
}

// planeBytes is the size of one of the level's planes: a bit per value.
func (m *levelMeta) planeBytes() int { return (m.count + 7) / 8 }

// planeStride is the distance between the level's planes in every plane
// backing, Compress's split and a result's alike. Rows of at most 128
// bytes are packed back to back: the 32 of them fit in one 4 KiB way of a
// 64-set first-level cache, so no two different lines compete for a set.
// Longer rows are rounded up to an odd number of 64-byte lines, at most
// 127 bytes more: rows a multiple of 4 KiB apart all fall in one set, and
// the split and the merge touch every row at once; with an odd line count
// the 32 rows fall in 32 different sets.
func (m *levelMeta) planeStride() int { return planeStride(m.planeBytes()) }

func planeStride(planeBytes int) int {
	if planeBytes <= 128 {
		return planeBytes
	}
	return ((planeBytes+63)/64 | 1) * 64
}

// plane returns plane p of the level from the level's slots of a plane
// backing: planeBytes bytes at p·planeStride.
func (m *levelMeta) plane(slots []byte, p int) []byte {
	off, n := p*m.planeStride(), m.planeBytes()
	return slots[off : off+n : off+n]
}

// planeSlots is the size of a backing with a slot for every stored plane
// of every level (Result.planes). It is bounded by checks already made:
// m.count is the decomposition's own count for the level
// (retrieveStatsAs) and a level stores at most 32 planes (parse).
func (h *header) planeSlots() int {
	n := 0
	for i := range h.meta {
		n += h.meta[i].usedPlanes * h.meta[i].planeStride()
	}
	return n
}

// levelSlots returns level l's slots of such a backing: its usedPlanes
// planes, MSB plane first (levelMeta.plane), the finest level's slots
// first in the backing.
func (h *header) levelSlots(planes []byte, level int) []byte {
	off := 0
	for l := 1; l < level; l++ {
		off += h.metaOf(l).usedPlanes * h.metaOf(l).planeStride()
	}
	n := h.metaOf(level).usedPlanes * h.metaOf(level).planeStride()
	return planes[off : off+n : off+n]
}

// totalSize returns the full archive size in bytes.
func (h *header) totalSize() int64 {
	size := h.headerSize
	for _, m := range h.meta {
		for _, s := range m.blockSizes {
			size += int64(s)
		}
	}
	return size
}

func (h *header) marshal() []byte {
	version := uint8(Version1)
	if h.scalar != Float64 {
		version = Version
	}
	h.version = version
	// Lossless values (anchors, outliers) are stored at the archive's
	// native width: float32 archives lose nothing by storing 4 bytes.
	val := func(b []byte, v float64) []byte {
		if h.scalar == Float32 {
			return le.AppendF32(b, float32(v))
		}
		return le.AppendF64(b, v)
	}
	// The header is prefixed with its own length so readers know where
	// blocks start: 8-byte little-endian length, then the payload.
	b := binary.LittleEndian.AppendUint32(make([]byte, 8, 64), Magic)
	// v1's reserved byte is the scalar type: Float64 is 0, so v1 bytes match.
	b = append(b, version, uint8(h.kind), uint8(len(h.shape)), uint8(h.scalar))
	for _, d := range h.shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	b = le.AppendF64(b, h.eb)
	if version >= Version {
		b = val(b, h.maxAbs) // v2 only: keeps v1 bytes identical
	}
	b = append(b, uint8(h.levels), uint8(h.prog))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h.anchors)))
	for _, a := range h.anchors {
		b = val(b, a)
	}
	for l := 1; l <= h.levels; l++ {
		m := h.metaOf(l)
		b = binary.LittleEndian.AppendUint32(b, uint32(m.count))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(m.outlierIdx)))
		for i := range m.outlierIdx {
			b = binary.LittleEndian.AppendUint32(b, m.outlierIdx[i])
			b = val(b, m.outlierVal[i])
		}
		b = append(b, uint8(m.usedPlanes))
		for _, s := range m.blockSizes {
			b = binary.LittleEndian.AppendUint32(b, s)
		}
		for _, d := range m.maxDrop {
			b = binary.LittleEndian.AppendUint32(b, d)
		}
	}
	binary.LittleEndian.PutUint64(b, uint64(len(b)-8))
	return b
}

var errTruncated = errors.New("core: truncated archive header")

// unmarshalHeader parses a header payload: the serialized header after
// its 8-byte length prefix, which must hold nothing else.
func unmarshalHeader(payload []byte) (*header, error) {
	r := le.NewReader(payload, errTruncated)
	magic, version, kind, ndims, scalar := r.U32(), r.U8(), r.U8(), r.U8(), ScalarType(r.U8())
	if r.Err != nil {
		return nil, r.Err
	}
	if magic != Magic {
		return nil, fmt.Errorf("core: bad magic %#x", magic)
	}
	if version != Version1 && version != Version && version != Version3 {
		return nil, fmt.Errorf("core: unsupported archive version %d", version)
	}
	if scalar != Float64 && scalar != Float32 {
		return nil, fmt.Errorf("core: unknown scalar type %d", scalar)
	}
	if version == Version1 && scalar != Float64 {
		return nil, fmt.Errorf("core: version 1 archive declares scalar type %d", scalar)
	}
	if ndims == 0 || int(ndims) > grid.MaxDims {
		return nil, fmt.Errorf("core: invalid rank %d", ndims)
	}
	h := &header{version: version, kind: interp.Kind(kind), scalar: scalar}
	// val reads one lossless value at the archive's native width, widened
	// to float64 (exact for both scalar types).
	val := r.F64
	if scalar == Float32 {
		val = func() float64 { return float64(r.F32()) }
	}
	h.shape = make(grid.Shape, ndims)
	for i := range h.shape {
		h.shape[i] = int(r.U32())
	}
	h.eb = r.F64()
	if r.Err != nil {
		return nil, r.Err
	}
	if err := h.shape.Validate(); err != nil {
		return nil, err
	}
	if !(h.eb > 0) || math.IsInf(h.eb, 1) {
		return nil, fmt.Errorf("core: error bound %v is not positive and finite", h.eb)
	}
	if version >= Version {
		h.maxAbs = val()
		// A magnitude is non-negative by construction; a negative value
		// would flip roundSlack's sign and silently loosen every truncated
		// plan's guarantee, so reject it here like every other semantic
		// header field. (+Inf/NaN are in-spec for non-finite data — they
		// make truncated-plan guarantees infinite, which is honest. The
		// comparison is phrased so NaN passes: NaN < 0 is false.)
		if r.Err == nil && h.maxAbs < 0 {
			return nil, fmt.Errorf("core: negative max-magnitude field %v", h.maxAbs)
		}
	}
	if version >= Version3 {
		// The policy an earlier writer ran under: 0 deflate, 1 auto.
		// Decoding does not depend on it — every block names its own
		// method — but an unknown policy ID is refused.
		if cp := r.U8(); cp > 1 {
			return nil, fmt.Errorf("core: unknown codec policy %d", cp)
		}
	}
	h.levels, h.prog = int(r.U8()), int(r.U8())
	nanchor := int(r.U32())
	if r.Err != nil {
		return nil, r.Err
	}
	if h.levels < 1 || h.prog > h.levels {
		return nil, fmt.Errorf("core: invalid level counts L=%d Lp=%d", h.levels, h.prog)
	}
	if !r.Fits(nanchor, scalar.Bytes()) {
		return nil, errTruncated
	}
	h.anchors = make([]float64, nanchor)
	for i := range h.anchors {
		h.anchors[i] = val()
	}
	h.meta = make([]levelMeta, h.levels)
	for l := 1; l <= h.levels; l++ {
		m := h.metaOf(l)
		m.count = int(r.U32())
		nout := int(r.U32())
		if !r.Fits(nout, 4+scalar.Bytes()) {
			return nil, errTruncated
		}
		m.outlierIdx = make([]uint32, nout)
		m.outlierVal = make([]float64, nout)
		for i := range m.outlierIdx {
			m.outlierIdx[i] = r.U32()
			m.outlierVal[i] = val()
		}
		m.usedPlanes = int(r.U8())
		if r.Err != nil {
			return nil, r.Err
		}
		if m.usedPlanes > 32 {
			return nil, fmt.Errorf("core: level %d has %d planes", l, m.usedPlanes)
		}
		m.blockSizes = make([]uint32, m.usedPlanes)
		for p := range m.blockSizes {
			m.blockSizes[p] = r.U32()
		}
		m.maxDrop = make([]uint32, m.usedPlanes+1)
		for d := range m.maxDrop {
			m.maxDrop[d] = r.U32()
		}
	}
	if r.Err != nil {
		return nil, r.Err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after archive header", r.Len())
	}
	h.headerSize = int64(8 + len(payload))
	h.computeOffsets()
	return h, nil
}
