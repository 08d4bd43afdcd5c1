package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/interp"
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

// BoundMode selects how the optimizer weighs the truncation loss of coarse
// levels when predicting the final L∞ error.
type BoundMode uint8

const (
	// SafeBound uses the conservative per-level weight
	// (p^D)^(l-1) · (1+p+...+p^(D-1)) that accounts for dimension-by-
	// dimension prediction inside a level. Retrieval error bounds are hard
	// guarantees under this mode. This is the default.
	SafeBound BoundMode = iota
	// PaperBound uses the paper's Eq. (5) weight p^(l-1), which assumes a
	// single prediction application per level. It loads less data but the
	// guarantee relies on errors not compounding within a level.
	PaperBound
)

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
	var buf bytes.Buffer
	w := func(v interface{}) { binary.Write(&buf, binary.LittleEndian, v) }
	// Lossless values (anchors, outliers) are stored at the archive's
	// native width: float32 archives lose nothing by storing 4 bytes.
	wval := func(v float64) {
		if h.scalar == Float32 {
			w(float32(v))
		} else {
			w(v)
		}
	}
	version := uint8(Version1)
	if h.scalar != Float64 {
		version = Version
	}
	h.version = version
	w(uint32(Magic))
	w(version)
	w(uint8(h.kind))
	w(uint8(len(h.shape)))
	w(uint8(h.scalar)) // v1's reserved byte: Float64 is 0, so v1 bytes match
	for _, d := range h.shape {
		w(uint32(d))
	}
	w(h.eb)
	if version >= Version {
		wval(h.maxAbs) // v2 only: keeps v1 bytes identical
	}
	w(uint8(h.levels))
	w(uint8(h.prog))
	w(uint32(len(h.anchors)))
	for _, a := range h.anchors {
		wval(a)
	}
	for l := 1; l <= h.levels; l++ {
		m := h.metaOf(l)
		w(uint32(m.count))
		w(uint32(len(m.outlierIdx)))
		for i := range m.outlierIdx {
			w(m.outlierIdx[i])
			wval(m.outlierVal[i])
		}
		w(uint8(m.usedPlanes))
		for _, s := range m.blockSizes {
			w(s)
		}
		for _, d := range m.maxDrop {
			w(d)
		}
	}
	// Prefix the header with its own length so readers know where blocks
	// start: 8-byte little-endian length, then the payload above.
	out := make([]byte, 8+buf.Len())
	binary.LittleEndian.PutUint64(out, uint64(buf.Len()))
	copy(out[8:], buf.Bytes())
	return out
}

var errTruncated = errors.New("core: truncated archive header")

type reader struct {
	b   []byte
	pos int
}

func (r *reader) bytes(n int) ([]byte, error) {
	if r.pos+n > len(r.b) {
		return nil, errTruncated
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

// holds reports whether the unread part of the header is long enough for
// n entries of the given size. A count is believed only then: it sizes an
// allocation, and the header may be forged.
func (r *reader) holds(n uint32, size int) bool {
	return uint64(n)*uint64(size) <= uint64(len(r.b)-r.pos)
}

func (r *reader) u8() (uint8, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) f64() (float64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// val reads one lossless value at the archive's native width, widened to
// float64 (exact for both scalar types).
func (r *reader) val(s ScalarType) (float64, error) {
	if s == Float32 {
		b, err := r.bytes(4)
		if err != nil {
			return 0, err
		}
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(b))), nil
	}
	return r.f64()
}

// unmarshalHeader parses a serialized header (including the length prefix).
func unmarshalHeader(raw []byte) (*header, error) {
	if len(raw) < 8 {
		return nil, errTruncated
	}
	payloadLen := binary.LittleEndian.Uint64(raw)
	if uint64(len(raw)-8) < payloadLen {
		return nil, errTruncated
	}
	r := &reader{b: raw[8 : 8+payloadLen]}
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, fmt.Errorf("core: bad magic %#x", magic)
	}
	version, err := r.u8()
	if err != nil {
		return nil, err
	}
	if version != Version1 && version != Version && version != Version3 {
		return nil, fmt.Errorf("core: unsupported archive version %d", version)
	}
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	ndims, err := r.u8()
	if err != nil {
		return nil, err
	}
	scalar, err := r.u8() // v1: reserved (always 0 == Float64)
	if err != nil {
		return nil, err
	}
	if ScalarType(scalar) != Float64 && ScalarType(scalar) != Float32 {
		return nil, fmt.Errorf("core: unknown scalar type %d", scalar)
	}
	if version == Version1 && ScalarType(scalar) != Float64 {
		return nil, fmt.Errorf("core: version 1 archive declares scalar type %d", scalar)
	}
	if ndims == 0 || int(ndims) > grid.MaxDims {
		return nil, fmt.Errorf("core: invalid rank %d", ndims)
	}
	h := &header{version: version, kind: interp.Kind(kind), scalar: ScalarType(scalar)}
	h.shape = make(grid.Shape, ndims)
	for i := range h.shape {
		d, err := r.u32()
		if err != nil {
			return nil, err
		}
		h.shape[i] = int(d)
	}
	if err := h.shape.Validate(); err != nil {
		return nil, err
	}
	if h.eb, err = r.f64(); err != nil {
		return nil, err
	}
	if version >= Version {
		if h.maxAbs, err = r.val(h.scalar); err != nil {
			return nil, err
		}
		// A magnitude is non-negative by construction; a negative value
		// would flip roundSlack's sign and silently loosen every truncated
		// plan's guarantee, so reject it here like every other semantic
		// header field. (+Inf/NaN are in-spec for non-finite data — they
		// make truncated-plan guarantees infinite, which is honest. The
		// comparison is phrased so NaN passes: NaN < 0 is false.)
		if h.maxAbs < 0 {
			return nil, fmt.Errorf("core: negative max-magnitude field %v", h.maxAbs)
		}
	}
	if version >= Version3 {
		cp, err := r.u8()
		if err != nil {
			return nil, err
		}
		// The policy an earlier writer ran under: 0 deflate, 1 auto.
		// Decoding does not depend on it — every block names its own
		// method — but an unknown policy ID is refused.
		if cp > 1 {
			return nil, fmt.Errorf("core: unknown codec policy %d", cp)
		}
	}
	lv, err := r.u8()
	if err != nil {
		return nil, err
	}
	pg, err := r.u8()
	if err != nil {
		return nil, err
	}
	h.levels, h.prog = int(lv), int(pg)
	if h.levels < 1 || h.prog > h.levels {
		return nil, fmt.Errorf("core: invalid level counts L=%d Lp=%d", h.levels, h.prog)
	}
	nanchor, err := r.u32()
	if err != nil {
		return nil, err
	}
	if !r.holds(nanchor, h.scalar.Bytes()) {
		return nil, errTruncated
	}
	h.anchors = make([]float64, nanchor)
	for i := range h.anchors {
		if h.anchors[i], err = r.val(h.scalar); err != nil {
			return nil, err
		}
	}
	h.meta = make([]levelMeta, h.levels)
	for l := 1; l <= h.levels; l++ {
		m := h.metaOf(l)
		cnt, err := r.u32()
		if err != nil {
			return nil, err
		}
		m.count = int(cnt)
		nout, err := r.u32()
		if err != nil {
			return nil, err
		}
		if !r.holds(nout, 4+h.scalar.Bytes()) {
			return nil, errTruncated
		}
		m.outlierIdx = make([]uint32, nout)
		m.outlierVal = make([]float64, nout)
		for i := 0; i < int(nout); i++ {
			if m.outlierIdx[i], err = r.u32(); err != nil {
				return nil, err
			}
			if m.outlierVal[i], err = r.val(h.scalar); err != nil {
				return nil, err
			}
		}
		up, err := r.u8()
		if err != nil {
			return nil, err
		}
		m.usedPlanes = int(up)
		if m.usedPlanes > 32 {
			return nil, fmt.Errorf("core: level %d has %d planes", l, m.usedPlanes)
		}
		m.blockSizes = make([]uint32, m.usedPlanes)
		for p := range m.blockSizes {
			if m.blockSizes[p], err = r.u32(); err != nil {
				return nil, err
			}
		}
		m.maxDrop = make([]uint32, m.usedPlanes+1)
		for d := range m.maxDrop {
			if m.maxDrop[d], err = r.u32(); err != nil {
				return nil, err
			}
		}
	}
	h.headerSize = int64(8 + payloadLen)
	h.computeOffsets()
	return h, nil
}
