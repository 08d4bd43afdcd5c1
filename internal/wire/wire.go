// Package wire defines the binary framing of ipcompd's progressive region
// responses (format=planes). A response carries, per intersecting tile,
// the tile's loading plan and the raw archive byte ranges the client is
// missing — compressed bitplane blocks exactly as they sit in the
// container, never re-encoded. The same framing serves fresh retrievals
// (ranges start with the tile's archive header) and refinements (ranges
// cover only the newly selected planes), which is what makes a refinement
// response a strict delta. docs/PROTOCOL.md is the authoritative spec;
// this package is its implementation, shared by internal/server (writer)
// and ipcomp/client (reader).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/le"
)

// Magic opens every planes response ("IPRF" little-endian).
const Magic = 0x46525049

// Version is the framing version.
const Version = 1

// MaxRank bounds the rank field when decoding untrusted frames.
const MaxRank = 16

// RegionHeader is the fixed preamble of a planes response.
type RegionHeader struct {
	Scalar core.ScalarType
	Rank   int
	// Lo, Hi is the region in dataset coordinates.
	Lo, Hi []int
	// Bound is the normalized absolute error bound this response raises
	// the client to; it is also what the refinement token certifies.
	Bound float64
	// Guaranteed is the worst guaranteed L∞ error across the region once
	// the response is applied (tiles the response omits included).
	Guaranteed float64
	// NumChunks is the number of chunk frames that follow.
	NumChunks int
}

// ChunkHeader precedes one tile's spans.
type ChunkHeader struct {
	// Index is the tile's linear index in the dataset's chunk grid.
	Index int
	// Lo, Hi is the tile's box in dataset coordinates.
	Lo, Hi []int
	// BlobSize is the total size of the tile's archive, which a client
	// needs to construct its block source.
	BlobSize int64
	// Keep is the tile's loading plan after this frame is applied.
	Keep []int
	// NumSpans is the number of (offset, length, payload) ranges following.
	NumSpans int
}

// SpanHeader precedes one raw byte range; Len payload bytes follow it.
type SpanHeader struct {
	Off int64
	Len int64
}

// WriteRegionHeader emits the response preamble.
func WriteRegionHeader(w io.Writer, h *RegionHeader) error {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, RegionHeaderSize(len(h.Lo))), Magic)
	b = append(b, Version, uint8(h.Scalar), uint8(h.Rank), 0) // 0: reserved
	b = appendBox(b, h.Lo, h.Hi)
	b = le.AppendF64(b, h.Bound)
	b = le.AppendF64(b, h.Guaranteed)
	b = binary.LittleEndian.AppendUint32(b, uint32(h.NumChunks))
	_, err := w.Write(b)
	return err
}

// appendBox appends a box as its corner and its extents.
func appendBox(b []byte, lo, hi []int) []byte {
	for _, v := range lo {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	for i, v := range hi {
		b = binary.LittleEndian.AppendUint32(b, uint32(v-lo[i]))
	}
	return b
}

// WriteChunkHeader emits one tile's frame header.
func WriteChunkHeader(w io.Writer, h *ChunkHeader) error {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, ChunkHeaderSize(len(h.Lo), len(h.Keep))), uint32(h.Index))
	b = appendBox(b, h.Lo, h.Hi)
	b = binary.LittleEndian.AppendUint64(b, uint64(h.BlobSize))
	b = append(b, uint8(len(h.Keep)))
	for _, k := range h.Keep {
		b = append(b, uint8(k))
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(h.NumSpans))
	_, err := w.Write(b)
	return err
}

// MaxSpanLen is the largest payload one span header can frame (its
// length field is u32). Larger ranges must be split by the sender.
const MaxSpanLen = math.MaxUint32

// WriteSpanHeader emits one range header; the caller streams the payload.
func WriteSpanHeader(w io.Writer, s SpanHeader) error {
	if s.Len < 0 || s.Len > MaxSpanLen {
		return fmt.Errorf("wire: span length %d outside the u32 framing field", s.Len)
	}
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, SpanHeaderSize), uint64(s.Off))
	_, err := w.Write(binary.LittleEndian.AppendUint32(b, uint32(s.Len)))
	return err
}

// RegionHeaderSize returns the encoded preamble size for a rank.
func RegionHeaderSize(rank int) int64 { return 4 + 4 + int64(rank)*8 + 8 + 8 + 4 }

// ChunkHeaderSize returns the encoded chunk frame header size.
func ChunkHeaderSize(rank, levels int) int64 { return 4 + int64(rank)*8 + 8 + 1 + int64(levels) + 2 }

// SpanHeaderSize is the encoded span header size.
const SpanHeaderSize = 12

// maxLevels bounds the level count of a chunk frame when decoding.
const maxLevels = 64

// readFull reads exactly len(b) bytes of the header named what.
func readFull(r io.Reader, b []byte, what string) error {
	if _, err := io.ReadFull(r, b); err != nil {
		return fmt.Errorf("wire: truncated %s header: %w", what, err)
	}
	return nil
}

// readBox reads a box written by appendBox.
func readBox(r *le.Reader, rank int) (lo, hi []int) {
	lo, hi = make([]int, rank), make([]int, rank)
	for i := range lo {
		lo[i] = int(r.U32())
	}
	for i := range hi {
		hi[i] = lo[i] + int(r.U32())
	}
	return lo, hi
}

// ReadRegionHeader parses the response preamble.
func ReadRegionHeader(r io.Reader) (*RegionHeader, error) {
	// The first 8 bytes give the rank; the rank gives the size.
	b := make([]byte, RegionHeaderSize(MaxRank))
	if err := readFull(r, b[:8], "region"); err != nil {
		return nil, err
	}
	lr := le.NewReader(b, errTruncated)
	magic, version := lr.U32(), lr.U8()
	h := &RegionHeader{Scalar: core.ScalarType(lr.U8()), Rank: int(lr.U8())}
	lr.U8() // reserved
	if magic != Magic {
		return nil, fmt.Errorf("wire: bad response magic %#x", magic)
	}
	if version != Version {
		return nil, fmt.Errorf("wire: unsupported frame version %d", version)
	}
	if h.Rank == 0 || h.Rank > MaxRank {
		return nil, fmt.Errorf("wire: invalid rank %d", h.Rank)
	}
	if h.Scalar != core.Float64 && h.Scalar != core.Float32 {
		return nil, fmt.Errorf("wire: unknown scalar type %d", h.Scalar)
	}
	if err := readFull(r, b[8:RegionHeaderSize(h.Rank)], "region"); err != nil {
		return nil, err
	}
	h.Lo, h.Hi = readBox(lr, h.Rank)
	h.Bound, h.Guaranteed = lr.F64(), lr.F64()
	h.NumChunks = int(lr.U32())
	return h, nil
}

// errTruncated is the cursor error of a header buffer, which readFull has
// already filled to the header's size; reaching it is a bug.
var errTruncated = errors.New("wire: header shorter than its size")

// ReadChunkHeader parses one tile frame header.
func ReadChunkHeader(r io.Reader, rank int) (*ChunkHeader, error) {
	// Up to the level count the size is the rank's; the count gives the rest.
	b := make([]byte, ChunkHeaderSize(rank, maxLevels))
	fixed := int(ChunkHeaderSize(rank, 0)) - 2
	if err := readFull(r, b[:fixed], "chunk"); err != nil {
		return nil, err
	}
	nlev := int(b[fixed-1])
	if nlev > maxLevels {
		return nil, fmt.Errorf("wire: implausible level count %d", nlev)
	}
	if err := readFull(r, b[fixed:ChunkHeaderSize(rank, nlev)], "chunk"); err != nil {
		return nil, err
	}
	lr := le.NewReader(b, errTruncated)
	h := &ChunkHeader{Index: int(lr.U32())}
	h.Lo, h.Hi = readBox(lr, rank)
	h.BlobSize = int64(lr.U64())
	h.Keep = make([]int, lr.U8())
	for i := range h.Keep {
		h.Keep[i] = int(lr.U8())
	}
	h.NumSpans = int(lr.U16())
	if h.BlobSize <= 0 {
		return nil, fmt.Errorf("wire: chunk %d declares blob size %d", h.Index, h.BlobSize)
	}
	return h, nil
}

// ReadSpanHeader parses one range header; the caller must then consume
// exactly Len payload bytes.
func ReadSpanHeader(r io.Reader) (SpanHeader, error) {
	var b [SpanHeaderSize]byte
	if err := readFull(r, b[:], "span"); err != nil {
		return SpanHeader{}, err
	}
	lr := le.NewReader(b[:], errTruncated)
	s := SpanHeader{Off: int64(lr.U64()), Len: int64(lr.U32())}
	if s.Off < 0 {
		return s, fmt.Errorf("wire: negative span offset %d", s.Off)
	}
	return s, nil
}
