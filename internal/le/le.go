// Package le reads the little-endian binary formats of this repository —
// archive headers, container preambles, footers and indexes, CAS
// manifests, planes frame headers and refine tokens — through one
// bounds-checked cursor. Writers need no counterpart: they append with
// encoding/binary's LittleEndian.Append* functions, and AppendF32 and
// AppendF64 below for floats.
package le

import (
	"encoding/binary"
	"math"
)

// Reader is a cursor over a byte slice. Its error is sticky: the first
// read that runs past the end sets Err to the truncation error the Reader
// was made with, and that read and every later one return zero values. A
// parser can therefore read a run of fields and check Err once — but
// before it validates any of them, so that truncated input reports
// truncation rather than a complaint about a zero value.
type Reader struct {
	b         []byte
	truncated error
	// Err is nil until a read runs past the end of the input.
	Err error
}

// NewReader returns a cursor over b whose short reads set Err to
// truncated, the format's own truncation error.
func NewReader(b []byte, truncated error) *Reader {
	return &Reader{b: b, truncated: truncated}
}

// Len returns the number of unread bytes; zero once Err is set.
func (r *Reader) Len() int { return len(r.b) }

// Bytes returns the next n bytes, aliasing the input, or nil if fewer
// than n remain or n is negative.
func (r *Reader) Bytes(n int) []byte {
	if r.Err != nil || n < 0 || n > len(r.b) {
		r.fail()
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *Reader) fail() {
	if r.Err == nil {
		r.Err = r.truncated
	}
	r.b = nil
}

// Fits reports whether the unread bytes hold n entries of size bytes
// each (size > 0). It is the guard for a count read from input before
// the count sizes an allocation: a forged count must not allocate more
// than the input could describe.
func (r *Reader) Fits(n, size int) bool {
	return n >= 0 && size > 0 && n <= len(r.b)/size
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F32 reads a little-endian IEEE 754 float32.
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// F64 reads a little-endian IEEE 754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// AppendF32 appends the little-endian encoding of v to b.
func AppendF32(b []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
}

// AppendF64 appends the little-endian encoding of v to b.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
