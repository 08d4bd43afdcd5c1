// Package codec provides the lossless back ends used by the compressors in
// this repository: a DEFLATE wrapper standing in for zstd (the Go standard
// library has no zstd; both are LZ77-family pattern extractors, see
// DESIGN.md), a byte-alphabet Huffman coder for mid-entropy bitplanes, and
// a byte-oriented run-length coder for sparse ones. (The int32 Huffman
// coder of the SZ3-lite and SPERR-lite baselines is internal/huffman.)
package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// flateLevel trades speed for ratio; level 1 ("best speed") approximates
// zstd's default-speed behaviour far better than DEFLATE's default level 6.
const flateLevel = 1

// A flate.Writer carries multi-megabyte internal hash tables, so allocating
// one per block made the encoder the dominant allocation site of the whole
// compressor. Reset makes a pooled writer "equivalent to the result of
// NewWriter" (stdlib contract), so pooling keeps the output bit-identical.
var flateWriterPool = sync.Pool{
	New: func() any {
		w, err := flate.NewWriter(io.Discard, flateLevel)
		if err != nil {
			panic(fmt.Sprintf("codec: flate.NewWriter: %v", err))
		}
		return w
	},
}

// flateReaderPool reuses inflate state the same way; flate.NewReader's
// return value always implements flate.Resetter.
var flateReaderPool = sync.Pool{
	New: func() any { return flate.NewReader(bytes.NewReader(nil)) },
}

// deflateInto appends the DEFLATE stream of src to buf. It never fails for
// in-memory writers; any internal error indicates a programming bug and
// panics.
func deflateInto(buf *bytes.Buffer, src []byte) {
	w := flateWriterPool.Get().(*flate.Writer)
	w.Reset(buf)
	if _, err := w.Write(src); err != nil {
		panic(fmt.Sprintf("codec: flate write: %v", err))
	}
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("codec: flate close: %v", err))
	}
	// Detach from buf before pooling so an idle pool entry does not pin
	// the caller's buffer.
	w.Reset(io.Discard)
	flateWriterPool.Put(w)
}

// Deflate compresses src with DEFLATE.
func Deflate(src []byte) []byte {
	var buf bytes.Buffer
	deflateInto(&buf, src)
	return buf.Bytes()
}

// Inflate decompresses a Deflate-produced block. dstSize is the expected
// decompressed size and is validated.
func Inflate(src []byte, dstSize int) ([]byte, error) {
	r := flateReaderPool.Get().(io.ReadCloser)
	defer func() {
		// Detach from src before pooling: the source is often a pooled span
		// buffer or a whole in-memory archive that must not stay pinned by
		// an idle pool entry.
		_ = r.(flate.Resetter).Reset(bytes.NewReader(nil), nil)
		flateReaderPool.Put(r)
	}()
	if err := r.(flate.Resetter).Reset(bytes.NewReader(src), nil); err != nil {
		return nil, fmt.Errorf("codec: inflate reset: %w", err)
	}
	dst := make([]byte, dstSize)
	if _, err := io.ReadFull(r, dst); err != nil {
		return nil, fmt.Errorf("codec: inflate: %w", err)
	}
	// Make sure there is no trailing garbage beyond the declared size.
	var tail [1]byte
	if n, _ := r.Read(tail[:]); n != 0 {
		return nil, fmt.Errorf("codec: inflate: block longer than declared %d bytes", dstSize)
	}
	return dst, nil
}

// Block coding — the per-plane method tag, the encode policies, and the
// per-method byte counters — lives in block.go.
