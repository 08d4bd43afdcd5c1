// Package codec provides the lossless back ends used by the compressors in
// this repository: DEFLATE where the paper's implementation uses zstd (the
// Go standard library has no zstd; both are LZ77-family pattern extractors)
// — compress/flate's encoder at level 1 and this package's own decoder
// (inflate.go) — a byte-alphabet Huffman coder for mid-entropy bitplanes,
// and a byte-oriented run-length coder for sparse ones. (The int32 Huffman
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

// Inflate decompresses a DEFLATE stream whose decompressed size is exactly
// dstSize; a stream that decodes to more or fewer bytes is an error.
func Inflate(src []byte, dstSize int) ([]byte, error) {
	dst := make([]byte, dstSize)
	if err := inflateInto(dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// Block coding — the per-plane method tag, the encode policies, and the
// per-method byte counters — lives in block.go.
