// Package codec provides the lossless back end of the compressors in this
// repository: one block coder (block.go) that stores each bitplane as an
// all-zero tag, verbatim, or as DEFLATE — where the paper's implementation
// uses zstd (the Go standard library has no zstd; both are LZ77-family
// pattern extractors). DEFLATE is this package's own encoder (deflate.go,
// byte for byte compress/flate at level 1, "best speed", which
// approximates zstd's default-speed behaviour far better than DEFLATE's
// default level 6) and decoder (inflate.go). Two more block methods are
// decoded but never written: a byte-alphabet Huffman coding and a
// zero-run coding, kept so archives from releases that chose them per
// plane stay readable. (The int32 Huffman coder of the SZ3-lite and
// SPERR-lite baselines is internal/baselines/huffman.)
package codec

// Deflate compresses src with DEFLATE: the stream compress/flate writes at
// level 1. Writers reach the encoder through EncodeBlock; Deflate is
// exported so that core's tests can hold it to compress/flate on every
// plane of a real archive, the planes EncodeBlock stores raw included.
func Deflate(src []byte) []byte {
	d := deflaterPool.Get().(*deflater)
	out := append([]byte(nil), d.deflate(src)...)
	deflaterPool.Put(d)
	return out
}

// Block coding — the per-plane method tag, the encode policies, and the
// per-method byte counters — lives in block.go.
