// Package codec provides the lossless back ends used by the compressors in
// this repository: DEFLATE where the paper's implementation uses zstd (the
// Go standard library has no zstd; both are LZ77-family pattern extractors)
// — this package's own encoder (deflate.go, byte for byte compress/flate at
// level 1, "best speed", which approximates zstd's default-speed behaviour
// far better than DEFLATE's default level 6) and decoder (inflate.go) — a
// byte-alphabet Huffman coder for mid-entropy bitplanes, and a byte-oriented
// run-length coder for sparse ones. (The int32 Huffman coder of the
// SZ3-lite and SPERR-lite baselines is internal/baselines/huffman.)
package codec

// Deflate compresses src with DEFLATE: the stream compress/flate writes at
// level 1.
func Deflate(src []byte) []byte {
	d := deflaterPool.Get().(*deflater)
	out := append([]byte(nil), d.deflate(src)...)
	deflaterPool.Put(d)
	return out
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
