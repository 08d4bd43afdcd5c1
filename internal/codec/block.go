package codec

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Block wraps a payload with a 1-byte method tag so the cheapest storage
// form is chosen per block. The low nibble of the tag selects the method;
// the high nibble is reserved and must be zero. This mirrors what real
// compressors do for incompressible bitplanes (e.g. the sign-noise LSBs).
// EncodeBlock emits tags 0-2 only; tags 3 and 5 are read-only, kept so
// archives written by earlier releases' "auto" policy stay readable.
const (
	methodRaw      = 0 // payload verbatim
	methodDeflate  = 1 // DEFLATE stream (compress/flate level 1, deflate.go)
	methodZero     = 2 // all-zero payload, no body
	methodRLE      = 3 // zero-run / literal-run coding (read-only)
	methodReserved = 4 // never emitted; a decoder refuses it
	methodHuff     = 5 // byte-alphabet canonical Huffman (read-only)

	numMethods = 6
)

// methodNames index by method tag; exported via Stats.
var methodNames = [numMethods]string{"raw", "deflate", "zero", "rle", "reserved", "huff"}

// EncodeBlock stores src in whichever of zero/raw/DEFLATE form is smaller.
// All-zero payloads (empty bitplanes) collapse to a single tag byte. The
// returned block is the only allocation. Its output is pinned
// byte-for-byte by the golden-SHA archive tests.
func EncodeBlock(src []byte) []byte {
	zero := true
	for _, b := range src {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return count(opEncode, []byte{methodZero})
	}
	if blk := deflateBlock(src, 1+len(src)); blk != nil {
		return count(opEncode, blk)
	}
	return count(opEncode, rawBlock(src))
}

// Policy, PolicyDeflate and EncodeBlockPolicy exist only for
// benchmark/probes.go, which predates the single block coder; the next
// change to the benchmark calls EncodeBlock there and deletes them. Nothing
// else may call them.
type Policy uint8

// PolicyDeflate is the one policy left; see Policy.
const PolicyDeflate Policy = 0

// EncodeBlockPolicy is EncodeBlock; see Policy.
func EncodeBlockPolicy(src []byte, _ Policy) []byte { return EncodeBlock(src) }

// rawBlock wraps src verbatim behind a raw tag.
func rawBlock(src []byte) []byte {
	out := make([]byte, 1+len(src))
	out[0] = methodRaw
	copy(out[1:], src)
	return out
}

// DecodeBlock inverts EncodeBlock, and also decodes the RLE and Huffman
// blocks earlier releases wrote; dstSize is the expected payload size. It
// returns an error — never panics — on truncated, oversized, or
// method-garbage blocks.
func DecodeBlock(blk []byte, dstSize int) ([]byte, error) {
	dst := make([]byte, dstSize)
	if err := DecodeBlockInto(dst, blk); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecodeBlockInto is DecodeBlock into memory the caller owns: the block
// must decode to exactly len(dst) bytes, whatever dst held is overwritten,
// and after an error dst holds garbage.
func DecodeBlockInto(dst, blk []byte) error {
	if len(blk) == 0 {
		return fmt.Errorf("codec: empty block")
	}
	var err error
	switch blk[0] {
	case methodRaw:
		if len(blk)-1 != len(dst) {
			return fmt.Errorf("codec: raw block size %d, want %d", len(blk)-1, len(dst))
		}
		copy(dst, blk[1:])
	case methodDeflate:
		err = inflateInto(dst, blk[1:])
	case methodZero:
		if len(blk) != 1 {
			return fmt.Errorf("codec: zero block carries %d payload bytes", len(blk)-1)
		}
		clear(dst)
	case methodRLE:
		err = rleDecode(dst, blk[1:])
	case methodHuff:
		err = huffDecode(dst, blk[1:])
	case methodReserved:
		return fmt.Errorf("codec: block method %d is reserved", methodReserved)
	default:
		return fmt.Errorf("codec: unknown block method %d", blk[0])
	}
	if err == nil {
		count(opDecode, blk)
	}
	return err
}

// rleDecode decodes an RLE block body into dst. The body is alternating
// (zero-run, literal-run) uvarint pairs, the runs summing exactly to
// len(dst):
//
//	{ uvarint zeros; uvarint litLen; litLen literal bytes }*
//
// Every length is bounds-checked against len(dst) so corrupt input errors
// instead of panicking.
func rleDecode(dst, src []byte) error {
	pos := 0
	for len(src) > 0 {
		zeros, k := binary.Uvarint(src)
		if k <= 0 {
			return fmt.Errorf("codec: rle: bad zero-run varint")
		}
		src = src[k:]
		lit, k := binary.Uvarint(src)
		if k <= 0 {
			return fmt.Errorf("codec: rle: bad literal-run varint")
		}
		src = src[k:]
		if zeros > uint64(len(dst)-pos) || lit > uint64(len(dst)-pos)-zeros {
			return fmt.Errorf("codec: rle: runs exceed declared %d bytes", len(dst))
		}
		if zeros == 0 && lit == 0 {
			return fmt.Errorf("codec: rle: empty run pair")
		}
		clear(dst[pos : pos+int(zeros)])
		pos += int(zeros)
		if uint64(len(src)) < lit {
			return fmt.Errorf("codec: rle: truncated literal run")
		}
		pos += copy(dst[pos:], src[:lit])
		src = src[lit:]
	}
	if pos != len(dst) {
		return fmt.Errorf("codec: rle: block decodes to %d bytes, want %d", pos, len(dst))
	}
	return nil
}

// Per-method compressed-byte counters, exported through /v1/stats and
// /metrics so operators can see the raw-passthrough vs DEFLATE mix in
// production. Counted on every encode and every successful decode, in
// compressed (on-wire) bytes including the tag.
const (
	opEncode = 0
	opDecode = 1
)

var methodBytes [2][numMethods]atomic.Int64

// count attributes a finished block to its method counter and returns the
// block unchanged so encoders can tail-call it.
func count(op int, blk []byte) []byte {
	if len(blk) > 0 && blk[0] < numMethods {
		methodBytes[op][blk[0]].Add(int64(len(blk)))
	}
	return blk
}

// MethodStat reports the compressed bytes handled under one block method.
type MethodStat struct {
	Method       string `json:"method"`
	EncodedBytes int64  `json:"encoded_bytes"`
	DecodedBytes int64  `json:"decoded_bytes"`
}

// Stats snapshots the per-method byte counters, in method-ID order,
// omitting methods this process has never touched.
func Stats() []MethodStat {
	out := make([]MethodStat, 0, numMethods)
	for m := 0; m < numMethods; m++ {
		s := MethodStat{
			Method:       methodNames[m],
			EncodedBytes: methodBytes[opEncode][m].Load(),
			DecodedBytes: methodBytes[opDecode][m].Load(),
		}
		if s.EncodedBytes != 0 || s.DecodedBytes != 0 {
			out = append(out, s)
		}
	}
	return out
}
