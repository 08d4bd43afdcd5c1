package codec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Block wraps a payload with a 1-byte method tag so the cheapest storage
// form is chosen per block. The low nibble of the tag selects the method;
// the high nibble is reserved and must be zero. This mirrors what real
// compressors do for incompressible bitplanes (e.g. the sign-noise LSBs).
const (
	methodRaw      = 0 // payload verbatim
	methodDeflate  = 1 // DEFLATE stream (compress/flate level 1, deflate.go)
	methodZero     = 2 // all-zero payload, no body
	methodRLE      = 3 // zero-run / literal-run coding (sparse planes)
	methodReserved = 4 // never emitted; a decoder refuses it
	methodHuff     = 5 // byte-alphabet canonical Huffman (mid-entropy planes)

	numMethods = 6
)

// methodNames index by method tag; exported via Stats.
var methodNames = [numMethods]string{"raw", "deflate", "zero", "rle", "reserved", "huff"}

// A Policy selects the family of block methods an encoder may emit.
// Decoders accept every non-reserved method regardless of policy, so any
// reader can open any archive.
type Policy uint8

const (
	// Deflate is the legacy policy: zero / DEFLATE / raw, whichever is
	// smaller. Archives encoded under it are byte-identical to format v1/v2
	// output, so it is the default.
	PolicyDeflate Policy = 0
	// Auto routes each plane by a cheap byte-histogram entropy estimate:
	// near-incompressible planes skip DEFLATE entirely (raw), sparse planes
	// also try RLE, and everything else falls back to the Deflate policy.
	// Ratio stays within the estimator's margin of legacy; encode time
	// drops on high-entropy planes, which dominate deep bitplanes.
	PolicyAuto Policy = 1

	numPolicies = 2
)

// String returns the CLI / stats spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyDeflate:
		return "deflate"
	case PolicyAuto:
		return "auto"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Valid reports whether p is a known policy ID: one EncodeBlockPolicy can
// emit blocks under and an archive header may declare.
func (p Policy) Valid() bool { return p < numPolicies }

// ParsePolicy parses the CLI spelling of a policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "deflate", "":
		return PolicyDeflate, nil
	case "auto":
		return PolicyAuto, nil
	}
	return PolicyDeflate, fmt.Errorf("codec: unknown policy %q (want deflate or auto)", s)
}

// EncodeBlock stores src in whichever of zero/raw/DEFLATE form is smaller.
// All-zero payloads (empty bitplanes) collapse to a single tag byte. The
// returned block is the only allocation. This is the Deflate policy; its
// output is pinned byte-for-byte by the golden-SHA archive tests.
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

// EncodeBlockPolicy stores src under the given policy. Deflate defers to
// EncodeBlock; Auto may additionally emit RLE blocks and may skip the
// DEFLATE attempt on planes whose byte entropy says it cannot win.
func EncodeBlockPolicy(src []byte, policy Policy) []byte {
	if policy != PolicyAuto {
		return EncodeBlock(src)
	}
	var hist [256]int
	for _, b := range src {
		hist[b]++
	}
	n := len(src)
	if hist[0] == n {
		return count(opEncode, []byte{methodZero})
	}
	// Sparse plane: mostly zero bytes, but not entirely. RLE beats DEFLATE's
	// per-block overhead here and decodes with no bit-level work; still race
	// it against DEFLATE (cheap on near-zero input) and keep the smaller.
	if hist[0] >= n-n/16 {
		rle := rleEncode(src)
		best := rawBlock(src)
		if rle != nil && len(rle) < len(best) {
			best = rle
		}
		if blk := deflateBlock(src, len(best)); blk != nil {
			best = blk
		}
		return count(opEncode, best)
	}
	// High-entropy plane: the order-0 estimate says no literal coder can
	// reclaim its own overhead, and bitplane bytes carry no long-range
	// matches for an LZ stage to find. Store raw without trying.
	est := estimatedBits(&hist, n)
	if est >= n*8*rawEntropyPct/100 {
		return count(opEncode, rawBlock(src))
	}
	// Mid-entropy plane: order-0 Huffman reaches DEFLATE's ratio here —
	// after XOR prediction these planes have no matches, only a skewed byte
	// distribution — at a fraction of its per-block table cost. Only when
	// the estimate says the plane is *highly* compressible is there likely
	// structure beyond order-0, and DEFLATE gets its shot too.
	best := huffEncode(src, &hist)
	if best == nil {
		best = rawBlock(src)
	}
	if est <= n*8*lzEntropyPct/100 {
		if blk := deflateBlock(src, len(best)); blk != nil {
			best = blk
		}
	}
	return count(opEncode, best)
}

// rawEntropyPct is the Auto routing threshold: if the order-0 entropy
// estimate is at least this percentage of the raw size, entropy coding is
// skipped. 97% leaves room for the estimator's own bias; planes this close
// to incompressible never repay the encode time even when a coder shaves a
// fraction of a percent.
const rawEntropyPct = 97

// lzEntropyPct is the threshold below which Auto also races DEFLATE
// against the Huffman coder: an estimate this far under raw hints at
// repeating structure the order-0 coder cannot see.
const lzEntropyPct = 55

// rawBlock wraps src verbatim behind a raw tag.
func rawBlock(src []byte) []byte {
	out := make([]byte, 1+len(src))
	out[0] = methodRaw
	copy(out[1:], src)
	return out
}

// DecodeBlock inverts EncodeBlock / EncodeBlockPolicy; dstSize is the
// expected payload size. It returns an error — never panics — on
// truncated, oversized, or method-garbage blocks.
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

// rleEncode codes src as alternating (zero-run, literal-run) uvarint pairs:
//
//	{ uvarint zeros; uvarint litLen; litLen literal bytes }*
//
// with the runs summing exactly to len(src). Zero runs shorter than
// rleMinRun are folded into the surrounding literals so a lone zero does
// not cost a pair. Returns nil when the coded form would not beat raw.
func rleEncode(src []byte) []byte {
	const rleMinRun = 4
	buf := make([]byte, 1, 64)
	buf[0] = methodRLE
	var tmp [2 * binary.MaxVarintLen64]byte
	i, n := 0, len(src)
	for i < n {
		z := i
		for z < n && src[z] == 0 {
			z++
		}
		zeros := z - i
		// Literal segment: run until the next zero run long enough to pay
		// for a fresh pair, or end of input.
		lit := z
		for lit < n {
			if src[lit] != 0 {
				lit++
				continue
			}
			r := lit
			for r < n && src[r] == 0 {
				r++
			}
			if r-lit >= rleMinRun || r == n {
				break
			}
			lit = r
		}
		k := binary.PutUvarint(tmp[:], uint64(zeros))
		k += binary.PutUvarint(tmp[k:], uint64(lit-z))
		buf = append(buf, tmp[:k]...)
		buf = append(buf, src[z:lit]...)
		if len(buf) >= 1+n {
			return nil
		}
		i = lit
	}
	return buf
}

// rleDecode inverts rleEncode into dst. Every length is bounds-checked
// against len(dst) so corrupt input errors instead of panicking.
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

// estimatedBits returns the order-0 (Shannon, byte alphabet) information
// content of a block with the given histogram, in bits. All-integer
// fixed-point arithmetic (1/256-bit units internally) keeps the Auto
// routing decision — and therefore the archive bytes — identical on every
// platform; a float log here could flip a borderline plane between raw and
// DEFLATE across architectures.
func estimatedBits(hist *[256]int, n int) int {
	if n == 0 {
		return 0
	}
	logN := fixLog2(uint64(n))
	var total int64
	for _, c := range hist {
		if c == 0 {
			continue
		}
		total += int64(c) * int64(logN-fixLog2(uint64(c)))
	}
	return int(total >> 8)
}

// fixLog2 returns log2(x) in 1/256-bit units for x >= 1, using the top 8
// fractional mantissa bits through a precomputed table (max error well
// under 1/256 of a bit — irrelevant at the whole-plane scale it feeds).
func fixLog2(x uint64) int {
	msb := bits.Len64(x) - 1
	var frac int
	if msb > 0 {
		if msb >= 8 {
			frac = int(x>>(msb-8)) & 0xFF
		} else {
			frac = int(x<<(8-msb)) & 0xFF
		}
	}
	return msb<<8 + int(log2Table[frac])
}

// log2Table[i] = round(256 * log2(1 + i/256)), precomputed so no float
// math runs at encode time.
var log2Table = [256]uint8{
	0, 1, 3, 4, 6, 7, 9, 10,
	11, 13, 14, 16, 17, 18, 20, 21,
	22, 24, 25, 26, 28, 29, 30, 32,
	33, 34, 36, 37, 38, 40, 41, 42,
	44, 45, 46, 47, 49, 50, 51, 52,
	54, 55, 56, 57, 59, 60, 61, 62,
	63, 65, 66, 67, 68, 69, 71, 72,
	73, 74, 75, 77, 78, 79, 80, 81,
	82, 84, 85, 86, 87, 88, 89, 90,
	92, 93, 94, 95, 96, 97, 98, 99,
	100, 102, 103, 104, 105, 106, 107, 108,
	109, 110, 111, 112, 113, 114, 116, 117,
	118, 119, 120, 121, 122, 123, 124, 125,
	126, 127, 128, 129, 130, 131, 132, 133,
	134, 135, 136, 137, 138, 139, 140, 141,
	142, 143, 144, 145, 146, 147, 148, 149,
	150, 151, 152, 153, 154, 155, 155, 156,
	157, 158, 159, 160, 161, 162, 163, 164,
	165, 166, 167, 168, 169, 169, 170, 171,
	172, 173, 174, 175, 176, 177, 178, 178,
	179, 180, 181, 182, 183, 184, 185, 185,
	186, 187, 188, 189, 190, 191, 192, 192,
	193, 194, 195, 196, 197, 198, 198, 199,
	200, 201, 202, 203, 203, 204, 205, 206,
	207, 208, 208, 209, 210, 211, 212, 212,
	213, 214, 215, 216, 216, 217, 218, 219,
	220, 220, 221, 222, 223, 224, 224, 225,
	226, 227, 228, 228, 229, 230, 231, 231,
	232, 233, 234, 234, 235, 236, 237, 238,
	238, 239, 240, 241, 241, 242, 243, 244,
	244, 245, 246, 247, 247, 248, 249, 249,
	250, 251, 252, 252, 253, 254, 255, 255,
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
