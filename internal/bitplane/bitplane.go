package bitplane

import (
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/nb"
)

// Planes is the number of bitplanes per 32-bit integer.
const Planes = 32

// transpose8 transposes an 8×8 bit matrix held in a uint64: row r lives in
// byte (7-r), with column 0 at each byte's most significant bit. Rows and
// columns use the same significance direction, so the standard butterfly
// network (Hacker's Delight §7-3) swaps about the main diagonal.
func transpose8(x uint64) uint64 {
	t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
	x = x ^ t ^ (t << 7)
	t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
	x = x ^ t ^ (t << 14)
	t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
	return x ^ t ^ (t << 28)
}

// Split transposes values into 32 packed bitplanes. Element i of the result
// is the plane for bit (31-i), i.e. planes are ordered MSB first. Each plane
// is packed 8 bits per byte, first value in the most significant bit of
// byte 0, so planes of n values occupy ceil(n/8) bytes.
func Split(values []uint32) [][]byte {
	n := len(values)
	nbytes := (n + 7) / 8
	planes := make([][]byte, Planes)
	backing := make([]byte, Planes*nbytes)
	for p := 0; p < Planes; p++ {
		planes[p] = backing[p*nbytes : (p+1)*nbytes : (p+1)*nbytes]
	}
	SplitRange(planes, values, 0, n)
	return planes
}

// SplitInto transposes values into caller-provided planes: len(planes) must
// be Planes and every plane at least ceil(len(values)/8) bytes. Every plane
// byte in range is overwritten, so pooled backings need no zeroing. Split
// and SplitInto both run on the word-level 8×32 bit-matrix transpose.
func SplitInto(planes [][]byte, values []uint32) {
	if len(planes) != Planes {
		panic("bitplane: SplitInto needs exactly 32 planes")
	}
	SplitRange(planes, values, 0, len(values))
}

// SplitRange transposes the value range [lo, hi) into the planes' byte
// range [lo/8, ceil(hi/8)). lo must be a multiple of 8. Disjoint 8-aligned
// ranges touch disjoint plane bytes, so shards may run concurrently.
//
// On amd64 with AVX2 (and without the purego build tag) the bulk of the
// range runs through the vector kernel in transpose_amd64.s; the scalar
// loop below is the reference implementation, handles the tail, and is the
// only path everywhere else. Both orders produce identical plane bytes.
func SplitRange(planes [][]byte, values []uint32, lo, hi int) {
	splitRange(planes, values, lo, hi, 0, 0)
}

// SplitEncodeRange is the coder's split: it transposes the negabinary codes
// of the quantization indices ks[lo:hi) with the XOR prediction applied on
// the way. Its planes are those of SplitRange over nb.Encode32(ks[i])
// followed by PredictEncode over all 32 of them. Both steps are whole-word
// operations — the encoding is (k + m) ^ m, the prediction commutes with
// the transpose as s = v ^ v>>1 ^ v>>2 — so they cost a few vector ops per
// eight values instead of a pass each. Planes above the codes' top used
// plane stay zero, so the used suffix is exactly what PredictEncode makes
// of it alone.
func SplitEncodeRange(planes [][]byte, ks []int32, lo, hi int) {
	codes := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(ks))), len(ks))
	splitRange(planes, codes, lo, hi, ^uint32(0), nbMask)
}

// nbMask is the negabinary mask of nb.Encode32: (k + nbMask) ^ nbMask.
const nbMask = 0xAAAAAAAA

// splitRange transposes p(e(v)) for each value: e(v) = (v + nbm) ^ nbm
// encodes int32 bits to negabinary when nbm is nbMask and is the identity
// when nbm is zero; p(e) = e ^ (e>>1 ^ e>>2) & pm predicts when pm is all
// ones and is the identity when pm is zero.
func splitRange(planes [][]byte, values []uint32, lo, hi int, pm, nbm uint32) {
	if lo&7 != 0 {
		panic("bitplane: SplitRange start must be 8-aligned")
	}
	if hi > len(values) {
		hi = len(values)
	}
	if lo < hi {
		lo = splitRangeAccel(planes, values, lo, hi, pm, nbm)
	}
	splitRangeGeneric(planes, values, lo, hi, pm, nbm)
}

// splitRangeGeneric is the portable word-at-a-time transpose: one
// transpose8 butterfly per byte-block of eight values.
func splitRangeGeneric(planes [][]byte, values []uint32, lo, hi int, pm, nbm uint32) {
	var vv [8]uint32
	for base := lo; base < hi; base += 8 {
		g := base >> 3
		m := hi - base
		if m >= 8 {
			vv = [8]uint32(values[base : base+8])
		} else {
			vv = [8]uint32{}
			copy(vv[:], values[base:hi])
		}
		for i, v := range vv {
			v = (v + nbm) ^ nbm
			vv[i] = v ^ (v>>1^v>>2)&pm
		}
		// One 8×8 transpose per byte of the values: block b covers planes
		// 8b..8b+7, fed by byte (3-b) of every value.
		for b := 0; b < 4; b++ {
			shift := uint(24 - 8*b)
			x := uint64(byte(vv[0]>>shift))<<56 | uint64(byte(vv[1]>>shift))<<48 |
				uint64(byte(vv[2]>>shift))<<40 | uint64(byte(vv[3]>>shift))<<32 |
				uint64(byte(vv[4]>>shift))<<24 | uint64(byte(vv[5]>>shift))<<16 |
				uint64(byte(vv[6]>>shift))<<8 | uint64(byte(vv[7]>>shift))
			y := transpose8(x)
			p := 8 * b
			planes[p][g] = byte(y >> 56)
			planes[p+1][g] = byte(y >> 48)
			planes[p+2][g] = byte(y >> 40)
			planes[p+3][g] = byte(y >> 32)
			planes[p+4][g] = byte(y >> 24)
			planes[p+5][g] = byte(y >> 16)
			planes[p+6][g] = byte(y >> 8)
			planes[p+7][g] = byte(y)
		}
	}
}

// MergeInto reassembles integers from a prefix of MSB-first planes into
// out, overwriting every element. Absent planes (nil entries or a short
// slice) contribute zero bits, which is exactly the truncation semantics
// of progressive loading. Like Split it runs on the word-level transpose.
func MergeInto(out []uint32, planes [][]byte) {
	MergeRange(out, planes, 0, len(out))
}

// MergeRange reassembles the value range [lo, hi) only. lo must be a
// multiple of 8; disjoint 8-aligned ranges may run concurrently.
//
// Like SplitRange this dispatches the bulk of the range to the AVX2 kernel
// when one is compiled in; the scalar loop is the reference implementation
// and the tail/fallback path.
func MergeRange(out []uint32, planes [][]byte, lo, hi int) {
	if lo&7 != 0 {
		panic("bitplane: MergeRange start must be 8-aligned")
	}
	if hi > len(out) {
		hi = len(out)
	}
	if lo < hi {
		lo = mergeRangeAccel(out, planes, lo, hi)
	}
	mergeRangeGeneric(out, planes, lo, hi)
}

func mergeRangeGeneric(out []uint32, planes [][]byte, lo, hi int) {
	for base := lo; base < hi; base += 8 {
		vv := mergeBlock(planes, base>>3)
		copy(out[base:min(base+8, hi)], vv[:])
	}
}

// mergeBlock rebuilds the eight values of plane byte g.
func mergeBlock(planes [][]byte, g int) (vv [8]uint32) {
	np := min(len(planes), Planes)
	for b := 0; b < 4; b++ {
		var x uint64
		for r := 0; r < 8; r++ {
			p := 8*b + r
			if p >= np || planes[p] == nil {
				continue
			}
			x |= uint64(planes[p][g]) << uint(56-8*r)
		}
		if x == 0 {
			continue
		}
		y := transpose8(x)
		shift := uint(24 - 8*b)
		vv[0] |= uint32(byte(y>>56)) << shift
		vv[1] |= uint32(byte(y>>48)) << shift
		vv[2] |= uint32(byte(y>>40)) << shift
		vv[3] |= uint32(byte(y>>32)) << shift
		vv[4] |= uint32(byte(y>>24)) << shift
		vv[5] |= uint32(byte(y>>16)) << shift
		vv[6] |= uint32(byte(y>>8)) << shift
		vv[7] |= uint32(byte(y)) << shift
	}
	return vv
}

// MergeDecodeRange rebuilds the quantization indices ks[lo:hi) from a
// prefix of their stored planes in one pass: it merges the planes, undoes
// their XOR prediction and negabinary-decodes, writing every index in
// range and reading none. lo must be a multiple of 8; disjoint 8-aligned
// ranges may run concurrently.
//
// planes holds the loaded planes as stored (predicted) at their bit
// positions among the 32 — nil everywhere else, the planes below the last
// loaded one included. The prediction is undone on whole words with every
// plane not loaded counted as zero (see unpredict); keep masks the bits of
// the loaded planes, clearing what that spills below them. Each index is
// then nb.Decode32 of its code truncated to the loaded planes.
//
// Like MergeRange this dispatches the bulk of the range to the AVX2 kernel
// when one is compiled in; the scalar loop is the reference implementation
// and the tail/fallback path.
func MergeDecodeRange(ks []int32, planes [][]byte, lo, hi int, keep uint32) {
	if lo&7 != 0 {
		panic("bitplane: MergeDecodeRange start must be 8-aligned")
	}
	if hi > len(ks) {
		hi = len(ks)
	}
	if lo < hi {
		lo = mergeDecodeAccel(ks, planes, lo, hi, keep)
	}
	mergeDecodeGeneric(ks, planes, lo, hi, keep)
}

func mergeDecodeGeneric(ks []int32, planes [][]byte, lo, hi int, keep uint32) {
	for base := lo; base < hi; base += 8 {
		vv := mergeBlock(planes, base>>3)
		for i := range ks[base:min(base+8, hi)] {
			ks[base+i] = nb.Decode32(unpredict(vv[i]) & keep)
		}
	}
}

// unpredict inverts the prediction s = b ^ b>>1 ^ b>>2 on a whole word:
// b = (s ^ s>>1) / (1+x³), the word-domain identity of the package doc.
func unpredict(s uint32) uint32 {
	u := s ^ s>>1
	u ^= u >> 3
	u ^= u >> 6
	u ^= u >> 12
	return u ^ u>>24
}

// NumUsedPlanes returns how many MSB-first planes are needed to represent
// every value exactly, i.e. 32 minus the number of leading zero planes.
// Planes below the returned count are identically zero for all values.
func NumUsedPlanes(values []uint32) int {
	var acc uint32
	for _, v := range values {
		acc |= v
	}
	used := 0
	for acc != 0 {
		used++
		acc >>= 1
	}
	return used
}

// PredictEncode applies the paper's 2-bit-prefix XOR prediction to MSB-first
// planes, in place. For plane index p (0 = MSB), each bit b is replaced by
// b XOR prefix, where prefix is the XOR of the bits in planes p-1 and p-2 of
// the same integer (one prefix bit for p==1, none for p==0). Because the
// prefix only references more-significant planes, decoding can proceed in
// loading order.
//
// The transformation must run on the ORIGINAL plane bits, so encoding walks
// planes LSB-to-MSB (a plane's sources are modified after it is, never
// before).
//
// The IPComp coder itself predicts inside the transpose (SplitEncodeRange)
// and undoes it inside the merge (MergeDecodeRange); these byte-plane forms
// serve callers that hold planes, not values.
func PredictEncode(planes [][]byte) {
	hi := planesMaxLen(planes)
	for p := len(planes) - 1; p >= 1; p-- {
		xorWithPrefixBytes(planes, p, 0, hi)
	}
}

// PredictDecode inverts PredictEncode for the loaded prefix of planes.
// Decoding walks MSB-to-LSB so each plane's sources are already restored.
func PredictDecode(planes [][]byte) {
	predictDecodeRangeBytes(planes, 0, len(planes), 0, planesMaxLen(planes))
}

// predictDecodeRangeBytes decodes planes [from, to), restricted to the byte
// columns [lo, hi), assuming planes above `from` were decoded earlier.
func predictDecodeRangeBytes(planes [][]byte, from, to, lo, hi int) {
	if from < 1 {
		from = 1 // the MSB plane is stored unpredicted
	}
	for p := from; p < to && p < len(planes); p++ {
		if planes[p] == nil {
			continue
		}
		xorWithPrefixBytes(planes, p, lo, hi)
	}
}

// planesMaxLen returns the longest plane length, the upper bound of the
// byte-column space.
func planesMaxLen(planes [][]byte) int {
	n := 0
	for _, p := range planes {
		if len(p) > n {
			n = len(p)
		}
	}
	return n
}

// xorWithPrefixBytes XORs plane p with planes p-1 and p-2 (those that
// exist and are loaded), restricted to byte columns [lo, hi). XOR is an
// involution, so the same helper serves both encode and decode.
func xorWithPrefixBytes(planes [][]byte, p, lo, hi int) {
	dst := planes[p]
	if dst == nil {
		return
	}
	if hi > len(dst) {
		hi = len(dst)
	}
	if lo >= hi {
		return
	}
	d := dst[lo:hi]
	if p >= 1 && planes[p-1] != nil {
		a := planes[p-1][lo:hi]
		for i := range d {
			d[i] ^= a[i]
		}
	}
	if p >= 2 && planes[p-2] != nil {
		a := planes[p-2][lo:hi]
		for i := range d {
			d[i] ^= a[i]
		}
	}
}

// PrefixEntropy computes the mean per-plane bit entropy of the values'
// used bitplanes after XOR prediction with `prefix` preceding bits
// (prefix 0 = raw planes). This is the statistic of the paper's Table 2,
// which motivates the choice of a 2-bit prefix.
func PrefixEntropy(values []uint32, prefix int) float64 {
	used := NumUsedPlanes(values)
	if used == 0 || len(values) == 0 {
		return 0
	}
	planes := Split(values)[32-used:]
	if prefix > 0 {
		// Generalized predictive coding: XOR each plane with the XOR of up
		// to `prefix` more-significant planes. Walk LSB-to-MSB so sources
		// are unmodified when used.
		for p := len(planes) - 1; p >= 1; p-- {
			for q := p - 1; q >= 0 && q >= p-prefix; q-- {
				a := planes[q]
				dst := planes[p]
				for i := range dst {
					dst[i] ^= a[i]
				}
			}
		}
	}
	sum := 0.0
	for _, plane := range planes {
		sum += BitEntropy(plane, len(values))
	}
	return sum / float64(used)
}

// Ones counts set bits in a packed plane restricted to the first n values.
func Ones(plane []byte, n int) int {
	full := n >> 3
	count := 0
	for i := 0; i < full; i++ {
		count += bits.OnesCount8(plane[i])
	}
	if rem := n & 7; rem > 0 && full < len(plane) {
		mask := byte(0xFF) << uint(8-rem)
		count += bits.OnesCount8(plane[full] & mask)
	}
	return count
}

// BitEntropy returns the Shannon entropy (bits per bit) of a packed plane of
// n values — the statistic reported in the paper's Table 2.
func BitEntropy(plane []byte, n int) float64 {
	if n == 0 {
		return 0
	}
	return binaryEntropy(float64(Ones(plane, n)) / float64(n))
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -(p*math.Log2(p) + (1-p)*math.Log2(1-p))
}
