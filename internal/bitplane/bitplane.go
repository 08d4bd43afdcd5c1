package bitplane

import (
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

// SplitInto transposes values into 32 packed bitplanes supplied by the
// caller: len(planes) must be Planes and every plane at least
// ceil(len(values)/8) bytes. planes[i] is the plane for bit (31-i), i.e.
// planes are ordered MSB first, packed 8 bits per byte with the first
// value in the most significant bit of byte 0. Every plane byte in range
// is overwritten, so pooled backings need no zeroing.
//
// It runs the coder's split kernel with neither encoding nor prediction:
// on amd64 with AVX2 (and without the purego build tag) the bulk of the
// values goes through the vector kernel in transpose_amd64.s, and the
// scalar loop in splitRangeGeneric handles the tail and every other build.
// Both produce identical plane bytes.
func SplitInto(planes [][]byte, values []uint32) {
	if len(planes) != Planes {
		panic("bitplane: SplitInto needs exactly 32 planes")
	}
	splitRange(planes, values, 0, len(values), 0, 0)
}

// SplitEncodeRange is the coder's split: it transposes the negabinary codes
// of the quantization indices ks[lo:hi) with the XOR prediction applied on
// the way. Its planes are those of SplitInto over nb.Encode32(ks[i])
// followed by PredictEncode over all 32 of them. Both steps are whole-word
// operations — the encoding is (k + m) ^ m, the prediction commutes with
// the transpose as s = v ^ v>>1 ^ v>>2 — so they cost a few vector ops per
// eight values instead of a pass each. Planes above the codes' top used
// plane stay zero, so the used suffix is exactly what PredictEncode makes
// of it alone. lo must be a multiple of 8; disjoint 8-aligned ranges touch
// disjoint plane bytes, so shards may run concurrently.
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
		panic("bitplane: split start must be 8-aligned")
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
// of progressive loading. It is the plain-Go block merge the coder's
// MergeDecodeRange shares, with no decoding after it.
func MergeInto(out []uint32, planes [][]byte) {
	for base := 0; base < len(out); base += 8 {
		vv := mergeBlock(planes, base>>3)
		copy(out[base:], vv[:])
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
// The bulk of the range goes through the AVX2 kernel when one is compiled
// in; the scalar loop is the reference implementation and the
// tail/fallback path.
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
	for p := len(planes) - 1; p >= 1; p-- {
		xorWithPrefix(planes, p)
	}
}

// PredictDecode inverts PredictEncode for the loaded prefix of planes.
// Decoding walks MSB-to-LSB so each plane's sources are already restored;
// the MSB plane is stored unpredicted.
func PredictDecode(planes [][]byte) {
	for p := 1; p < len(planes); p++ {
		xorWithPrefix(planes, p)
	}
}

// xorWithPrefix XORs plane p with planes p-1 and p-2 (those that exist and
// are loaded). XOR is an involution, so the same helper serves both encode
// and decode.
func xorWithPrefix(planes [][]byte, p int) {
	d := planes[p]
	if d == nil {
		return
	}
	for _, q := range []int{p - 1, p - 2} {
		if q < 0 || planes[q] == nil {
			continue
		}
		a := planes[q][:len(d)]
		for i := range d {
			d[i] ^= a[i]
		}
	}
}
