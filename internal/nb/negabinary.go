// Package nb implements negabinary (base -2) integer coding, the sign
// representation chosen by IPComp (paper §4.4.2) for bitplane-coded
// quantization indices. In negabinary, values that fluctuate around zero keep
// their high-order bits zero (unlike two's complement) and truncating low
// bits yields a tighter worst-case error than sign-magnitude.
package nb

// Encode converts a signed integer to its negabinary representation.
// The usual branch-free construction: for any int64 v with |v| < 2^62,
//
//	u = (v + mask) ^ mask  where mask = 0xAAAA... (bits at odd positions)
//
// produces the base(-2) digits of v, because adding the alternating mask
// carries exactly where negative-weight digits live.
func Encode(v int64) uint64 {
	const mask uint64 = 0xAAAAAAAAAAAAAAAA
	return (uint64(v) + mask) ^ mask
}

// Decode inverts Encode.
func Decode(u uint64) int64 {
	const mask uint64 = 0xAAAAAAAAAAAAAAAA
	return int64((u ^ mask) - mask)
}

// Encode32 encodes a signed 32-bit quantization index into 32 negabinary
// digits. Indices produced by the quantizer are clamped well inside the
// representable window (see MaxIndex), so the result always fits.
func Encode32(v int32) uint32 {
	const mask uint32 = 0xAAAAAAAA
	return (uint32(v) + mask) ^ mask
}

// Decode32 inverts Encode32.
func Decode32(u uint32) int32 {
	const mask uint32 = 0xAAAAAAAA
	return int32((u ^ mask) - mask)
}

// MaxIndex is the largest magnitude quantization index the 32-digit
// negabinary window can hold for both signs. 32 negabinary digits represent
// [-(2^32-2)/3 - ... ] asymmetrically; the safe symmetric window is
// [-2^30, 2^30]. Quantizers in this repository clamp indices to this window
// and escape anything larger through the outlier path.
const MaxIndex = 1 << 30

// Truncate zeroes the d lowest digits of a negabinary value, the operation
// performed implicitly when low bitplanes are not loaded.
func Truncate(u uint32, d int) uint32 {
	if d <= 0 {
		return u
	}
	if d >= 32 {
		return 0
	}
	return u &^ (1<<uint(d) - 1)
}
