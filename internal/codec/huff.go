package codec

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// This file implements the byte-alphabet canonical Huffman block method
// (methodHuff). It exists because DEFLATE spends most of its time building
// and serializing Huffman tables per block, while the LZ stage finds almost
// nothing in XOR-predicted bitplane bytes — an order-0 coder reaches the
// same ratio several times faster. The coder is deliberately minimal:
// 256-symbol alphabet, code lengths capped at huffMaxLen, canonical code
// assignment, so the header is a presence bitmap plus one nibble per
// present symbol.
//
// Block layout after the method tag:
//
//	bitmap   [32]byte            symbol s present iff bit s set (LSB-first)
//	nibbles  ceil(ns/2) bytes    (codeLen-1) per present symbol, ascending
//	                             symbol order; low nibble first
//	stream   packed MSB-first codes, zero-padded to a byte
//
// Everything is integer arithmetic, so output is identical on every
// platform, and decode validates every length against the Kraft bound so
// corrupt input errors instead of panicking.

// huffMaxLen caps code lengths at 12 so decoding runs off a single
// 4096-entry table. The cap costs a fraction of a percent on pathological
// distributions (Kraft repair lengthens the shortest codes) and bounds the
// decoder's working set to one page.
const huffMaxLen = 12

// huffEncode codes src behind a methodHuff tag using the caller's byte
// histogram. Returns nil when the coded form would not beat raw storage.
func huffEncode(src []byte, hist *[256]int) []byte {
	n := len(src)
	if n == 0 {
		return nil
	}
	// Present symbols in ascending order; sort by (freq, sym) for the
	// two-queue construction below.
	var syms [256]uint8
	ns := 0
	for s := 0; s < 256; s++ {
		if hist[s] != 0 {
			syms[ns] = uint8(s)
			ns++
		}
	}
	var lengths [256]uint8 // by symbol
	if ns == 1 {
		lengths[syms[0]] = 1
	} else {
		// Sort by (freq, sym) — packed into one integer key so the sort runs
		// comparator-free; the symbol in the low byte breaks frequency ties
		// deterministically.
		keys := make([]int64, ns)
		for i := 0; i < ns; i++ {
			keys[i] = int64(hist[syms[i]])<<8 | int64(syms[i])
		}
		slices.Sort(keys)
		order := make([]uint8, ns)
		for i, k := range keys {
			order[i] = uint8(k)
		}
		// Two-queue Huffman: leaves ascending in order[], internal nodes are
		// produced in non-decreasing frequency, so two array cursors replace
		// a heap. Parent indices are always larger than children, letting
		// depths resolve in one reverse sweep.
		total := 2*ns - 1
		freq := make([]int64, total)
		parent := make([]int32, total)
		for i := 0; i < ns; i++ {
			freq[i] = keys[i] >> 8
		}
		i1, i2 := 0, ns
		for next := ns; next < total; next++ {
			pick := func() int {
				if i1 < ns && (i2 >= next || freq[i1] <= freq[i2]) {
					i1++
					return i1 - 1
				}
				i2++
				return i2 - 1
			}
			a, b := pick(), pick()
			freq[next] = freq[a] + freq[b]
			parent[a], parent[b] = int32(next), int32(next)
		}
		depth := make([]uint8, total)
		for i := total - 2; i >= 0; i-- {
			depth[i] = depth[parent[i]] + 1
		}
		for i := 0; i < ns; i++ {
			lengths[order[i]] = depth[i]
		}
		clampByteLengths(syms[:ns], &lengths)
	}

	// Canonical codes in (length, symbol) order via counting — symbols are
	// bytes, so ascending symbol order is just 0..255.
	var countByLen [huffMaxLen + 1]int
	for i := 0; i < ns; i++ {
		countByLen[lengths[syms[i]]]++
	}
	var nextCode [huffMaxLen + 2]uint32
	code := uint32(0)
	for l := 1; l <= huffMaxLen; l++ {
		nextCode[l] = code
		code = (code + uint32(countByLen[l])) << 1
	}
	var codeOf [256]uint32
	for i := 0; i < ns; i++ {
		s := syms[i]
		l := lengths[s]
		codeOf[s] = nextCode[l]
		nextCode[l]++
	}

	// Exact output size: bail before writing a byte if raw wins.
	var streamBits int64
	for i := 0; i < ns; i++ {
		s := syms[i]
		streamBits += int64(hist[s]) * int64(lengths[s])
	}
	size := 1 + 32 + (ns+1)/2 + int((streamBits+7)/8)
	if size >= 1+n {
		return nil
	}

	out := make([]byte, 33+(ns+1)/2, size)
	out[0] = methodHuff
	for i := 0; i < ns; i++ {
		s := syms[i]
		out[1+s>>3] |= 1 << (s & 7)
		nib := (lengths[s] - 1) & 0xF
		if i&1 == 0 {
			out[33+i/2] |= nib
		} else {
			out[33+i/2] |= nib << 4
		}
	}
	// Pack MSB-first, flushing four bytes at a time: codes are at most 12
	// bits, so nbits stays under 44 and the accumulator never overflows.
	var acc uint64
	var nbits uint
	for _, b := range src {
		acc = acc<<uint(lengths[b]) | uint64(codeOf[b])
		nbits += uint(lengths[b])
		if nbits >= 32 {
			nbits -= 32
			v := uint32(acc >> nbits)
			out = append(out, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
		}
	}
	for nbits >= 8 {
		nbits -= 8
		out = append(out, byte(acc>>nbits))
	}
	if nbits > 0 {
		out = append(out, byte(acc<<(8-nbits)))
	}
	return out
}

// clampByteLengths enforces huffMaxLen by the standard Kraft repair:
// over-long codes shorten to the cap, then the shortest codes lengthen
// (lowest symbol first — deterministic) until the Kraft sum fits.
func clampByteLengths(syms []uint8, lengths *[256]uint8) {
	over := false
	for _, s := range syms {
		if lengths[s] > huffMaxLen {
			over = true
			break
		}
	}
	if !over {
		return
	}
	var k int64
	for _, s := range syms {
		if lengths[s] > huffMaxLen {
			lengths[s] = huffMaxLen
		}
		k += int64(1) << (huffMaxLen - lengths[s])
	}
	const limit = int64(1) << huffMaxLen
	for k > limit {
		best := -1
		for _, s := range syms {
			if lengths[s] < huffMaxLen && (best == -1 || lengths[s] < lengths[best]) {
				best = int(s)
			}
		}
		k -= int64(1) << (huffMaxLen - lengths[best] - 1)
		lengths[best]++
	}
}

// huffTablePool recycles the 4096-entry decode tables; a block decode is a
// few microseconds, so a fresh 8 KiB allocation per block would dominate.
var huffTablePool = sync.Pool{
	New: func() any { return new([1 << huffMaxLen]uint16) },
}

// huffDecode inverts huffEncode into dst; src excludes the method tag.
func huffDecode(dst, src []byte) error {
	if len(src) < 32 {
		return fmt.Errorf("codec: huff: truncated bitmap")
	}
	ns := 0
	for _, b := range src[:32] {
		ns += bits.OnesCount8(b)
	}
	if ns == 0 {
		return fmt.Errorf("codec: huff: empty alphabet")
	}
	nibBytes := (ns + 1) / 2
	if len(src) < 32+nibBytes {
		return fmt.Errorf("codec: huff: truncated code lengths")
	}
	var symLen [256]uint8 // by present-symbol index
	var symVal [256]uint8
	idx := 0
	for s := 0; s < 256; s++ {
		if src[s>>3]&(1<<(s&7)) == 0 {
			continue
		}
		nib := src[32+idx/2]
		if idx&1 == 0 {
			nib &= 0xF
		} else {
			nib >>= 4
		}
		if nib >= huffMaxLen {
			return fmt.Errorf("codec: huff: code length %d exceeds %d", nib+1, huffMaxLen)
		}
		symVal[idx] = uint8(s)
		symLen[idx] = nib + 1
		idx++
	}
	// Canonical code reconstruction mirrors the encoder: count by length,
	// then assign codes to symbols in (length, ascending-symbol) order —
	// which is exactly ascending present-index order within each length.
	var countByLen [huffMaxLen + 1]int
	var kraft int64
	for i := 0; i < ns; i++ {
		countByLen[symLen[i]]++
		kraft += int64(1) << (huffMaxLen - symLen[i])
	}
	if kraft > 1<<huffMaxLen {
		return fmt.Errorf("codec: huff: code lengths overflow the Kraft bound")
	}
	var nextCode [huffMaxLen + 2]uint32
	code := uint32(0)
	for l := 1; l <= huffMaxLen; l++ {
		nextCode[l] = code
		code = (code + uint32(countByLen[l])) << 1
	}
	tbl := huffTablePool.Get().(*[1 << huffMaxLen]uint16)
	defer huffTablePool.Put(tbl)
	clear(tbl[:])
	for i := 0; i < ns; i++ {
		l := symLen[i]
		c := nextCode[l]
		nextCode[l]++
		span := 1 << (huffMaxLen - l)
		base := int(c) << (huffMaxLen - l)
		e := uint16(symVal[i])<<4 | uint16(l)
		for j := base; j < base+span; j++ {
			tbl[j] = e
		}
	}

	stream := src[32+nibBytes:]
	var acc uint64
	var nbits uint
	pos := 0
	for i := range dst {
		for nbits < huffMaxLen && pos < len(stream) {
			acc = acc<<8 | uint64(stream[pos])
			nbits += 8
			pos++
		}
		var peek uint32
		if nbits >= huffMaxLen {
			peek = uint32(acc>>(nbits-huffMaxLen)) & (1<<huffMaxLen - 1)
		} else {
			peek = uint32(acc<<(huffMaxLen-nbits)) & (1<<huffMaxLen - 1)
		}
		e := tbl[peek]
		l := uint(e & 0xF)
		if l == 0 || l > nbits {
			return fmt.Errorf("codec: huff: invalid or truncated code at output byte %d", i)
		}
		nbits -= l
		dst[i] = byte(e >> 4)
	}
	if pos != len(stream) || nbits >= 8 {
		return fmt.Errorf("codec: huff: block longer than declared %d bytes", len(dst))
	}
	if acc&(1<<nbits-1) != 0 {
		return fmt.Errorf("codec: huff: nonzero padding bits")
	}
	return nil
}
