package codec

import (
	"fmt"
	"math/bits"
	"sync"
)

// This file decodes the byte-alphabet canonical Huffman block method
// (methodHuff). No encoder in this package writes it: earlier releases'
// "auto" policy did, and measured on real bitplanes it was both larger and
// slower than DEFLATE, so it was retired. The decoder stays so those
// archives remain readable. The format is deliberately minimal: 256-symbol
// alphabet, code lengths capped at huffMaxLen, canonical code assignment,
// so the header is a presence bitmap plus one nibble per present symbol.
//
// Block layout after the method tag:
//
//	bitmap   [32]byte            symbol s present iff bit s set (LSB-first)
//	nibbles  ceil(ns/2) bytes    (codeLen-1) per present symbol, ascending
//	                             symbol order; low nibble first
//	stream   packed MSB-first codes, zero-padded to a byte
//
// Decode validates every length against the Kraft bound so corrupt input
// errors instead of panicking.

// huffMaxLen caps code lengths at 12 so decoding runs off a single
// 4096-entry table, bounding the decoder's working set to one page.
const huffMaxLen = 12

// huffTablePool recycles the 4096-entry decode tables; a block decode is a
// few microseconds, so a fresh 8 KiB allocation per block would dominate.
var huffTablePool = sync.Pool{
	New: func() any { return new([1 << huffMaxLen]uint16) },
}

// huffDecode decodes a Huffman block body into dst; src excludes the
// method tag.
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
	// Canonical code reconstruction: count by length, then assign codes to
	// symbols in (length, ascending-symbol) order — which is exactly
	// ascending present-index order within each length.
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
