package codec

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

// This file is the DEFLATE (RFC 1951) decoder behind methodDeflate. It is
// written for the one case this repository has: the whole compressed block
// is in memory and the decoded size is known before the first bit is read.
// So there is no stream state, no window copy and no reader interface: the
// bit buffer is refilled with one 8-byte load, dst itself is the LZ77
// window, one table lookup resolves a literal or a length base with its
// extra-bit count, and the tables come from a pool. It accepts and refuses
// exactly what compress/flate's reader does (inflate_test.go holds the two
// against each other), except that it insists on reaching the end of the
// final block, which the stream reader's caller used not to check.

// Decode table entries, one uint32 each:
//
//	bits  0..7   bits the entry consumes: the code's bits (for an entry of a
//	             second-level table, those beyond the root) plus extra bits
//	bits  8..11  how many of those are the code's; the extra bits follow
//	bit   12     entEOB: end of block
//	bit   13     entSub: root entry of codes longer than the root; bits 8..11
//	             are the second-level table's index bits, bits 16.. its offset
//	bit   14     entExc: set with entEOB and entSub, and alone on an entry no
//	             valid code reaches
//	bit   15     entLit: literal, the byte in bits 16..23
//	bits 16..31  literal byte, length base, distance base or table offset
const (
	entEOB = 1 << 12
	entSub = 1 << 13
	entExc = 1 << 14
	entLit = 1 << 15

	entInvalid = entExc
)

// Root table widths. A table is built at the width of its block's longest
// code and then doubled up to the root, so the hot loops index with a
// constant mask while a 32³ tile's short-coded planes pay for a small build.
// The array sizes leave room for the second-level tables: zlib's `enough`
// gives 1334 entries for 288 symbols at a 10-bit root and 402 for 32 symbols
// at 8 bits; powers of two let an index be masked instead of bounds-checked.
const (
	litRootBits  = 10
	distRootBits = 8
	preRootBits  = 7 // the code-length code's longest code: never a second level

	litTableSize  = 2048
	distTableSize = 512
	preTableSize  = 1 << preRootBits

	maxCodeLen  = 15
	maxLitSyms  = 288 // the fixed code has 288; a dynamic block at most 286
	maxDistSyms = 32  // likewise 32 and 30
	numPreSyms  = 19
)

var (
	errInflateCorrupt   = errors.New("codec: inflate: corrupt stream")
	errInflateTruncated = errors.New("codec: inflate: truncated stream")
	errInflateSize      = errors.New("codec: inflate: stream does not decode to the declared size")
)

// Per-symbol entry templates: everything but the code length, with the
// symbol's extra-bit count in the low byte so that adding the code length
// there yields the bits to consume.
var (
	litSyms  [maxLitSyms]uint32
	distSyms [maxDistSyms]uint32
	preSyms  [numPreSyms]uint32

	fixedLit  [litTableSize]uint32
	fixedDist [distTableSize]uint32
)

// preOrder is the order in which a dynamic header lists the code-length
// code's own lengths (RFC 1951 §3.2.7).
var preOrder = [numPreSyms]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

func init() {
	for s := 0; s < 256; s++ {
		litSyms[s] = entLit | uint32(s)<<16
	}
	litSyms[256] = entExc | entEOB
	// Length symbols 257..284: bases run on from 3, extra bits go up by one
	// every four symbols after the first eight. 285 is 258 with no extra
	// bits; 286 and 287 have codes in the fixed tree but no meaning.
	base := uint32(3)
	for i := 0; i < 28; i++ {
		extra := uint32(0)
		if i >= 8 {
			extra = uint32(i/4 - 1)
		}
		litSyms[257+i] = base<<16 | extra
		base += 1 << extra
	}
	litSyms[285] = 258 << 16
	litSyms[286], litSyms[287] = entInvalid, entInvalid
	// Distance symbols 0..29 the same way, every two symbols after the
	// first four; 30 and 31 are the fixed tree's two unusable codes.
	base = 1
	for s := 0; s < 30; s++ {
		extra := uint32(0)
		if s >= 4 {
			extra = uint32(s/2 - 1)
		}
		distSyms[s] = base<<16 | extra
		base += 1 << extra
	}
	distSyms[30], distSyms[31] = entInvalid, entInvalid
	for s := range preSyms {
		preSyms[s] = uint32(s) << 16
	}

	lit, dist := fixedLens()
	buildTable(fixedLit[:], litRootBits, lit[:], litSyms[:])
	buildTable(fixedDist[:], distRootBits, dist[:], distSyms[:])
}

// fixedLens returns the code lengths of a fixed block (RFC 1951 §3.2.6).
func fixedLens() (lit [maxLitSyms]uint8, dist [maxDistSyms]uint8) {
	for s := range lit {
		switch {
		case s < 144:
			lit[s] = 8
		case s < 256:
			lit[s] = 9
		case s < 280:
			lit[s] = 7
		default:
			lit[s] = 8
		}
	}
	for s := range dist {
		dist[s] = 5
	}
	return lit, dist
}

// buildTable fills table for the canonical Huffman code whose symbol s has
// length lens[s] (0: unused) and entry template syms[s]: the first
// 1<<rootBits entries are indexed by the next rootBits bits of input, codes
// longer than that go through second-level tables placed behind them. It
// reports whether the lengths form a code compress/flate accepts: one that
// fills the code space exactly, or no code at all, or a single code of one
// bit (any use of a missing code is then an error at decode time).
func buildTable(table []uint32, rootBits int, lens []uint8, syms []uint32) bool {
	var count [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	maxLen := maxCodeLen
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	if maxLen == 0 {
		for i := range table[:1<<rootBits] {
			table[i] = entInvalid
		}
		return true
	}
	left := 1 // unassigned code space, in codes of the current length
	for l := 1; l <= maxLen; l++ {
		left = left<<1 - count[l]
		if left < 0 {
			return false // over-subscribed
		}
	}
	if left != 0 && !(maxLen == 1 && count[1] == 1) {
		return false // incomplete
	}

	// Symbols in (length, symbol) order, the order canonical codes are
	// assigned in.
	var offs [maxCodeLen + 2]int
	for l := 1; l <= maxLen; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [maxLitSyms]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	// Root: at l bits the table has 1<<l entries, and a code of l bits owns
	// exactly one of them (input is consumed LSB first, so the index is the
	// code reversed); a step to l+1 bits copies the table behind itself.
	// Entries of prefixes not assigned yet are copied as garbage and
	// overwritten when their codes come, since the code is complete.
	root := min(maxLen, rootBits)
	code, i := uint16(0), 0
	for l := 1; l <= root; l++ {
		code <<= 1
		half := 1 << (l - 1)
		copy(table[half:2*half], table[:half])
		e := uint32(l)<<8 | uint32(l)
		for c := count[l]; c > 0; c-- {
			table[bits.Reverse16(code)>>(16-l)] = syms[sorted[i]] + e
			code++
			i++
		}
	}
	if left != 0 {
		table[1] = entInvalid // the single one-bit code is 0
	}
	for size := 1 << root; size < 1<<rootBits; size <<= 1 {
		copy(table[size:2*size], table[:size])
	}

	// Second level: codes that share their first rootBits bits share a
	// table, sized by the longest of them. Codes ascend with length, so
	// when a new prefix starts the table grows a bit at a time until the
	// codes still to come fill it.
	next := 1 << rootBits
	rootMask := uint16(1)<<rootBits - 1
	prefix := -1
	var sub []uint32
	for l := rootBits + 1; l <= maxLen; l++ {
		code <<= 1
		own := l - rootBits
		e := uint32(own)<<8 | uint32(own)
		for c := count[l]; c > 0; c-- {
			rev := bits.Reverse16(code) >> (16 - l)
			if p := int(rev & rootMask); p != prefix {
				prefix = p
				subBits, fill := own, c
				for fill < 1<<subBits {
					subBits++
					fill = fill<<1 + count[rootBits+subBits]
				}
				if next+1<<subBits > len(table) {
					return false // `enough` says never; an error, not a panic, if it is wrong
				}
				table[p] = entExc | entSub | uint32(next)<<16 | uint32(subBits)<<8 | uint32(rootBits)
				sub = table[next : next+1<<subBits]
				next += 1 << subBits
			}
			ent := syms[sorted[i]] + e
			for j := int(rev >> rootBits); j < len(sub); j += 1 << own {
				sub[j] = ent
			}
			code++
			i++
		}
	}
	return true
}

// An inflater is the state of one inflateInto call: the two inputs, the
// positions in them, the bit buffer, and the tables of the dynamic block
// being decoded. It carries nothing from one call to the next.
type inflater struct {
	src, dst []byte
	in, out  int
	buf      uint64 // unread bits, next bit lowest
	cnt      uint   // how many of them count (≤ 63); see fill

	lit  [litTableSize]uint32
	dist [distTableSize]uint32
	pre  [preTableSize]uint32
	lens [maxLitSyms + maxDistSyms]uint8
}

var inflaterPool = sync.Pool{New: func() any { return new(inflater) }}

// inflateInto decodes the DEFLATE stream src into dst, which must be
// exactly as long as the stream's output. It reads src through the end of
// the final block and not beyond. On any input it returns an error rather
// than panic, read outside src or write outside dst; on error dst holds
// garbage.
func inflateInto(dst, src []byte) error {
	d := inflaterPool.Get().(*inflater)
	err := d.inflate(dst, src)
	// Neither the source — often a pooled span buffer or a whole in-memory
	// archive — nor the destination may stay pinned by an idle pool entry.
	d.src, d.dst = nil, nil
	inflaterPool.Put(d)
	return err
}

func (d *inflater) inflate(dst, src []byte) error {
	d.src, d.dst, d.in, d.out, d.buf, d.cnt = src, dst, 0, 0, 0, 0
	for {
		d.fill()
		hdr, ok := d.take(3)
		if !ok {
			return errInflateTruncated
		}
		var err error
		switch hdr >> 1 {
		case 0:
			err = d.stored()
		case 1:
			err = d.huffman(&fixedLit, &fixedDist)
		case 2:
			if err = d.dynamicHeader(); err == nil {
				err = d.huffman(&d.lit, &d.dist)
			}
		default:
			err = errInflateCorrupt
		}
		if err != nil {
			return err
		}
		if hdr&1 != 0 { // BFINAL
			break
		}
	}
	if d.out != len(dst) {
		return errInflateSize
	}
	return nil
}

// fill tops the bit buffer up to at least 56 counted bits, or to all the
// input there is. Away from the end of src it ORs in eight bytes at once
// and counts only the whole bytes that fit: the bits above cnt are then
// real input, uncounted, and the next fill ORs the same values over them.
func (d *inflater) fill() {
	if d.in+8 <= len(d.src) {
		d.buf |= binary.LittleEndian.Uint64(d.src[d.in:]) << (d.cnt & 63)
		d.in += int(63-d.cnt) >> 3
		d.cnt |= 56
		return
	}
	for d.cnt < 56 && d.in < len(d.src) {
		d.buf |= uint64(d.src[d.in]) << (d.cnt & 63)
		d.in++
		d.cnt += 8
	}
}

func (d *inflater) drop(n uint) {
	d.buf >>= n & 63
	d.cnt -= n
}

// take returns the next n ≤ 16 bits after a fill, or false if src ends
// before them.
func (d *inflater) take(n uint) (uint32, bool) {
	if d.cnt < n {
		return 0, false
	}
	v := uint32(d.buf) & (1<<n - 1)
	d.drop(n)
	return v, true
}

// stored copies a stored block: the rest of the current byte is skipped,
// then LEN, its complement, and LEN bytes.
func (d *inflater) stored() error {
	pos := d.in - int(d.cnt>>3) // whole bytes still in the buffer are unread
	d.buf, d.cnt = 0, 0
	if len(d.src)-pos < 4 {
		return errInflateTruncated
	}
	n := int(binary.LittleEndian.Uint16(d.src[pos:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(d.src[pos+2:]) {
		return errInflateCorrupt
	}
	pos += 4
	if n > len(d.src)-pos {
		return errInflateTruncated
	}
	if n > len(d.dst)-d.out {
		return errInflateSize
	}
	copy(d.dst[d.out:], d.src[pos:pos+n])
	d.out += n
	d.in = pos + n
	return nil
}

// dynamicHeader reads a dynamic block's code lengths and builds d.lit and
// d.dist from them.
func (d *inflater) dynamicHeader() error {
	d.fill()
	hdr, ok := d.take(14)
	if !ok {
		return errInflateTruncated
	}
	nlit := int(hdr&31) + 257
	ndist := int(hdr>>5&31) + 1
	npre := int(hdr>>10) + 4
	if nlit > 286 || ndist > 30 {
		return errInflateCorrupt
	}
	var preLens [numPreSyms]uint8
	for _, s := range preOrder[:npre] {
		d.fill()
		l, ok := d.take(3)
		if !ok {
			return errInflateTruncated
		}
		preLens[s] = uint8(l)
	}
	if !buildTable(d.pre[:], preRootBits, preLens[:], preSyms[:]) {
		return errInflateCorrupt
	}

	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if d.cnt < 2*preRootBits { // a code and its extra bits
			d.fill()
		}
		e := d.pre[d.buf&(preTableSize-1)]
		if e&entExc != 0 {
			return errInflateCorrupt
		}
		if _, ok := d.take(uint(e & 0xff)); !ok {
			return errInflateTruncated
		}
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep, extra uint
		var l uint8
		switch sym {
		case 16:
			if i == 0 {
				return errInflateCorrupt
			}
			rep, extra, l = 3, 2, lens[i-1]
		case 17:
			rep, extra = 3, 3
		default:
			rep, extra = 11, 7
		}
		x, ok := d.take(extra)
		if !ok {
			return errInflateTruncated
		}
		rep += uint(x)
		if rep > uint(len(lens)-i) {
			return errInflateCorrupt
		}
		for ; rep > 0; rep-- {
			lens[i] = l
			i++
		}
	}
	if !buildTable(d.lit[:], litRootBits, lens[:nlit], litSyms[:]) ||
		!buildTable(d.dist[:], distRootBits, lens[nlit:], distSyms[:]) {
		return errInflateCorrupt
	}
	return nil
}

// huffman decodes the symbols of one compressed block through its end-of-
// block code. The first loop runs while at least 15 bytes of input and 3 of
// output remain: every bit it looks at is then real and every literal has
// room, so it checks only what a corrupt stream can get wrong (an unusable
// code, a distance or a length that leaves dst). Neither condition comes
// back once it fails, so the second loop, which counts every bit and every
// byte, finishes the stream.
func (d *inflater) huffman(lit *[litTableSize]uint32, dist *[distTableSize]uint32) error {
	src, dst := d.src, d.dst
	in, out, buf, cnt := d.in, d.out, d.buf, d.cnt
	err := errInflateCorrupt

	const (
		litMask  = 1<<litRootBits - 1
		distMask = 1<<distRootBits - 1
	)

	for in+15 <= len(src) && out+3 <= len(dst) {
		buf |= binary.LittleEndian.Uint64(src[in:]) << (cnt & 63)
		in += int(63-cnt) >> 3
		cnt |= 56
		// Up to three literals on these 56 bits: a root entry is at most
		// 10 bits, so what follows them still has 26.
		e := lit[buf&litMask]
		if e&entLit != 0 {
			buf >>= e & 63
			cnt -= uint(e & 63)
			dst[out] = byte(e >> 16)
			out++
			e = lit[buf&litMask]
			if e&entLit != 0 {
				buf >>= e & 63
				cnt -= uint(e & 63)
				dst[out] = byte(e >> 16)
				out++
				e = lit[buf&litMask]
				if e&entLit != 0 {
					buf >>= e & 63
					cnt -= uint(e & 63)
					dst[out] = byte(e >> 16)
					out++
					continue
				}
			}
		}
		if e&entExc != 0 {
			if e&entSub != 0 {
				buf >>= litRootBits
				cnt -= litRootBits
				e = lit[(e>>16+uint32(buf)&(1<<(e>>8&15)-1))&(litTableSize-1)]
				if e&entLit != 0 {
					buf >>= e & 63
					cnt -= uint(e & 63)
					dst[out] = byte(e >> 16)
					out++
					continue
				}
			}
			if e&entExc != 0 {
				if e&entEOB != 0 {
					buf >>= e & 63
					cnt -= uint(e & 63)
					err = nil
				}
				goto done
			}
		}
		// A length, at most 10+5+5 of the 26 bits; its distance may need
		// 15+13 more.
		{
			length := int(e>>16) + int(buf&(1<<(e&63)-1)>>(e>>8&15))
			buf >>= e & 63
			cnt -= uint(e & 63)
			if cnt < maxCodeLen+13 {
				buf |= binary.LittleEndian.Uint64(src[in:]) << (cnt & 63)
				in += int(63-cnt) >> 3
				cnt |= 56
			}
			e = dist[buf&distMask]
			if e&entExc != 0 {
				if e&entSub == 0 {
					goto done
				}
				buf >>= distRootBits
				cnt -= distRootBits
				e = dist[(e>>16+uint32(buf)&(1<<(e>>8&15)-1))&(distTableSize-1)]
				if e&entExc != 0 {
					goto done
				}
			}
			distance := int(e>>16) + int(buf&(1<<(e&63)-1)>>(e>>8&15))
			buf >>= e & 63
			cnt -= uint(e & 63)
			if distance > out || length > len(dst)-out {
				goto done
			}
			// Eight bytes at a time where the match allows, up to seven
			// past its end: they land inside dst and under the output
			// still to come.
			switch to := dst[out:]; {
			case length+8 > len(to) || distance < 8 && distance != 1:
				copyMatch(dst[out-distance:out+length], distance)
			case distance == 1: // a run, of zeros as a rule
				run := uint64(dst[out-1]) * 0x0101010101010101
				for i := 0; i < length; i += 8 {
					binary.LittleEndian.PutUint64(to[i:], run)
				}
			default:
				from := dst[out-distance:]
				for i := 0; i < length; i += 8 {
					binary.LittleEndian.PutUint64(to[i:], binary.LittleEndian.Uint64(from[i:]))
				}
			}
			out += length
		}
	}

	buf &= 1<<cnt - 1 // from here on every bit in buf is counted
	for {
		for cnt < 56 && in < len(src) {
			buf |= uint64(src[in]) << (cnt & 63)
			in++
			cnt += 8
		}
		// Bits past the end of src read as zero; whatever entry they lead
		// to, it is used only if the bits it consumes were all there.
		e := lit[buf&litMask]
		if e&entSub != 0 {
			if cnt < litRootBits {
				err = errInflateTruncated
				break
			}
			buf >>= litRootBits
			cnt -= litRootBits
			e = lit[(e>>16+uint32(buf)&(1<<(e>>8&15)-1))&(litTableSize-1)]
		}
		if cnt < uint(e&63) {
			err = errInflateTruncated
			break
		}
		if e&entLit != 0 {
			if out == len(dst) {
				err = errInflateSize
				break
			}
			buf >>= e & 63
			cnt -= uint(e & 63)
			dst[out] = byte(e >> 16)
			out++
			continue
		}
		if e&entExc != 0 {
			if e&entEOB != 0 {
				buf >>= e & 63
				cnt -= uint(e & 63)
				err = nil
			}
			break
		}
		length := int(e>>16) + int(buf&(1<<(e&63)-1)>>(e>>8&15))
		buf >>= e & 63
		cnt -= uint(e & 63)
		for cnt < 56 && in < len(src) {
			buf |= uint64(src[in]) << (cnt & 63)
			in++
			cnt += 8
		}
		e = dist[buf&distMask]
		if e&entSub != 0 {
			if cnt < distRootBits {
				err = errInflateTruncated
				break
			}
			buf >>= distRootBits
			cnt -= distRootBits
			e = dist[(e>>16+uint32(buf)&(1<<(e>>8&15)-1))&(distTableSize-1)]
		}
		if cnt < uint(e&63) {
			err = errInflateTruncated
			break
		}
		if e&entExc != 0 {
			break
		}
		distance := int(e>>16) + int(buf&(1<<(e&63)-1)>>(e>>8&15))
		buf >>= e & 63
		cnt -= uint(e & 63)
		if distance > out {
			break
		}
		if length > len(dst)-out {
			err = errInflateSize
			break
		}
		copyMatch(dst[out-distance:out+length], distance)
		out += length
	}

done:
	d.in, d.out, d.buf, d.cnt = in, out, buf, cnt
	return err
}

// copyMatch completes an LZ77 match: w is the window from the match's
// source through its last output byte, so w[distance:] is what to write and
// every byte of it equals the byte distance before it. A match longer than
// its distance repeats a pattern; each round doubles the stretch that is
// already in place, so source and destination of one copy never overlap.
func copyMatch(w []byte, distance int) {
	for n := distance; n < len(w); n *= 2 {
		copy(w[n:], w[:n])
	}
}
