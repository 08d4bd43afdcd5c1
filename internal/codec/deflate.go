// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE-go file.

package codec

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// This file is the DEFLATE (RFC 1951) encoder behind methodDeflate, a port
// of compress/flate's BestSpeed path (encSpeed, deflatefast.go, the bit
// writer and huffman_code.go) that writes the bytes flate.NewWriter(w, 1),
// one Write and a Close write; deflate_test.go compares the two. Made for a
// whole plane in memory: matches read the previous window in place; the
// match table is pooled and invalidated by moving its offset base, never
// cleared; bits go straight into one pooled buffer; and a Huffman code is
// built from a counting sort and a two-queue tree, with compress/flate's
// length-limited bitCounts kept for trees deeper than the limit. Where the
// tree fits, the two give as many codes of every length
// (TestHuffmanCountsMatchBitCounts), and the code depends on nothing else.

const (
	maxStoreBlockSize = 65535   // a window, and the largest stored block
	maxMatchOffset    = 1 << 15 // the largest match distance
	maxMatchLength    = 258

	// The match table: tableSize entries keyed by the top tableBits of a
	// multiplicative hash of 4 bytes.
	tableBits  = 14
	tableSize  = 1 << tableBits
	tableMask  = tableSize - 1
	tableShift = 32 - tableBits

	// Offsets in the table are int32 positions plus cur; before cur can
	// overflow, the table is rebased (shiftOffsets).
	bufferReset = math.MaxInt32 - maxStoreBlockSize*2

	// The match loop stops this far from the end of a window, so its loads
	// never pass it; the rest of the window is literals.
	inputMargin = 16 - 1

	maxNumLit        = 286 // literal/length alphabet a dynamic block may use
	offsetCodeCount  = 30
	endBlockMarker   = 256
	lengthCodesStart = 257
	badCode          = 255 // ends the codegen sequence
	maxBitsLimit     = 16

	// A token is a literal byte, or matchType | (length−3)<<lengthShift |
	// (distance−1).
	lengthShift = 22
	offsetMask  = 1<<lengthShift - 1
	matchType   = 1 << 30
)

type token uint32

// lengthCode returns the code (less lengthCodesStart) of a match length
// whose length−3 is xl, and its extra bits: how many, and their value.
func lengthCode(xl uint32) (code, nExtra, extra uint32) {
	switch {
	case xl < 8:
		return xl, 0, 0
	case xl == 255:
		return 28, 0, 0 // 258 has a code of its own
	}
	e := uint32(bits.Len32(xl)) - 3
	return 4*(e+1) + xl>>e&3, e, xl & (1<<e - 1)
}

// offsetCode is lengthCode for a distance whose distance−1 is xo.
func offsetCode(xo uint32) (code, nExtra, extra uint32) {
	if xo < 4 {
		return xo, 0, 0
	}
	e := uint32(bits.Len32(xo)) - 2
	return 2*(e+1) + xo>>e&1, e, xo & (1<<e - 1)
}

// hcode is a Huffman code, bit-reversed so it can be written LSB first.
type hcode struct {
	code, len uint16
}

type tableEntry struct {
	val    uint32 // the 4 bytes at the position
	offset int32  // the position, plus cur as it was then
}

type litNode struct {
	literal uint16
	freq    int32
}

// A deflater is the state of one deflate call, pooled: the match table (the
// only state that outlives a call, invalidated by cur), the tokens of the
// window being encoded, the output and its bit accumulator, and the
// histograms, codes and scratch of the Huffman stage.
type deflater struct {
	table [tableSize]tableEntry
	cur   int32

	tokens [maxStoreBlockSize + 1]token // a window's tokens and end of block

	out []byte // output so far is out[:n]; len(out) is what reserve made room for
	n   int
	acc uint64 // bits not yet in out, next bit lowest
	nb  uint   // how many; < 8 between writes

	litFreq  [maxNumLit]int32
	offFreq  [offsetCodeCount]int32
	cgFreq   [numPreSyms]int32
	litCodes [maxNumLit]hcode
	offCodes [offsetCodeCount]hcode
	cgCodes  [numPreSyms]hcode
	codegen  [maxNumLit + offsetCodeCount + 1]uint8

	// Scratch of generate: the symbols in use with a sentinel slot, the sort's
	// second buffer, and the two-queue tree.
	nodes       [maxNumLit + 1]litNode
	sorted      [maxNumLit]litNode
	weight      [maxNumLit]int32
	leafParent  [maxNumLit]uint16
	innerParent [maxNumLit]uint16
	depth       [maxNumLit]uint8
}

var deflaterPool = sync.Pool{New: func() any { return &deflater{cur: maxStoreBlockSize} }}

// deflateBlock returns src behind a methodDeflate tag if that block is
// shorter than limit bytes, and nil otherwise. The block is its only
// allocation, exactly as long as it needs to be.
func deflateBlock(src []byte, limit int) []byte {
	d := deflaterPool.Get().(*deflater)
	stream := d.deflate(src)
	var blk []byte
	if 1+len(stream) < limit {
		blk = make([]byte, 1+len(stream))
		blk[0] = methodDeflate
		copy(blk[1:], stream)
	}
	deflaterPool.Put(d)
	return blk
}

// deflate returns the DEFLATE stream of src, in d's output buffer: windows
// of maxStoreBlockSize bytes, each one block, then an empty final stored
// block — what compress/flate's Writer at level 1 writes for one Write of
// src and a Close.
func (d *deflater) deflate(src []byte) []byte {
	d.n, d.acc, d.nb = 0, 0, 0
	// Whatever the table holds is at least maxMatchOffset behind cur from
	// here on, so it can never be taken for a match (deflateFast.reset).
	d.cur += maxMatchOffset
	if d.cur >= bufferReset {
		d.shiftOffsets(false)
	}
	for start := 0; start < len(src); start += maxStoreBlockSize {
		end := min(start+maxStoreBlockSize, len(src))
		win := src[start:end]
		d.reserve(2*len(win) + 1024) // any block of this window fits
		// Only the last window can be short; under 128 bytes it is not
		// searched for matches.
		switch {
		case len(win) <= 16:
			d.writeStored(win, 0)
		case len(win) < 128:
			d.writeBlockHuff(win)
		default:
			tokens := d.encode(d.tokens[:0], src, start, end)
			// If matches removed less than 1/16 of it, code it as literals.
			if len(tokens) > len(win)-len(win)>>4 {
				d.writeBlockHuff(win)
			} else {
				d.writeBlockDynamic(tokens, win)
			}
		}
	}
	d.reserve(16)
	d.writeStored(nil, 1)
	return d.out[:d.n]
}

func (d *deflater) reserve(need int) {
	if d.n+need+8 > len(d.out) {
		d.out = slices.Grow(d.out[:d.n], need+8)
		d.out = d.out[:cap(d.out)]
	}
}

// shiftOffsets rebases the table to cur = maxMatchOffset+1 before cur can
// overflow: entries still within reach of the window when keep is set (the
// previous window's), none otherwise.
func (d *deflater) shiftOffsets(keep bool) {
	for i := range d.table {
		if keep {
			d.table[i].offset = max(0, d.table[i].offset-d.cur+maxMatchOffset+1)
		} else {
			d.table[i] = tableEntry{}
		}
	}
	d.cur = maxMatchOffset + 1
}

func load32(b []byte, i int32) uint32 { return binary.LittleEndian.Uint32(b[i:]) }
func load64(b []byte, i int32) uint64 { return binary.LittleEndian.Uint64(b[i:]) }
func hash(u uint32) uint32            { return (u * 0x1e35a7bd) >> tableShift }

// encode appends the tokens of the window src[start:end] to tokens: Snappy's
// match finder as deflateFast.encode runs it, with the previous window read
// in place at src[:start]. Positions are relative to start; the table holds
// them plus cur.
func (d *deflater) encode(tokens []token, src []byte, start, end int) []token {
	if d.cur >= bufferReset {
		d.shiftOffsets(start > 0)
	}
	win := src[start:end]
	sLimit := int32(len(win) - inputMargin)
	nextEmit, s := int32(0), int32(0)
	cv := load32(win, s)
	nextHash := hash(cv)

	for {
		// After 32 bytes without a match, look at every other byte, after
		// 32 more at every third, and so on.
		skip := int32(32)
		nextS := s
		var candidate tableEntry
		for {
			s = nextS
			step := skip >> 5
			nextS = s + step
			skip += step
			if nextS > sLimit {
				goto emitRemainder
			}
			candidate = d.table[nextHash&tableMask]
			now := load32(win, nextS)
			d.table[nextHash&tableMask] = tableEntry{offset: s + d.cur, val: cv}
			nextHash = hash(now)
			if s-(candidate.offset-d.cur) <= maxMatchOffset && cv == candidate.val {
				break
			}
			cv = now
		}

		// A 4-byte match at s; what lies before it is literals.
		tokens = emitLiterals(tokens, win[nextEmit:s])
		for {
			s += 4
			t := candidate.offset - d.cur + 4 // negative: in the previous window
			l := matchLen(src, start+int(s), start+int(t), min(start+int(s)+maxMatchLength-4, end))
			tokens = append(tokens, token(matchType|uint32(l+1)<<lengthShift|uint32(s-t-1)))
			s += l
			nextEmit = s
			if s >= sLimit {
				goto emitRemainder
			}
			// Insert s−1 and s, and see whether s starts another match.
			x := load64(win, s-1)
			d.table[hash(uint32(x))&tableMask] = tableEntry{offset: d.cur + s - 1, val: uint32(x)}
			x >>= 8
			currHash := hash(uint32(x))
			candidate = d.table[currHash&tableMask]
			d.table[currHash&tableMask] = tableEntry{offset: d.cur + s, val: uint32(x)}
			if s-(candidate.offset-d.cur) > maxMatchOffset || uint32(x) != candidate.val {
				cv = uint32(x >> 8)
				nextHash = hash(cv)
				s++
				break
			}
		}
	}

emitRemainder:
	if int(nextEmit) < len(win) {
		tokens = emitLiterals(tokens, win[nextEmit:])
	}
	d.cur += int32(len(win))
	return tokens
}

func emitLiterals(tokens []token, lit []byte) []token {
	for _, v := range lit {
		tokens = append(tokens, token(v))
	}
	return tokens
}

// matchLen returns how many of the bytes src[s:limit] equal those at src[t:],
// t < s.
func matchLen(src []byte, s, t, limit int) int32 {
	n := 0
	for ; s+n+8 <= limit; n += 8 {
		if x := binary.LittleEndian.Uint64(src[s+n:]) ^ binary.LittleEndian.Uint64(src[t+n:]); x != 0 {
			return int32(n + bits.TrailingZeros64(x)>>3)
		}
	}
	for s+n < limit && src[s+n] == src[t+n] {
		n++
	}
	return int32(n)
}

// flushBytes moves the whole bytes of the nb bits in acc to out[n:], which
// has room for 8, and returns the new n, acc and nb. The partial byte left
// in acc is written too, so padding to a byte boundary is n++ if nb > 0.
func flushBytes(out []byte, n int, acc uint64, nb uint) (int, uint64, uint) {
	binary.LittleEndian.PutUint64(out[n:], acc)
	return n + int(nb>>3), acc >> (nb &^ 7), nb & 7
}

// writeBits appends the low nb ≤ 56 bits of v.
func (d *deflater) writeBits(v uint64, nb uint) {
	d.acc |= v << d.nb
	d.n, d.acc, d.nb = flushBytes(d.out, d.n, d.acc, d.nb+nb)
}

// writeStored writes input as a stored block: 3 header bits (BFINAL, then
// type 0), padding to a byte boundary, the length and its complement, and
// input.
func (d *deflater) writeStored(input []byte, bfinal uint64) {
	d.writeBits(bfinal, 3)
	d.n += int(d.nb+7) >> 3
	d.acc, d.nb = 0, 0
	binary.LittleEndian.PutUint16(d.out[d.n:], uint16(len(input)))
	binary.LittleEndian.PutUint16(d.out[d.n+2:], ^uint16(len(input)))
	d.n += 4 + copy(d.out[d.n+4:], input)
}

// writeBlockHuff writes input as a dynamic block of literals only, or as a
// stored block (see writeHeader).
func (d *deflater) writeBlockHuff(input []byte) {
	clear(d.litFreq[:])
	for _, b := range input {
		d.litFreq[b]++
	}
	d.litFreq[endBlockMarker] = 1
	d.generate(d.litCodes[:], d.litFreq[:], 15)
	// No match, but one distance code of one bit, used once, as
	// compress/flate describes and counts it.
	if !d.writeHeader(endBlockMarker+1, []hcode{{0, 1}}, 1, input) {
		return
	}
	codes := &d.litCodes
	out, n, acc, nb := d.out, d.n, d.acc, d.nb
	for _, b := range input {
		c := codes[b]
		acc |= uint64(c.code) << nb
		nb += uint(c.len)
		if nb >= 48 {
			n, acc, nb = flushBytes(out, n, acc, nb)
		}
	}
	d.n, d.acc, d.nb = n, acc, nb
	c := codes[endBlockMarker]
	d.writeBits(uint64(c.code), uint(c.len))
}

// writeBlockDynamic writes the tokens of input, which end in endBlockMarker,
// as a dynamic block, or input as a stored block (see writeHeader).
func (d *deflater) writeBlockDynamic(tokens []token, input []byte) {
	tokens = append(tokens, endBlockMarker)
	numLiterals, numOffsets := d.indexTokens(tokens)
	if !d.writeHeader(numLiterals, d.offCodes[:numOffsets], bitLength(d.offCodes[:], d.offFreq[:]), input) {
		return
	}
	lit, off := &d.litCodes, &d.offCodes
	out, n, acc, nb := d.out, d.n, d.acc, d.nb
	for _, t := range tokens {
		if t < matchType {
			c := lit[t&511]
			acc |= uint64(c.code) << nb
			nb += uint(c.len)
		} else {
			// At most 15+5 bits of length and 15+13 of distance.
			lc, le, lx := lengthCode(uint32(t-matchType) >> lengthShift)
			oc, oe, ox := offsetCode(uint32(t) & offsetMask)
			c, o := lit[lengthCodesStart+lc], off[oc]
			lbits := uint(c.len) + uint(le)
			acc |= (uint64(c.code) | uint64(lx)<<c.len | (uint64(o.code)|uint64(ox)<<o.len)<<lbits) << nb
			nb += lbits + uint(o.len) + uint(oe)
		}
		n, acc, nb = flushBytes(out, n, acc, nb)
	}
	d.n, d.acc, d.nb = n, acc, nb
}

// indexTokens counts the symbols of tokens, builds the literal/length and
// distance codes, and returns how many of each the header must describe.
func (d *deflater) indexTokens(tokens []token) (numLiterals, numOffsets int) {
	clear(d.litFreq[:])
	clear(d.offFreq[:])
	for _, t := range tokens {
		if t < matchType {
			d.litFreq[t&511]++
			continue
		}
		lc, _, _ := lengthCode(uint32(t-matchType) >> lengthShift)
		oc, _, _ := offsetCode(uint32(t) & offsetMask)
		d.litFreq[lengthCodesStart+lc]++
		d.offFreq[oc]++
	}
	numLiterals = len(d.litFreq)
	for d.litFreq[numLiterals-1] == 0 {
		numLiterals--
	}
	numOffsets = len(d.offFreq)
	for numOffsets > 0 && d.offFreq[numOffsets-1] == 0 {
		numOffsets--
	}
	if numOffsets == 0 {
		// No match: one distance code anyway, so the header describes one.
		d.offFreq[0] = 1
		numOffsets = 1
	}
	d.generate(d.litCodes[:], d.litFreq[:], 15)
	d.generate(d.offCodes[:], d.offFreq[:], 15)
	return numLiterals, numOffsets
}

// writeHeader writes the header of a dynamic block with the literal/length
// code d.litCodes[:numLiterals] and the distance code offCodes, whose
// distances cost offBits — unless a stored block would not be 1/16 larger
// than that block without its extra bits: then it writes input stored and
// reports false.
func (d *deflater) writeHeader(numLiterals int, offCodes []hcode, offBits int, input []byte) bool {
	d.generateCodegen(numLiterals, offCodes)
	d.generate(d.cgCodes[:], d.cgFreq[:], 7)
	numCodegens := len(d.cgFreq)
	for numCodegens > 4 && d.cgFreq[preOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	size := 3 + 5 + 5 + 4 + 3*numCodegens + bitLength(d.cgCodes[:], d.cgFreq[:]) +
		int(d.cgFreq[16])*2 + int(d.cgFreq[17])*3 + int(d.cgFreq[18])*7 +
		bitLength(d.litCodes[:], d.litFreq[:]) + offBits
	if (len(input)+5)*8 < size+size>>4 {
		d.writeStored(input, 0)
		return false
	}
	// Not final, dynamic; HLIT, HDIST, HCLEN.
	d.writeBits(4|uint64(numLiterals-257)<<3|uint64(len(offCodes)-1)<<8|uint64(numCodegens-4)<<13, 17)
	for _, s := range preOrder[:numCodegens] {
		d.writeBits(uint64(d.cgCodes[s].len), 3)
	}
	for i := 0; d.codegen[i] != badCode; i++ {
		sym := d.codegen[i]
		d.writeBits(uint64(d.cgCodes[sym].code), uint(d.cgCodes[sym].len))
		if sym >= 16 { // a repeat count follows
			i++
			d.writeBits(uint64(d.codegen[i]), [...]uint{2, 3, 7}[sym-16])
		}
	}
	return true
}

// generateCodegen run-length codes the code lengths of the first numLiterals
// literal/length codes and of offCodes (RFC 1951 §3.2.7) into d.codegen,
// ended by badCode, and counts the codegen symbols into d.cgFreq.
func (d *deflater) generateCodegen(numLiterals int, offCodes []hcode) {
	clear(d.cgFreq[:])
	codegen := d.codegen[:]
	for i, c := range d.litCodes[:numLiterals] {
		codegen[i] = uint8(c.len)
	}
	for i, c := range offCodes {
		codegen[numLiterals+i] = uint8(c.len)
	}
	codegen[numLiterals+len(offCodes)] = badCode

	// The output never overtakes the input, so it is written in place.
	size := codegen[0]
	count := 1
	outIndex := 0
	for inIndex := 1; size != badCode; inIndex++ {
		// count copies of size are waiting to be written.
		nextSize := codegen[inIndex]
		if nextSize == size {
			count++
			continue
		}
		if size != 0 {
			codegen[outIndex] = size
			outIndex++
			d.cgFreq[size]++
			count--
			for count >= 3 {
				n := min(6, count)
				codegen[outIndex], codegen[outIndex+1] = 16, uint8(n-3)
				outIndex += 2
				d.cgFreq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := min(138, count)
				codegen[outIndex], codegen[outIndex+1] = 18, uint8(n-11)
				outIndex += 2
				d.cgFreq[18]++
				count -= n
			}
			if count >= 3 {
				codegen[outIndex], codegen[outIndex+1] = 17, uint8(count-3)
				outIndex += 2
				d.cgFreq[17]++
				count = 0
			}
		}
		for ; count > 0; count-- {
			codegen[outIndex] = size
			outIndex++
			d.cgFreq[size]++
		}
		size = nextSize
		count = 1
	}
	codegen[outIndex] = badCode
}

func bitLength(codes []hcode, freq []int32) int {
	total := 0
	for i, f := range freq {
		total += int(f) * int(codes[i].len)
	}
	return total
}

// generate sets codes to the code compress/flate's huffmanEncoder.generate
// builds for freq with no code longer than maxBits: the symbols in use
// sorted by (freq, symbol), the number of codes of each length, the shortest
// lengths dealt to the last symbols of that order, and canonical codes
// assigned in symbol order (RFC 1951 §3.2.2).
func (d *deflater) generate(codes []hcode, freq []int32, maxBits int32) {
	list := d.nodes[:0]
	for i, f := range freq {
		if f != 0 {
			list = append(list, litNode{uint16(i), f})
		} else {
			codes[i].len = 0
		}
	}
	if len(list) <= 2 {
		// One bit each, in symbol order.
		for i, node := range list {
			codes[node.literal] = hcode{uint16(i), 1}
		}
		return
	}
	sortByFreq(list, d.sorted[:len(list)])
	var counts [maxBitsLimit]int32
	if !d.huffmanCounts(list, maxBits, &counts) {
		bitCounts(list, maxBits, &counts)
	}

	var next [maxBitsLimit]uint16
	i := len(list)
	code := uint16(0)
	for l := 1; l < maxBitsLimit; l++ {
		code = (code + uint16(counts[l-1])) << 1
		next[l] = code
		for _, node := range list[i-int(counts[l]) : i] {
			codes[node.literal].len = uint16(l)
		}
		i -= int(counts[l])
	}
	for s := range freq {
		if l := codes[s].len; l != 0 {
			codes[s].code = bits.Reverse16(next[l] << (16 - l))
			next[l]++
		}
	}
}

// sortByFreq sorts list, which is in symbol order, by frequency, stably:
// insertion for a short list, otherwise a counting sort per byte of the
// frequency, low byte first. tmp is as long as list.
func sortByFreq(list, tmp []litNode) {
	if len(list) <= 32 {
		for i := 1; i < len(list); i++ {
			for j := i; j > 0 && list[j-1].freq > list[j].freq; j-- {
				list[j], list[j-1] = list[j-1], list[j]
			}
		}
		return
	}
	var top int32
	for _, x := range list {
		top = max(top, x.freq)
	}
	src, dst := list, tmp
	for shift := uint(0); top>>shift != 0; shift += 8 {
		var pos [256]int32
		for _, x := range src {
			pos[uint8(x.freq>>shift)]++
		}
		sum := int32(0)
		for b, c := range pos {
			pos[b] = sum
			sum += c
		}
		for _, x := range src {
			b := uint8(x.freq >> shift)
			dst[pos[b]] = x
			pos[b]++
		}
		src, dst = dst, src
	}
	copy(list, src) // a no-op when src is list
}

// huffmanCounts counts into counts the codes of each length of a Huffman
// tree for list (n ≥ 3 leaves sorted by frequency) built with two queues —
// the leaves, and the internal nodes in the order they are made, which is
// by weight — taking the internal node when it weighs as much as the leaf.
// It reports false, leaving counts to the caller, when the tree is deeper
// than maxBits.
func (d *deflater) huffmanCounts(list []litNode, maxBits int32, counts *[maxBitsLimit]int32) bool {
	n := len(list)
	leaf, inner := 0, 0
	for made := 0; made < n-1; made++ {
		var w int32
		for range 2 {
			if leaf < n && (inner == made || list[leaf].freq < d.weight[inner]) {
				w += list[leaf].freq
				d.leafParent[leaf] = uint16(made)
				leaf++
			} else {
				w += d.weight[inner]
				d.innerParent[inner] = uint16(made)
				inner++
			}
		}
		d.weight[made] = w
	}
	// Parents are made after their children: depths top down.
	d.depth[n-2] = 0
	for i := n - 3; i >= 0; i-- {
		d.depth[i] = d.depth[d.innerParent[i]] + 1
	}
	for i := range n {
		l := int32(d.depth[d.leafParent[i]]) + 1
		if l > maxBits {
			return false
		}
		counts[l]++
	}
	return true
}

// levelInfo is one level of bitCounts' boundary package-merge.
type levelInfo struct {
	level        int32 // this level
	lastFreq     int32 // the weight of the last node at this level
	nextCharFreq int32 // the weight of the next leaf to add here
	nextPairFreq int32 // the weight of the next pair from the level below, valid once that level needs nothing
	needed       int32 // chains still to make here before moving up
}

// bitCounts is compress/flate's length-limited code-length computation,
// ported unchanged but for writing into counts: list (n ≥ 3 leaves sorted by
// frequency, with room for a sentinel at list[n]) gets counts[l] codes of l
// bits, none longer than maxBits < maxBitsLimit.
func bitCounts(list []litNode, maxBits int32, counts *[maxBitsLimit]int32) {
	n := int32(len(list))
	list = list[0 : n+1]
	list[n] = litNode{math.MaxUint16, math.MaxInt32}

	maxBits = min(maxBits, n-1) // no tree is deeper

	// A bogus level 0 whose sole purpose is that level 1's prev.needed is 0,
	// which makes level 1's nextPairFreq a legitimate value never chosen.
	var levels [maxBitsLimit]levelInfo
	// leafCounts[i][j] is the number of leaves left of the level-j ancestor
	// of the rightmost node at level i.
	var leafCounts [maxBitsLimit][maxBitsLimit]int32

	for level := int32(1); level <= maxBits; level++ {
		// Every level starts as if its first two items were the first two
		// leaves.
		levels[level] = levelInfo{
			level:        level,
			lastFreq:     list[1].freq,
			nextCharFreq: list[2].freq,
			nextPairFreq: list[0].freq + list[1].freq,
		}
		leafCounts[level][level] = 2
		if level == 1 {
			levels[level].nextPairFreq = math.MaxInt32
		}
	}

	// 2n − 2 items are needed at the top level, and two are made.
	levels[maxBits].needed = 2*n - 4

	level := maxBits
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// Out of leaves and pairs: this level is done, and no lower
			// level is visited again.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}

		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			// The next item on this level is a leaf.
			n := leafCounts[level][level] + 1
			l.lastFreq = l.nextCharFreq
			leafCounts[level][level] = n
			l.nextCharFreq = list[n].freq
		} else {
			// The next item is a pair from the level below, which has to
			// make two more items before nextPairFreq is valid again.
			l.lastFreq = l.nextPairFreq
			copy(leafCounts[level][:level], leafCounts[level-1][:level])
			levels[l.level-1].needed = 2
		}

		if l.needed--; l.needed == 0 {
			// Done with this level: the pair of its last two items is the
			// next candidate one level up.
			if l.level == maxBits {
				break
			}
			levels[l.level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			// If this level took from below, go down to replenish it.
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}

	if leafCounts[maxBits][maxBits] != n {
		panic("codec: deflate: bitCounts did not place every leaf")
	}
	c := &leafCounts[maxBits]
	for level, bits := maxBits, 1; level > 0; level, bits = level-1, bits+1 {
		counts[bits] = c[level] - c[level-1]
	}
}
