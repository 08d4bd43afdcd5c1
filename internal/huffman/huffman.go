// Package huffman implements a canonical Huffman coder over int32 symbols,
// the entropy stage of the SZ3-lite and SPERR-lite baselines (SZ3 itself
// Huffman-codes its quantization indices before zstd). Symbols are
// arbitrary int32 values; the symbol alphabet is stored in the header, so
// sparse alphabets (the common case for quantization indices, which
// concentrate around zero) stay cheap.
//
// Only baselines import it: the serving binary and the public ipcomp
// package must not link it (TestServingLinksNoBaseline in cmd/ipcompd).
package huffman

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"sort"
)

// maxCodeLen caps Huffman code lengths; 32 bits is always achievable for
// alphabets below 2^32 via the package's length-limiting rebalance.
const maxCodeLen = 32

type huffNode struct {
	freq        uint64
	sym         int32
	left, right *huffNode
}

type huffHeap []*huffNode

func (h huffHeap) Len() int { return len(h) }
func (h huffHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].sym < h[j].sym // deterministic tie-break
}
func (h huffHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x interface{}) { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// codeLengths builds Huffman code lengths for the given (symbol, frequency)
// alphabet using the classic heap construction.
func codeLengths(syms []int32, freqs []uint64) []uint8 {
	n := len(syms)
	lengths := make([]uint8, n)
	switch n {
	case 0:
		return lengths
	case 1:
		lengths[0] = 1
		return lengths
	}
	h := make(huffHeap, 0, n)
	index := make(map[int32]int, n)
	for i, s := range syms {
		index[s] = i
		h = append(h, &huffNode{freq: freqs[i], sym: s})
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*huffNode)
		b := heap.Pop(&h).(*huffNode)
		heap.Push(&h, &huffNode{freq: a.freq + b.freq, sym: min32(a.sym, b.sym), left: a, right: b})
	}
	root := h[0]
	var walk func(nd *huffNode, depth uint8)
	walk = func(nd *huffNode, depth uint8) {
		if nd.left == nil {
			if depth == 0 {
				depth = 1
			}
			lengths[index[nd.sym]] = depth
			return
		}
		walk(nd.left, depth+1)
		walk(nd.right, depth+1)
	}
	walk(root, 0)
	clampLengths(lengths)
	return lengths
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// clampLengths enforces maxCodeLen by the standard Kraft-sum repair: any
// over-long code is shortened to the cap and shorter codes are lengthened
// until the Kraft inequality holds again.
func clampLengths(lengths []uint8) {
	over := false
	for _, l := range lengths {
		if l > maxCodeLen {
			over = true
			break
		}
	}
	if !over {
		return
	}
	for i, l := range lengths {
		if l > maxCodeLen {
			lengths[i] = maxCodeLen
		}
	}
	// Repair Kraft sum K = sum 2^(max-len) <= 2^max.
	var k uint64
	for _, l := range lengths {
		k += 1 << uint(maxCodeLen-l)
	}
	limit := uint64(1) << maxCodeLen
	// Lengthen the shortest codes (cheapest in expected bits) until valid.
	for k > limit {
		best := -1
		for i, l := range lengths {
			if l < maxCodeLen && (best == -1 || l < lengths[best]) {
				best = i
			}
		}
		k -= 1 << uint(maxCodeLen-lengths[best]-1)
		lengths[best]++
	}
}

// canonicalCodes assigns canonical codes (shortest first, then symbol order)
// to the given lengths. Returned codes are MSB-aligned within their length.
func canonicalCodes(syms []int32, lengths []uint8) []uint64 {
	order := make([]int, len(syms))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if lengths[ia] != lengths[ib] {
			return lengths[ia] < lengths[ib]
		}
		return syms[ia] < syms[ib]
	})
	codes := make([]uint64, len(syms))
	var code uint64
	var prevLen uint8
	for _, idx := range order {
		l := lengths[idx]
		if prevLen != 0 {
			code = (code + 1) << uint(l-prevLen)
		}
		codes[idx] = code
		prevLen = l
	}
	return codes
}

// Encode encodes data into a self-describing byte stream: a header
// with the alphabet and code lengths followed by the packed bitstream. The
// stream is further DEFLATE-compressed by callers when profitable (SZ3-lite
// does, mirroring SZ3's Huffman+zstd pipeline).
func Encode(data []int32) []byte {
	// Histogram over the sparse alphabet.
	hist := make(map[int32]uint64)
	for _, v := range data {
		hist[v]++
	}
	syms := make([]int32, 0, len(hist))
	for s := range hist {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	freqs := make([]uint64, len(syms))
	for i, s := range syms {
		freqs[i] = hist[s]
	}
	lengths := codeLengths(syms, freqs)
	codes := canonicalCodes(syms, lengths)

	var out []byte
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		out = append(out, scratch[:n]...)
	}
	put(uint64(len(data)))
	put(uint64(len(syms)))
	for i, s := range syms {
		put(zigzag(s))
		out = append(out, lengths[i])
	}

	// Pack the bitstream MSB-first.
	codeOf := make(map[int32]uint64, len(syms))
	lenOf := make(map[int32]uint8, len(syms))
	for i, s := range syms {
		codeOf[s] = codes[i]
		lenOf[s] = lengths[i]
	}
	var acc uint64
	var nbits uint
	for _, v := range data {
		c, l := codeOf[v], uint(lenOf[v])
		acc = acc<<l | c
		nbits += l
		for nbits >= 8 {
			nbits -= 8
			out = append(out, byte(acc>>nbits))
		}
	}
	if nbits > 0 {
		out = append(out, byte(acc<<(8-nbits)))
	}
	return out
}

// Decode inverts Encode.
func Decode(blob []byte) ([]int32, error) {
	pos := 0
	get := func() (uint64, error) {
		v, n := binary.Uvarint(blob[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("huffman: truncated header")
		}
		pos += n
		return v, nil
	}
	count, err := get()
	if err != nil {
		return nil, err
	}
	nsyms, err := get()
	if err != nil {
		return nil, err
	}
	syms := make([]int32, nsyms)
	lengths := make([]uint8, nsyms)
	for i := range syms {
		zz, err := get()
		if err != nil {
			return nil, err
		}
		syms[i] = unzigzag(zz)
		if pos >= len(blob) {
			return nil, fmt.Errorf("huffman: truncated lengths")
		}
		lengths[i] = blob[pos]
		if lengths[i] == 0 || lengths[i] > maxCodeLen {
			return nil, fmt.Errorf("huffman: invalid code length %d", lengths[i])
		}
		pos++
	}
	if count == 0 {
		return []int32{}, nil
	}
	if nsyms == 0 {
		return nil, fmt.Errorf("huffman: %d values but empty alphabet", count)
	}
	if nsyms == 1 {
		out := make([]int32, count)
		for i := range out {
			out[i] = syms[0]
		}
		return out, nil
	}

	// Canonical decoding: with symbols sorted by (length, symbol) the codes
	// of each length are consecutive, so a per-length (firstCode, offset)
	// table decodes one bit at a time with no hash lookups.
	order := make([]int, nsyms)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if lengths[ia] != lengths[ib] {
			return lengths[ia] < lengths[ib]
		}
		return syms[ia] < syms[ib]
	})
	sortedSyms := make([]int32, nsyms)
	for i, idx := range order {
		sortedSyms[i] = syms[idx]
	}
	var countByLen [maxCodeLen + 1]uint64
	for _, l := range lengths {
		countByLen[l]++
	}
	var firstCode, offset [maxCodeLen + 2]uint64
	var code, off uint64
	maxLen := 0
	for l := 1; l <= maxCodeLen; l++ {
		firstCode[l] = code
		offset[l] = off
		code = (code + countByLen[l]) << 1
		off += countByLen[l]
		if countByLen[l] > 0 {
			maxLen = l
		}
	}

	out := make([]int32, 0, count)
	var acc uint64
	var nbits int
	bitPos := pos
	cur := uint64(0)
	curLen := 0
	for uint64(len(out)) < count {
		if nbits == 0 {
			if bitPos >= len(blob) {
				return nil, fmt.Errorf("huffman: truncated bitstream")
			}
			acc = uint64(blob[bitPos])
			nbits = 8
			bitPos++
		}
		nbits--
		cur = cur<<1 | (acc>>uint(nbits))&1
		curLen++
		if curLen > maxLen {
			return nil, fmt.Errorf("huffman: invalid code near byte %d", bitPos)
		}
		if idx := cur - firstCode[curLen]; idx < countByLen[curLen] {
			out = append(out, sortedSyms[offset[curLen]+idx])
			cur, curLen = 0, 0
		}
	}
	return out, nil
}

func zigzag(v int32) uint64 {
	return uint64(uint32(v<<1) ^ uint32(v>>31))
}

func unzigzag(u uint64) int32 {
	x := uint32(u)
	return int32(x>>1) ^ -int32(x&1)
}
