package core

import (
	"math/bits"

	"repro/internal/bitplane"
	"repro/internal/nb"
)

// This file holds the one pass a level makes after quantization. A chunk of
// the level's indices at a time, while it sits in L1, the pass encodes them
// to negabinary, ORs the codes (the used planes), gathers the exact
// truncation-loss table maxDrop, and splits the predicted codes into the 32
// planes (bitplane.SplitEncodeRange).
//
// maxDrop[d] = max_i |k_i − decode(truncate(u_i, d))|, the loss of dropping
// a code's d lowest digits: the per-level ‖δy‖∞ table, in quantization
// steps, that the retrieval optimizer consumes (serialized, so the golden
// digests pin it). Negabinary decode is positional, so that loss
// is |Σ_{j<d} u_j·(−2)^j|: the value of the code's low d digits alone. Past
// a code's top digit the loss is |k| at every depth; it is kept once per
// top digit and spread over the deeper depths at the end.
//
// The per-value cost does not grow with the number of used planes: for
// d ≤ lowBits the loss depends only on a code's low lowBits digits, so the
// pass marks which of those 2^lowBits patterns occur in a byte table, one
// store per value, and foldLow takes the maxima over the patterns present
// once per shard. Only a code of more than lowBits digits still walks its
// higher digits (high), from its low digits' value on.

const (
	lowBits  = 10
	lowCodes = 1 << lowBits
	// encodeChunk is how many indices the pass encodes and splits at a
	// time: 16 KB of indices and as many bytes of planes.
	encodeChunk = 4096
)

// absDecode[r] is |decode(r)|, the loss at depth d of every code whose low
// d digits are r, r < 2^d.
var absDecode = func() (t [lowCodes]uint16) {
	for r := range t {
		t[r] = uint16(absDiff(int64(nb.Decode32(uint32(r)))))
	}
	return t
}()

// encodeLevel splits the quantization indices ks into the level's 32
// predicted negabinary planes, all, MSB first — every byte in range is
// overwritten — and returns how many of them are used and the exact maxDrop
// table, maxDrop[d] for d = 0..used.
func encodeLevel(ks []int32, all [][]byte) (used int, maxDrop []uint32) {
	var s dropScan
	if chunks, per := chunkSpan(len(ks), minPassTargets, encodeChunk); chunks <= 1 {
		s.scan(ks, all, 0, len(ks))
	} else {
		parts := make([]dropScan, chunks)
		ParallelFor(chunks, func(c int) {
			lo := c * per
			parts[c].scan(ks, all, lo, min(lo+per, len(ks)))
		})
		for i := range parts {
			s.merge(&parts[i])
		}
	}
	return s.table()
}

// dropScan is one shard's share of the pass: the OR of its codes and its
// part of the maxDrop table, which merge with OR and max, in any order.
type dropScan struct {
	or uint32
	// drop[d] is the greatest loss at depth d seen directly.
	drop [bitplane.Planes + 1]uint32
	// pend[d] is the greatest |k| of the codes whose top digit is d−1:
	// their loss at depth d and at every deeper one.
	pend [bitplane.Planes + 2]uint32
	// low marks, with a 1, the low-digit patterns that occur: low[u] for a
	// whole code u < lowCodes, low[lowCodes + u mod lowCodes] for a longer
	// code.
	low [2 * lowCodes]byte
}

// scan runs the pass over ks[lo:hi), lo a multiple of encodeChunk.
func (s *dropScan) scan(ks []int32, planes [][]byte, lo, hi int) {
	// The OR stays in a register: through s it would be stored and
	// reloaded beside every store to the table.
	or, low := uint32(0), &s.low
	for c := lo; c < hi; c += encodeChunk {
		e := min(c+encodeChunk, hi)
		for _, k := range ks[c:e] {
			u := nb.Encode32(k)
			or |= u
			if u < lowCodes {
				low[u] = 1
			} else {
				low[lowCodes+u&(lowCodes-1)] = 1
				s.high(k, u)
			}
		}
		bitplane.SplitEncodeRange(planes, ks, c, e)
	}
	s.or |= or
	s.foldLow()
}

// high records the losses of a code u (of index k) longer than lowBits
// digits at the depths past lowBits: the running partial sum from the value
// of its low digits on, then |k| past its top digit. The digit loop is
// branchless: the digits are effectively random, so a conditional add
// would mispredict constantly.
func (s *dropScan) high(k int32, u uint32) {
	dEnd := bits.Len32(u) // one past the top set digit
	diff := int64(nb.Decode32(u & (lowCodes - 1)))
	w := int64(lowCodes) // (−2)^lowBits, lowBits even
	u >>= lowBits
	for d := lowBits + 1; d <= dEnd; d++ {
		diff += w & -int64(u&1)
		u >>= 1
		w *= -2
		if a := absDiff(diff); a > s.drop[d] {
			s.drop[d] = a
		}
	}
	if a := absDiff(int64(k)); a > s.pend[dEnd+1] {
		s.pend[dEnd+1] = a
	}
}

// foldLow takes the greatest loss over the low-digit patterns present at
// each depth d ≤ lowBits: the greatest absDecode[r] over the residues r of
// the patterns modulo 2^d, folding the table in half per depth. A whole
// short code's loss past lowBits is its |k| = absDecode[u].
func (s *dropScan) foldLow() {
	var p [lowCodes]byte
	var top, short uint16
	for r := range p {
		p[r] = s.low[r] | s.low[lowCodes+r]
		top = max(top, absDecode[r]&-uint16(p[r]))
		short = max(short, absDecode[r]&-uint16(s.low[r]))
	}
	s.drop[lowBits] = max(s.drop[lowBits], uint32(top))
	s.pend[lowBits+1] = max(s.pend[lowBits+1], uint32(short))
	for d := lowBits - 1; d >= 1; d-- {
		half := 1 << d
		var m uint16
		for r := range half {
			p[r] |= p[r+half]
			m = max(m, absDecode[r]&-uint16(p[r]))
		}
		s.drop[d] = max(s.drop[d], uint32(m))
	}
}

func (s *dropScan) merge(o *dropScan) {
	s.or |= o.or
	for d := range s.drop {
		s.drop[d] = max(s.drop[d], o.drop[d])
	}
	for d := range s.pend {
		s.pend[d] = max(s.pend[d], o.pend[d])
	}
}

// table returns the used planes and the maxDrop table.
func (s *dropScan) table() (used int, maxDrop []uint32) {
	used = bits.Len32(s.or)
	maxDrop = make([]uint32, used+1)
	run := uint32(0)
	for d := 1; d <= used; d++ {
		run = max(run, s.pend[d])
		maxDrop[d] = max(s.drop[d], run)
	}
	return used, maxDrop
}

// absDiff returns |x| for a loss that fits 32 bits, without a branch.
func absDiff(x int64) uint32 {
	m := x >> 63
	return uint32((x ^ m) - m)
}
