package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bitplane"
	"repro/internal/interp"
	"repro/internal/nb"
	"repro/internal/quant"
)

// exactMaxDrop is the maxDrop table as the three-pass encoder computed it,
// the oracle of encodeLevel: maxDrop[d] = max_i |k_i − decode(truncate(nb_i,
// d))| for d = 0..used. The loss at depth d is the partial sum of the
// dropped digits, Σ_{j<d} u_j·(−2)^j, built one digit at a time up to each
// value's top digit, past which the loss is constant at |k| and folds into
// a running tail maximum (pend).
func exactMaxDrop(ks []int32, nbv []uint32, used int) []uint32 {
	maxDrop := make([]uint32, used+1)
	var pend [bitplane.Planes + 2]uint32
	for i, u := range nbv {
		if u == 0 {
			continue // k == 0: zero loss at every depth
		}
		dEnd := min(bits.Len32(u), used)
		var diff int64
		w := int64(1) // (−2)^d
		for d := 1; d <= dEnd; d++ {
			diff += w & -int64(u&1)
			u >>= 1
			w *= -2
			if a := absDiff(diff); a > maxDrop[d] {
				maxDrop[d] = a
			}
		}
		if dEnd < used {
			pend[dEnd+1] = max(pend[dEnd+1], absDiff(int64(ks[i])))
		}
	}
	run := uint32(0)
	for d := 1; d <= used; d++ {
		run = max(run, pend[d])
		maxDrop[d] = max(maxDrop[d], run)
	}
	return maxDrop
}

// threePassEncode is the encoder before the fused pass: negabinary-encode
// every index, count the used planes (bitplane.NumUsedPlanes), build the
// maxDrop table (exactMaxDrop), and split and predict the codes into 32
// planes (SplitInto, then PredictEncode over all 32).
func threePassEncode(ks []int32) (used int, maxDrop []uint32, planes [][]byte) {
	nbv := make([]uint32, len(ks))
	for i, k := range ks {
		nbv[i] = nb.Encode32(k)
	}
	used = bitplane.NumUsedPlanes(nbv)
	planes = make([][]byte, bitplane.Planes)
	for p := range planes {
		planes[p] = make([]byte, (len(nbv)+7)/8)
	}
	bitplane.SplitInto(planes, nbv)
	bitplane.PredictEncode(planes)
	return used, exactMaxDrop(ks, nbv, used), planes
}

// checkEncodeLevel holds encodeLevel to threePassEncode: the used planes,
// every entry of the maxDrop table and every byte of all 32 planes.
func checkEncodeLevel(t *testing.T, name string, ks []int32) {
	t.Helper()
	wantUsed, wantDrop, wantPlanes := threePassEncode(ks)
	nbytes := (len(ks) + 7) / 8
	backing := bytes.Repeat([]byte{0x5a}, bitplane.Planes*nbytes) // every byte must be overwritten
	all := make([][]byte, bitplane.Planes)
	for p := range all {
		all[p] = backing[p*nbytes : (p+1)*nbytes]
	}
	used, drop := encodeLevel(ks, all)
	if used != wantUsed {
		t.Fatalf("%s: used %d planes, three passes %d", name, used, wantUsed)
	}
	if fmt.Sprint(drop) != fmt.Sprint(wantDrop) {
		t.Fatalf("%s: maxDrop %v, three passes %v", name, drop, wantDrop)
	}
	for p := range all {
		if !bytes.Equal(all[p], wantPlanes[p]) {
			t.Fatalf("%s: plane %d differs:\n got %x\nwant %x", name, p, all[p], wantPlanes[p])
		}
	}
}

// TestEncodeLevelMatchesThreePass runs the fused pass over hand-picked and
// random levels — all zero, an index at ±nb.MaxIndex, alternating signs,
// short codes only, long codes only, a depth past lowBits whose loss only
// short codes set, and mixes, at every length 1..70 and
// at lengths that span several chunks and shards — and over every level
// of real archives of both widths.
func TestEncodeLevelMatchesThreePass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := map[string]func(i int) int32{
		"zero":        func(int) int32 { return 0 },
		"maxindex":    func(i int) int32 { return [3]int32{0, nb.MaxIndex, -nb.MaxIndex}[i%3] },
		"alternating": func(i int) int32 { return int32(1+i%5) * (1 - 2*int32(i&1)) },
		"short":       func(int) int32 { return int32(rng.Intn(681)) - 340 },
		// −682 is the widest short code's index; −1706's code is long, and
		// its loss at depth lowBits+1 (342) is below 682, which only the
		// short codes' |k| then sets.
		"short beside long": func(i int) int32 {
			if i%50 == 0 {
				return -1706
			}
			return -682
		},
		"long": func(int) int32 { return int32(rng.Intn(1<<24)) - 1<<23 },
		"mixed": func(int) int32 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return int32(rng.Intn(7)) - 3
			case 2:
				return int32(rng.Intn(1<<12)) - 1<<11
			}
			return int32(rng.Intn(2*nb.MaxIndex+1)) - nb.MaxIndex
		},
	}
	lengths := []int{4095, 4096, 4097, 3*encodeChunk + 40, 2*minPassTargets + 24}
	for n := 1; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for name, gen := range gens {
		for _, n := range lengths {
			ks := make([]int32, n)
			for i := range ks {
				ks[i] = gen(i)
			}
			checkEncodeLevel(t, fmt.Sprintf("%s/n=%d", name, n), ks)
		}
	}
	// One index of the window's edge in an otherwise short level.
	ks := make([]int32, 100)
	ks[37] = nb.MaxIndex
	checkEncodeLevel(t, "one maxindex", ks)

	for _, tc := range goldenCases() {
		for _, width := range []string{"f64", "f32"} {
			t.Run(tc.name+"/"+width, func(t *testing.T) {
				dec, err := interp.NewDecomposition(tc.shape)
				if err != nil {
					t.Fatal(err)
				}
				q := quant.New(1e-6)
				var levels [][]int32
				if width == "f64" {
					levels, _, _ = specQuantize(goldenField(t, tc.shape).Data(), dec, tc.kind, q)
				} else {
					levels, _, _ = specQuantize(goldenField32(t, tc.shape).Data(), dec, tc.kind, q)
				}
				for l := 1; l <= dec.NumLevels(); l++ {
					checkEncodeLevel(t, fmt.Sprintf("level %d", l), levels[l])
				}
			})
		}
	}
}

// TestPlaneRowsSpreadOverCacheSets pins the plane stride's rule: for every
// level of up to 2²⁴ values, the distinct lines that the 32 row starts of a
// plane backing touch fall in distinct sets of a first-level cache of 64
// sets of 64-byte lines, and each row costs less than 128 bytes of
// padding. Rows of at most 128 bytes are packed, so several row starts
// share a line there.
func TestPlaneRowsSpreadOverCacheSets(t *testing.T) {
	const lineBytes, sets = 64, 64
	for planeBytes := 0; planeBytes <= 1<<24/8; planeBytes++ {
		stride := planeStride(planeBytes)
		if stride < planeBytes || stride-planeBytes >= 2*lineBytes {
			t.Fatalf("planeBytes %d: stride %d", planeBytes, stride)
		}
		// The row starts ascend: a line is new when it is not the last one.
		lines, last := 0, -1
		var seen uint64
		for p := 0; p < bitplane.Planes; p++ {
			if line := p * stride / lineBytes; line != last {
				lines, last = lines+1, line
				seen |= 1 << (line % sets)
			}
		}
		if n := bits.OnesCount64(seen); n != lines {
			t.Fatalf("planeBytes %d: stride %d puts the %d lines of the row starts in %d sets", planeBytes, stride, lines, n)
		}
	}
}
