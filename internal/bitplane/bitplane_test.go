package bitplane

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randValues(r *rand.Rand, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		// Mix of small (common for quantized residuals) and large values.
		switch r.Intn(3) {
		case 0:
			out[i] = uint32(r.Intn(16))
		case 1:
			out[i] = uint32(r.Intn(1 << 12))
		default:
			out[i] = r.Uint32()
		}
	}
	return out
}

// split transposes values into 32 freshly allocated planes (SplitInto).
func split(values []uint32) [][]byte {
	planes := make([][]byte, Planes)
	for p := range planes {
		planes[p] = make([]byte, (len(values)+7)/8)
	}
	SplitInto(planes, values)
	return planes
}

func TestSplitMergeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
		vals := randValues(r, n)
		planes := split(vals)
		got := make([]uint32, n)
		MergeInto(got, planes)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("n=%d: value %d: got %#x want %#x", n, i, got[i], vals[i])
			}
		}
	}
}

func TestMergeWithMissingLowPlanesTruncates(t *testing.T) {
	vals := []uint32{0xFFFFFFFF, 0x12345678, 0}
	planes := split(vals)
	// Drop the 8 least significant planes.
	for p := 24; p < 32; p++ {
		planes[p] = nil
	}
	got := make([]uint32, len(vals))
	MergeInto(got, planes)
	for i, v := range vals {
		if want := v &^ 0xFF; got[i] != want {
			t.Errorf("value %d: got %#x want %#x", i, got[i], want)
		}
	}
}

func TestPredictEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 10, 100, 257} {
		vals := randValues(r, n)
		planes := split(vals)
		orig := make([][]byte, len(planes))
		for i, p := range planes {
			orig[i] = append([]byte(nil), p...)
		}
		PredictEncode(planes)
		PredictDecode(planes)
		for i := range planes {
			for j := range planes[i] {
				if planes[i][j] != orig[i][j] {
					t.Fatalf("n=%d plane %d byte %d differs", n, i, j)
				}
			}
		}
	}
}

func TestPredictRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		planes := split(raw)
		PredictEncode(planes)
		PredictDecode(planes)
		got := make([]uint32, len(raw))
		MergeInto(got, planes)
		for i := range raw {
			if got[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNumUsedPlanes(t *testing.T) {
	cases := []struct {
		vals []uint32
		want int
	}{
		{[]uint32{0, 0, 0}, 0},
		{[]uint32{1}, 1},
		{[]uint32{1, 2}, 2},
		{[]uint32{0xFF}, 8},
		{[]uint32{1 << 31}, 32},
		{[]uint32{}, 0},
	}
	for _, c := range cases {
		if got := NumUsedPlanes(c.vals); got != c.want {
			t.Errorf("NumUsedPlanes(%v) = %d, want %d", c.vals, got, c.want)
		}
	}
}

func TestSubsliceSkipLeadingZeroPlanes(t *testing.T) {
	// The compressor encodes only the trailing `used` planes; verify that
	// predict-coding the subslice round-trips and merging with leading
	// zero planes restores values.
	vals := []uint32{5, 9, 12, 0, 3}
	used := NumUsedPlanes(vals)
	all := split(vals)
	sub := all[32-used:]
	PredictEncode(sub)
	PredictDecode(sub)
	full := make([][]byte, Planes)
	for i, p := range sub {
		full[32-used+i] = p
	}
	got := make([]uint32, len(vals))
	MergeInto(got, full)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: got %d want %d", i, got[i], vals[i])
		}
	}
}

// refSplit is the original per-bit implementation, kept as the oracle for
// the word-level transpose.
func refSplit(values []uint32) [][]byte {
	n := len(values)
	nbytes := (n + 7) / 8
	planes := make([][]byte, Planes)
	backing := make([]byte, Planes*nbytes)
	for p := 0; p < Planes; p++ {
		planes[p] = backing[p*nbytes : (p+1)*nbytes]
	}
	for i, v := range values {
		byteIdx := i >> 3
		bit := byte(0x80) >> uint(i&7)
		for p := 0; p < Planes; p++ {
			if v&(1<<uint(31-p)) != 0 {
				planes[p][byteIdx] |= bit
			}
		}
	}
	return planes
}

func refMergeInto(out []uint32, planes [][]byte) {
	for i := range out {
		out[i] = 0
	}
	for p, plane := range planes {
		if plane == nil || p >= Planes {
			continue
		}
		shift := uint(31 - p)
		for i := range out {
			byteIdx := i >> 3
			bit := byte(0x80) >> uint(i&7)
			if plane[byteIdx]&bit != 0 {
				out[i] |= 1 << shift
			}
		}
	}
}

// TestTransposeMatchesReference drives the word-level SplitInto/MergeInto
// against the per-bit reference on awkward lengths and random values,
// including partial plane prefixes with nil holes.
func TestTransposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 100, 1000, 4093} {
		values := make([]uint32, n)
		for i := range values {
			values[i] = rng.Uint32()
		}
		got := split(values)
		want := refSplit(values)
		for p := 0; p < Planes; p++ {
			if !bytes.Equal(got[p], want[p]) {
				t.Fatalf("n=%d plane %d differs\n got  %x\n want %x", n, p, got[p], want[p])
			}
		}
		// Full merge round-trips.
		out := make([]uint32, n)
		MergeInto(out, got)
		for i := range out {
			if out[i] != values[i] {
				t.Fatalf("n=%d: merge[%d] = %#x, want %#x", n, i, out[i], values[i])
			}
		}
		// Partial prefixes with nil holes must match the reference merge.
		for _, keep := range []int{0, 1, 5, 13, 32} {
			partial := make([][]byte, Planes)
			for p := 0; p < keep && p < Planes; p++ {
				partial[p] = got[p]
			}
			if keep > 3 {
				partial[2] = nil // hole
			}
			refOut := make([]uint32, n)
			refMergeInto(refOut, partial)
			newOut := make([]uint32, n)
			MergeInto(newOut, partial)
			for i := range refOut {
				if refOut[i] != newOut[i] {
					t.Fatalf("n=%d keep=%d: merge[%d] = %#x, want %#x", n, keep, i, newOut[i], refOut[i])
				}
			}
		}
		// Sharded split equals whole split.
		if n >= 16 {
			shard := refSplit(values) // correct layout to overwrite
			for p := range shard {
				for i := range shard[p] {
					shard[p][i] = 0xFF // poison: splitRange must overwrite fully
				}
			}
			cut := (n / 2) &^ 7
			splitRange(shard, values, 0, cut, 0, 0)
			splitRange(shard, values, cut, n, 0, 0)
			for p := 0; p < Planes; p++ {
				if !bytes.Equal(shard[p], want[p]) {
					t.Fatalf("n=%d sharded plane %d differs", n, p)
				}
			}
		}
	}
}
