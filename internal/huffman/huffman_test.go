package huffman

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHuffmanRoundTripBasic(t *testing.T) {
	cases := [][]int32{
		{},
		{0},
		{5, 5, 5, 5},
		{1, -1, 2, -2, 0, 0, 0, 0, 0, 7},
		{math.MaxInt32, math.MinInt32, 0},
	}
	for i, data := range cases {
		got, err := Decode(Encode(data))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(got) != len(data) {
			t.Fatalf("case %d: length %d want %d", i, len(got), len(data))
		}
		for j := range data {
			if got[j] != data[j] {
				t.Fatalf("case %d: element %d: got %d want %d", i, j, got[j], data[j])
			}
		}
	}
}

func TestHuffmanRoundTripProperty(t *testing.T) {
	f := func(data []int32) bool {
		got, err := Decode(Encode(data))
		if err != nil {
			return false
		}
		if len(got) != len(data) {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHuffmanSkewedDistributionCompresses(t *testing.T) {
	// Quantization indices concentrate near zero; Huffman should beat the
	// raw 4 bytes/value representation by a wide margin.
	r := rand.New(rand.NewSource(7))
	data := make([]int32, 100000)
	for i := range data {
		data[i] = int32(r.NormFloat64() * 2)
	}
	blob := Encode(data)
	if len(blob) >= 4*len(data)/2 {
		t.Errorf("huffman output %d bytes for %d values; expected < half of raw", len(blob), len(data))
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestHuffmanDecodeTruncated(t *testing.T) {
	blob := Encode([]int32{1, 2, 3, 4, 5, 6, 7, 8})
	for cut := 0; cut < len(blob)-1; cut++ {
		if _, err := Decode(blob[:cut]); err == nil {
			// Some prefixes may decode by accident only if they contain the
			// full bitstream; cutting before the end must fail.
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 123456, -123456} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip %d -> %d", v, got)
		}
	}
}
