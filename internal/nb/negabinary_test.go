package nb

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeKnownValues(t *testing.T) {
	// Hand-computed negabinary representations (paper §4.4.2 example:
	// 1 -> 00000001, -1 -> 00000011).
	cases := []struct {
		v int64
		u uint64
	}{
		{0, 0b0},
		{1, 0b1},
		{-1, 0b11},
		{2, 0b110},
		{-2, 0b10},
		{3, 0b111},
		{-3, 0b1101},
		{4, 0b100},
		{5, 0b101},
		{6, 0b11010},
		{-6, 0b1110},
	}
	for _, c := range cases {
		if got := Encode(c.v); got != c.u {
			t.Errorf("Encode(%d) = %b, want %b", c.v, got, c.u)
		}
		if got := Decode(c.u); got != c.v {
			t.Errorf("Decode(%b) = %d, want %d", c.u, got, c.v)
		}
	}
}

func TestEncode32MatchesEncode(t *testing.T) {
	for _, v := range []int32{0, 1, -1, 100, -100, 1 << 20, -(1 << 20), MaxIndex, -MaxIndex} {
		if got, want := uint64(Encode32(v)), Encode(int64(v)); got != want {
			t.Errorf("Encode32(%d) = %x, Encode = %x", v, got, want)
		}
	}
}

func TestRoundTrip32Property(t *testing.T) {
	f := func(v int32) bool {
		if v > MaxIndex || v < -MaxIndex {
			v %= MaxIndex
		}
		return Decode32(Encode32(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestRoundTrip64Property(t *testing.T) {
	f := func(v int64) bool {
		v %= 1 << 61
		return Decode(Encode(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// truncationBound returns the paper's closed-form worst-case error of
// zeroing the d lowest negabinary digits (§4.4.2):
//
//	d odd:  (2/3)·2^d − 1/3
//	d even: (2/3)·2^d − 2/3
//
// expressed exactly in integers: (2^(d+1) − 1)/3 for odd d and
// (2^(d+1) − 2)/3 for even d. d must be in [0, 63].
func truncationBound(d int) uint64 {
	if d <= 0 {
		return 0
	}
	if d >= 63 {
		d = 63
	}
	p := uint64(1) << uint(d+1)
	if d&1 == 1 {
		return (p - 1) / 3
	}
	return (p - 2) / 3
}

// TestTruncationBoundHolds verifies the paper's closed-form truncation
// uncertainty: zeroing the d lowest negabinary digits changes the decoded
// value by at most truncationBound(d), and the bound is tight (achieved).
func TestTruncationBoundHolds(t *testing.T) {
	for d := 0; d <= 12; d++ {
		bound := int64(truncationBound(d))
		var worst int64
		for v := int64(-5000); v <= 5000; v++ {
			u := Encode(v)
			tr := u &^ (1<<uint(d) - 1)
			diff := v - Decode(tr)
			if diff < 0 {
				diff = -diff
			}
			if diff > bound {
				t.Fatalf("d=%d v=%d: |diff|=%d exceeds bound %d", d, v, diff, bound)
			}
			if diff > worst {
				worst = diff
			}
		}
		if d > 0 && d <= 12 && worst != bound {
			t.Errorf("d=%d: bound %d not tight, worst seen %d", d, bound, worst)
		}
	}
}

func TestTruncationBoundFormula(t *testing.T) {
	// Spot-check the odd/even closed forms from the paper:
	// d odd: (2/3)2^d - 1/3 ; d even: (2/3)2^d - 2/3.
	for d := 1; d <= 30; d++ {
		want := 2.0/3.0*math.Pow(2, float64(d)) - 1.0/3.0
		if d%2 == 0 {
			want = 2.0/3.0*math.Pow(2, float64(d)) - 2.0/3.0
		}
		if got := float64(truncationBound(d)); got != want {
			t.Errorf("truncationBound(%d) = %v, want %v", d, got, want)
		}
	}
}

func TestTruncate(t *testing.T) {
	u := Encode32(12345)
	if Truncate(u, 0) != u {
		t.Error("Truncate(_, 0) must be identity")
	}
	if Truncate(u, 32) != 0 {
		t.Error("Truncate(_, 32) must clear everything")
	}
	if Truncate(u, 40) != 0 {
		t.Error("Truncate with d>32 must clear everything")
	}
	if got := Truncate(0b1111, 2); got != 0b1100 {
		t.Errorf("Truncate(0b1111, 2) = %b", got)
	}
}

func TestNegabinaryKeepsSmallValuesSmall(t *testing.T) {
	// The property the paper exploits: values fluctuating around zero have
	// only low-order negabinary bits set (unlike two's complement).
	for v := int64(-64); v <= 64; v++ {
		u := Encode(v)
		if u > 0xFF {
			t.Errorf("Encode(%d) = %#x uses high bits", v, u)
		}
	}
}
