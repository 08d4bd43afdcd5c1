package codec

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestDeflateInflateRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 100, 10000} {
		src := make([]byte, n)
		r.Read(src)
		got, err := Inflate(Deflate(src), n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestInflateRejectsWrongSize(t *testing.T) {
	blob := Deflate([]byte("hello world"))
	if _, err := Inflate(blob, 5); err == nil {
		t.Error("expected error for declared size shorter than stream")
	}
	if _, err := Inflate(blob, 50); err == nil {
		t.Error("expected error for declared size longer than stream")
	}
}

func TestEncodeDecodeBlock(t *testing.T) {
	cases := [][]byte{
		{},
		make([]byte, 100),            // all zeros -> methodZero
		bytes.Repeat([]byte{7}, 500), // compressible
		randomBytes(64),              // likely incompressible -> raw
	}
	for i, src := range cases {
		blk := EncodeBlock(src)
		got, err := DecodeBlock(blk, len(src))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("case %d: mismatch", i)
		}
	}
}

func TestZeroBlockIsOneByte(t *testing.T) {
	blk := EncodeBlock(make([]byte, 4096))
	if len(blk) != 1 {
		t.Errorf("all-zero block encoded to %d bytes, want 1", len(blk))
	}
}

func TestDecodeBlockErrors(t *testing.T) {
	if _, err := DecodeBlock(nil, 0); err == nil {
		t.Error("empty block must error")
	}
	if _, err := DecodeBlock([]byte{99}, 0); err == nil {
		t.Error("unknown method must error")
	}
	if _, err := DecodeBlock([]byte{methodRaw, 1, 2}, 5); err == nil {
		t.Error("raw block with wrong size must error")
	}
}

// TestHuffDecodeRejectsOverlongCode: a length nibble may say 13..16, which
// no encoder writes (huffMaxLen is 12); it used to index past the decoder's
// per-length counters and panic.
func TestHuffDecodeRejectsOverlongCode(t *testing.T) {
	blk := make([]byte, 1+32+1)
	blk[0] = methodHuff
	blk[1] = 0x03 // symbols 0 and 1 present
	for nib := byte(huffMaxLen); nib < 16; nib++ {
		blk[33] = nib | nib<<4
		if _, err := DecodeBlock(blk, 8); err == nil {
			t.Errorf("code length %d accepted", nib+1)
		}
	}
}

func randomBytes(n int) []byte {
	r := rand.New(rand.NewSource(42))
	b := make([]byte, n)
	r.Read(b)
	return b
}
