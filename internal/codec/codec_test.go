package codec

import (
	"bytes"
	"encoding/hex"
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

// committedBlock is a block captured from an encoder, with the payload it
// was encoded from.
type committedBlock struct {
	name    string
	tag     byte
	blk     []byte
	payload []byte
}

// committedBlocks returns blocks written by the encoders of earlier
// releases: the "auto" policy's block of a periodic plane (it chose
// DEFLATE), its Huffman block of a mid-entropy plane and its RLE block of a
// sparse plane. No encoder writes tags 3 or 5 any more, so these literals
// are what keeps rleDecode and huffDecode tested against real output.
func committedBlocks(tb testing.TB) []committedBlock {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	mid := make([]byte, 256)
	for i := range mid {
		mid[i] = byte(i * i * 37 % 11)
	}
	sparse := make([]byte, 128)
	for i := 5; i < len(sparse); i += 37 {
		sparse[i] = byte(i)
	}
	return []committedBlock{
		{"periodic", methodDeflate, unhex("01e4c32101000000c2b019fa5726c8c5b0b2070000ffff"),
			bytes.Repeat([]byte{0, 0, 0, 5}, 64)},
		{"mid-entropy", methodHuff, unhex("053b02000000000000000000000000000000000000000000000000000000000000" +
			"22122183bdbf241dedf920ef6fc9077b7e483bdbf241dedf920ef6fc9077b7e483bdbf241dedf920ef6fc9077b7e48" +
			"3bdbf241dedf920ef6fc9077b7e483bdbf241dedf920ef6fc9077b7e483bdbf241dedf920ef6fc9040"), mid},
		{"sparse", methodRLE, unhex("0305010524012a24014f2401740b00"), sparse},
	}
}

// TestDecodeCommittedBlocks decodes the committed blocks to their known
// payloads, through both entry points.
func TestDecodeCommittedBlocks(t *testing.T) {
	for _, c := range committedBlocks(t) {
		if c.blk[0] != c.tag {
			t.Fatalf("%s: tag %d, want %d", c.name, c.blk[0], c.tag)
		}
		got, err := DecodeBlock(c.blk, len(c.payload))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, c.payload) {
			t.Fatalf("%s: decoded payload differs", c.name)
		}
		dst := bytes.Repeat([]byte{0xEE}, len(c.payload))
		if err := DecodeBlockInto(dst, c.blk); err != nil || !bytes.Equal(dst, c.payload) {
			t.Fatalf("%s: DecodeBlockInto: err %v, payload equal %v", c.name, err, bytes.Equal(dst, c.payload))
		}
	}
}

func randomBytes(n int) []byte {
	r := rand.New(rand.NewSource(42))
	b := make([]byte, n)
	r.Read(b)
	return b
}
