package codec

import (
	"bytes"
	"testing"
)

// FuzzEncodeBlock round-trips arbitrary payloads through EncodeBlock and
// pins its size bound: a block is never larger than raw storage.
func FuzzEncodeBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 2})
	f.Add(bytes.Repeat([]byte{0}, 300))
	f.Add(bytes.Repeat([]byte{0xA7}, 300))
	seed := make([]byte, 512)
	for i := range seed {
		if i%19 == 0 {
			seed[i] = byte(i * 131)
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, src []byte) {
		blk := EncodeBlock(src)
		if len(blk) > 1+len(src) {
			t.Fatalf("block %d bytes exceeds raw bound %d", len(blk), 1+len(src))
		}
		dec, err := DecodeBlock(blk, len(src))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("round trip mismatch (%d bytes)", len(src))
		}
	})
}

// FuzzDecodeBlock feeds arbitrary (often corrupt) blocks to DecodeBlock:
// it must return data or an error, never panic, and a success must have
// exactly the declared size. The committed blocks seed every decoder,
// including the RLE and Huffman ones no encoder writes any more.
func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{methodZero}, 16)
	f.Add([]byte{methodRaw, 1, 2, 3}, 3)
	f.Add([]byte{methodDeflate, 0xFF}, 8)
	f.Add([]byte{methodRLE, 4, 2, 9, 9}, 8)
	f.Add([]byte{methodRLE, 0, 0}, 4)
	f.Add([]byte{methodReserved}, 4)
	f.Add([]byte{0xF0}, 4)
	for _, c := range committedBlocks(f) {
		f.Add(c.blk, len(c.payload))
	}
	f.Fuzz(func(t *testing.T, blk []byte, dstSize int) {
		if dstSize < 0 || dstSize > 1<<20 {
			return
		}
		out, err := DecodeBlock(blk, dstSize)
		if err != nil {
			return
		}
		if len(out) != dstSize {
			t.Fatalf("decode accepted %d bytes, declared %d", len(out), dstSize)
		}
	})
}
