package codec

import (
	"bytes"
	"testing"
)

// FuzzEncodeBlock round-trips arbitrary payloads through every encodable
// policy and pins the legacy invariant: the Deflate policy through
// EncodeBlockPolicy is byte-identical to EncodeBlock.
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
		legacy := EncodeBlock(src)
		if got := EncodeBlockPolicy(src, PolicyDeflate); !bytes.Equal(got, legacy) {
			t.Fatalf("EncodeBlockPolicy(Deflate) diverges from EncodeBlock: %d vs %d bytes", len(got), len(legacy))
		}
		for _, p := range []Policy{PolicyDeflate, PolicyAuto} {
			blk := EncodeBlockPolicy(src, p)
			if len(blk) > 1+len(src) {
				t.Fatalf("policy %v: block %d bytes exceeds raw bound %d", p, len(blk), 1+len(src))
			}
			dec, err := DecodeBlock(blk, len(src))
			if err != nil {
				t.Fatalf("policy %v: decode: %v", p, err)
			}
			if !bytes.Equal(dec, src) {
				t.Fatalf("policy %v: round trip mismatch (%d bytes)", p, len(src))
			}
		}
	})
}

// FuzzDecodeBlock feeds arbitrary (often corrupt) blocks to DecodeBlock:
// it must return data or an error, never panic, and a success must re-encode
// losslessly (i.e. the accepted payload really has the declared size).
func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{methodZero}, 16)
	f.Add([]byte{methodRaw, 1, 2, 3}, 3)
	f.Add([]byte{methodDeflate, 0xFF}, 8)
	f.Add([]byte{methodRLE, 4, 2, 9, 9}, 8)
	f.Add([]byte{methodRLE, 0, 0}, 4)
	f.Add([]byte{methodReserved}, 4)
	f.Add([]byte{0xF0}, 4)
	f.Add(EncodeBlockPolicy(bytes.Repeat([]byte{0, 0, 0, 5}, 64), PolicyAuto), 256)
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
