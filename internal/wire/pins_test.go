package wire_test

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestHeaderBytesPinned pins the bytes of the three frame headers of a
// planes response, and that each is as long as its size function says.
func TestHeaderBytesPinned(t *testing.T) {
	var region, chunk, span bytes.Buffer
	if err := wire.WriteRegionHeader(&region, &wire.RegionHeader{
		Scalar: core.Float32, Rank: 3, Lo: []int{1, 2, 3}, Hi: []int{17, 34, 67},
		Bound: 1.25e-3, Guaranteed: 9.5e-4, NumChunks: 5,
	}); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteChunkHeader(&chunk, &wire.ChunkHeader{
		Index: 258, Lo: []int{0, 32, 64}, Hi: []int{32, 64, 80},
		BlobSize: 70000, Keep: []int{0, 3, 32}, NumSpans: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteSpanHeader(&span, wire.SpanHeader{Off: 1 << 33, Len: 65537}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		got  []byte
		size int64
		want string
	}{
		{"region", region.Bytes(), wire.RegionHeaderSize(3), "49505246010103000100000002000000030000001000000020000000400000007b14ae47e17a543fc58f31772d214f3f05000000"},
		{"chunk", chunk.Bytes(), wire.ChunkHeaderSize(3, 3), "020100000000000020000000400000002000000020000000100000007011010000000000030003200400"},
		{"span", span.Bytes(), wire.SpanHeaderSize, "000000000200000001000100"},
	} {
		if int64(len(tc.got)) != tc.size {
			t.Errorf("%s header is %d bytes, its size function says %d", tc.name, len(tc.got), tc.size)
		}
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s header bytes drifted:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}
