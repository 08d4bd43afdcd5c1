package codec

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The oracle for the encoder is compress/flate's Writer at level 1, fed the
// whole input in one Write and closed: the same bytes, for any input. Real planes of a 32³ tile and a 128³ field are held to it by
// TestDeflateMatchesFlateOnRealPlanes in internal/core, which can build
// them.

// content fills a test input; it is the element type of inflateContents.
type content = struct {
	name string
	fill func(rng *rand.Rand, p []byte)
}

// deflateContents are inflateContents plus a constant run and the planes
// BenchmarkCodecEncodeBlock encodes, cut or tiled to any length.
var deflateContents = append(slices.Clone(inflateContents),
	content{"constant", func(rng *rand.Rand, p []byte) {
		for i := range p {
			p[i] = 0xA7
		}
	}},
	benchPlaneContent("deflate"), benchPlaneContent("raw"), benchPlaneContent("rle"))

func benchPlaneContent(kind string) content {
	plane := benchPlane(kind, benchPlaneSize)
	return content{"benchPlane/" + kind, func(rng *rand.Rand, p []byte) {
		for i := 0; i < len(p); i += len(plane) {
			copy(p[i:], plane)
		}
	}}
}

// oracleWriters keeps compress/flate's level-1 Writers between calls: a
// new one zeroes over a megabyte of tables, which would throttle the fuzzer.
var oracleWriters = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(nil, 1)
	return w
}}

// checkDeflate wants Deflate, and EncodeBlock built on it, to write what
// compress/flate's Writer at level 1 writes for one Write of data and a
// Close.
func checkDeflate(t testing.TB, data []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := oracleWriters.Get().(*flate.Writer)
	w.Reset(&buf)
	w.Write(data) // a bytes.Buffer does not fail
	w.Close()
	oracleWriters.Put(w)
	want := buf.Bytes()
	if got := Deflate(data); !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%d-byte input: %d bytes, compress/flate %d; first difference at byte %d", len(data), len(got), len(want), at)
	}
	wantBlk := append([]byte{methodDeflate}, want...)
	switch {
	case bytes.Count(data, []byte{0}) == len(data):
		wantBlk = []byte{methodZero}
	case len(wantBlk) >= 1+len(data):
		wantBlk = append([]byte{methodRaw}, data...)
	}
	if got := EncodeBlock(data); !bytes.Equal(got, wantBlk) {
		t.Fatalf("%d-byte input: EncodeBlock is not compress/flate's stream behind its tag", len(data))
	}
}

func TestDeflateMatchesFlate(t *testing.T) {
	// Both sides of the store/literal-only cut-offs (16, 128) and of one and
	// two windows, then random lengths up to 300 KB.
	lengths := []int{0, 1, 16, 17, 127, 128, 65534, 65535, 65536, 131070, 131071}
	rng := rand.New(rand.NewSource(27))
	for range 8 {
		lengths = append(lengths, rng.Intn(300_000))
	}
	for _, c := range deflateContents {
		for _, n := range lengths {
			data := make([]byte, n)
			c.fill(rand.New(rand.NewSource(int64(n)+3)), data)
			t.Run(c.name, func(t *testing.T) { checkDeflate(t, data) })
		}
	}
}

// TestDeflateRebasesTable runs the match table's rebase — on entry, and
// between the windows of one call, where the previous window's entries must
// survive it — and wants compress/flate's bytes on both sides of it.
func TestDeflateRebasesTable(t *testing.T) {
	data := make([]byte, 3*maxStoreBlockSize+1000)
	inflateContents[4].fill(rand.New(rand.NewSource(9)), data) // periodic: matches across windows
	want := flateCompress(t, 1, data)
	for _, c := range []struct {
		cur     int32
		rebases bool
	}{
		{bufferReset - maxMatchOffset, true},                        // on entry
		{bufferReset - maxMatchOffset - maxStoreBlockSize, true},    // before the second window
		{bufferReset - maxMatchOffset - 2*maxStoreBlockSize, true},  // before the third
		{bufferReset - maxMatchOffset - 4*maxStoreBlockSize, false}, // after the last
		{0, false},
	} {
		d := &deflater{cur: c.cur}
		if got := d.deflate(data); !bytes.Equal(got, want) {
			t.Errorf("cur %d: stream differs from compress/flate's", c.cur)
		}
		if rebased := d.cur < c.cur; rebased != c.rebases {
			t.Errorf("cur %d: rebased %v, want %v", c.cur, rebased, c.rebases)
		}
	}
}

// TestHuffmanCountsMatchBitCounts: wherever the two-queue tree fits under
// the length limit, it has as many codes of every length as compress/flate's
// bitCounts gives, on random histograms of 3–285 symbols at both limits the
// encoder uses; the rest take bitCounts itself.
func TestHuffmanCountsMatchBitCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1951))
	d := new(deflater)
	fits, fallbacks := 0, 0
	for trial := range 40_000 {
		n := 3 + rng.Intn(maxNumLit-3)
		if trial%2 == 1 {
			n = 3 + rng.Intn(numPreSyms-3)
		}
		list := d.nodes[:n]
		for i := range list {
			var f int32
			switch trial % 5 {
			case 0: // many ties
				f = 1 + rng.Int31n(4)
			case 1: // flat
				f = 1 + rng.Int31n(5000)
			case 2: // geometric: deep trees
				f = 1 + int32(rng.ExpFloat64()*float64(int32(1)<<rng.Intn(14)))
			case 3: // Fibonacci-like, the deepest trees for their weight
				f = int32(1) << rng.Intn(16)
			default:
				f = 1 + rng.Int31n(1+int32(rng.Intn(65535)))
			}
			list[i] = litNode{uint16(i), f}
		}
		sortByFreq(list, d.sorted[:n])
		for i := 1; i < n; i++ {
			if a, b := list[i-1], list[i]; a.freq > b.freq || a.freq == b.freq && a.literal > b.literal {
				t.Fatalf("sortByFreq: %v before %v", a, b)
			}
		}
		for _, maxBits := range []int32{15, 7} {
			var fast, ref [maxBitsLimit]int32
			if !d.huffmanCounts(list, maxBits, &fast) {
				fallbacks++
				continue
			}
			fits++
			bitCounts(list, maxBits, &ref)
			if fast != ref {
				t.Fatalf("n=%d maxBits=%d freqs %v: counts %v, bitCounts %v", n, maxBits, list, fast, ref)
			}
		}
	}
	if fits == 0 || fallbacks == 0 {
		t.Fatalf("%d histograms fit and %d fell back: both paths must be taken", fits, fallbacks)
	}
	t.Logf("%d fit, %d fell back to bitCounts", fits, fallbacks)
}

// TestEncodeBlockAllocatesOnlyItsBlock pins the encoder's pooled state: on
// a 32³ tile's finest plane and on a 32 KiB one, the DEFLATE block is the
// one allocation.
func TestEncodeBlockAllocatesOnlyItsBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, n := range []int{tilePlaneBytes, benchPlaneSize} {
		p := benchPlane("deflate", n)
		if blk := EncodeBlock(p); blk[0] != methodDeflate {
			t.Fatalf("%d-byte plane: method %d, want DEFLATE", n, blk[0])
		}
		if allocs := testing.AllocsPerRun(100, func() { EncodeBlock(p) }); allocs != 1 {
			t.Errorf("%d-byte plane: EncodeBlock allocates %v times, want 1", n, allocs)
		}
	}
}

// FuzzDeflateDifferential: on any input, Deflate writes compress/flate's
// level-1 bytes.
func FuzzDeflateDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	for _, c := range deflateContents {
		for _, n := range []int{0, 17, 130, 4000} {
			data := make([]byte, n)
			c.fill(rng, data)
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDeflate(t, data) })
}
