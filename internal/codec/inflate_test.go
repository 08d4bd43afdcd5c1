package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// inflate decompresses a DEFLATE stream whose decompressed size is exactly
// dstSize; a stream that decodes to more or fewer bytes is an error.
func inflate(src []byte, dstSize int) ([]byte, error) {
	dst := make([]byte, dstSize)
	if err := inflateInto(dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// refInflate is the oracle: compress/flate's stream reader, held to what
// inflateInto promises — exactly dstSize bytes, then a clean end of stream.
func refInflate(src []byte, dstSize int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(src))
	dst := make([]byte, dstSize)
	if _, err := io.ReadFull(r, dst); err != nil {
		return nil, err
	}
	var tail [1]byte
	if n, err := r.Read(tail[:]); n != 0 || err != io.EOF {
		return nil, fmt.Errorf("stream does not end after %d bytes: n=%d err=%v", dstSize, n, err)
	}
	return dst, nil
}

// checkAgainstRef holds inflateInto to the oracle's verdict and bytes. The
// destination sits inside a guarded buffer so a write outside it shows.
func checkAgainstRef(t testing.TB, src []byte, dstSize int) (ok bool) {
	t.Helper()
	want, wantErr := refInflate(src, dstSize)
	const guard = 16
	buf := bytes.Repeat([]byte{0xA5}, dstSize+2*guard)
	gotErr := inflateInto(buf[guard:guard+dstSize:guard+dstSize], src)
	for i := 0; i < guard; i++ {
		if buf[i] != 0xA5 || buf[guard+dstSize+i] != 0xA5 {
			t.Fatalf("inflateInto wrote outside dst (dstSize %d, stream %x)", dstSize, clip(src))
		}
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("verdicts differ: inflateInto %v, compress/flate %v (dstSize %d, stream %x)", gotErr, wantErr, dstSize, clip(src))
	}
	if gotErr == nil && !bytes.Equal(buf[guard:guard+dstSize], want) {
		t.Fatalf("bytes differ from compress/flate (dstSize %d, stream %x)", dstSize, clip(src))
	}
	return gotErr == nil
}

func clip(b []byte) []byte {
	if len(b) > 64 {
		return b[:64]
	}
	return b
}

func flateCompress(t testing.TB, level int, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inflateContents are the shapes the decoder meets or should fear.
var inflateContents = []struct {
	name string
	fill func(rng *rand.Rand, p []byte)
}{
	{"uniform", func(rng *rand.Rand, p []byte) { rng.Read(p) }},
	{"zeros", func(rng *rand.Rand, p []byte) {}},
	{"sparse", func(rng *rand.Rand, p []byte) {
		for i := 0; i < len(p); i += 1 + rng.Intn(200) {
			p[i] = byte(1 + rng.Intn(255))
		}
	}},
	// A mid bitplane after XOR prediction: few set bits per byte, no
	// repeats worth a match.
	{"bitplane", func(rng *rand.Rand, p []byte) {
		for i := range p {
			p[i] = byte(rng.Intn(8)) << uint(rng.Intn(2)) & byte(rng.Intn(256))
		}
	}},
	{"periodic", func(rng *rand.Rand, p []byte) {
		period := 1 + rng.Intn(300)
		for i := range p {
			if i < period {
				p[i] = byte(rng.Intn(256))
			} else {
				p[i] = p[i-period]
			}
			if rng.Intn(500) == 0 {
				p[i] ^= 1
			}
		}
	}},
	// 256 symbols over 16 octaves of frequency: the rare ones get codes
	// longer than the 10-bit root, so second-level tables are walked.
	{"exponential", func(rng *rand.Rand, p []byte) {
		for i := range p {
			p[i] = byte(min(255, int(-16*math.Log2(1-rng.Float64()))))
		}
	}},
}

func TestInflateMatchesFlate(t *testing.T) {
	sizes := []int{0, 1, 7, 8, 9, 257, 258, 259, 3584, 4096, 65535, 65536, 262144}
	levels := []int{flate.HuffmanOnly, flate.NoCompression, 1, 6, 9}
	for _, c := range inflateContents {
		for _, n := range sizes {
			data := make([]byte, n)
			c.fill(rand.New(rand.NewSource(int64(n)+1)), data)
			for _, level := range levels {
				stream := flateCompress(t, level, data)
				got, err := inflate(stream, n)
				if err != nil {
					t.Fatalf("%s n=%d level=%d: %v", c.name, n, level, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s n=%d level=%d: round trip mismatch", c.name, n, level)
				}
				if !checkAgainstRef(t, stream, n) {
					t.Fatalf("%s n=%d level=%d: oracle refuses compress/flate's own stream", c.name, n, level)
				}
				if checkAgainstRef(t, stream, n+1) || (n > 0 && checkAgainstRef(t, stream, n-1)) {
					t.Fatalf("%s n=%d level=%d: a declared size off by one was accepted", c.name, n, level)
				}
			}
		}
	}
}

// TestInflateRejectsBrokenTail is the one verdict on which inflateInto and
// the stream-reader path it replaced differ: the old path read dstSize
// bytes and never looked at how the stream went on, so a block whose end
// was cut off or corrupt decoded "successfully".
func TestInflateRejectsBrokenTail(t *testing.T) {
	if _, err := DecodeBlock([]byte{methodDeflate, 0xFF}, 0); err == nil {
		t.Error("a stream that is one reserved block header decoded to 0 bytes")
	}
	msg := []byte("hello world hello world")
	stream := Deflate(msg)
	if _, err := inflate(stream, len(msg)); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut <= 5; cut++ {
		if _, err := inflate(stream[:len(stream)-cut], len(msg)); err == nil {
			t.Errorf("stream without its last %d bytes accepted", cut)
		}
	}
	// Level 1 closes with an empty stored block: LEN, then NLEN.
	bad := bytes.Clone(stream)
	bad[len(bad)-1] ^= 0x01
	if _, err := inflate(bad, len(msg)); err == nil {
		t.Error("stream whose final NLEN is not ~LEN accepted")
	}
}

// TestInflateDifferentialCorrupt damages real streams three ways and wants
// compress/flate's verdict — and, where both accept, its bytes — each time.
func TestInflateDifferentialCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	accepted, refused := 0, 0
	for _, c := range inflateContents {
		for _, n := range []int{9, 300, 4096, 70000} {
			data := make([]byte, n)
			c.fill(rng, data)
			for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, 1, 6} {
				stream := flateCompress(t, level, data)
				for trial := 0; trial < 60; trial++ {
					bad := bytes.Clone(stream)
					switch trial % 3 {
					case 0:
						bad = bad[:rng.Intn(len(bad))]
					case 1:
						bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
					case 2:
						bad[rng.Intn(len(bad))] = byte(rng.Intn(256))
					}
					if checkAgainstRef(t, bad, n) {
						accepted++
					} else {
						refused++
					}
				}
			}
		}
	}
	if accepted == 0 || refused == 0 {
		t.Fatalf("damage was one-sided: %d accepted, %d refused", accepted, refused)
	}
}

// bitWriter assembles DEFLATE streams by hand: fields LSB first, Huffman
// codes most significant bit first (RFC 1951 §3.1.1).
type bitWriter struct {
	out []byte
	n   uint
}

func (w *bitWriter) bits(v uint32, n uint) {
	for i := uint(0); i < n; i++ {
		if w.n%8 == 0 {
			w.out = append(w.out, 0)
		}
		w.out[len(w.out)-1] |= byte(v>>i&1) << (w.n % 8)
		w.n++
	}
}

func (w *bitWriter) code(c huffCode) { w.bits(uint32(bits.Reverse16(c.code)>>(16-c.len)), c.len) }

type huffCode struct {
	code uint16
	len  uint
}

// canonical assigns the codes of RFC 1951 §3.2.2 to the given lengths.
func canonical(lens []uint8) []huffCode {
	var count, next [maxCodeLen + 2]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]huffCode, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = huffCode{uint16(next[l]), uint(l)}
			next[l]++
		}
	}
	return codes
}

// dynamicHeader writes a dynamic block's header for the given code lengths
// and returns the two codes. The code-length code is symbols 0..15 at four
// bits each, so a length is its own code and no repeat symbol is used.
func (w *bitWriter) dynamicHeader(final uint32, litLens, distLens []uint8) (lit, dist []huffCode) {
	w.bits(final, 1)
	w.bits(2, 2)
	w.bits(uint32(len(litLens)-257), 5)
	w.bits(uint32(len(distLens)-1), 5)
	w.bits(numPreSyms-4, 4)
	for _, s := range preOrder {
		if s < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, l := range append(bytes.Clone(litLens), distLens...) {
		w.code(huffCode{uint16(l), 4})
	}
	return canonical(litLens), canonical(distLens)
}

func fixedCodes() (lit, dist []huffCode) {
	lens, dlens := fixedLens()
	return canonical(lens[:]), canonical(dlens[:])
}

// litLensWith returns nsyms literal/length code lengths, all unused but the
// given ones.
func litLensWith(nsyms int, set map[int]uint8) []uint8 {
	lens := make([]uint8, nsyms)
	for s, l := range set {
		lens[s] = l
	}
	return lens
}

// TestInflateHandBuiltStreams pins, stream by stream, what RFC 1951 leaves
// to the decoder and compress/flate decides: each case names the verdict it
// expects, and the oracle must agree.
func TestInflateHandBuiltStreams(t *testing.T) {
	flit, fdist := fixedCodes()
	type build func(w *bitWriter)
	fixed := func(body build) build {
		return func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(1, 2)
			body(w)
		}
	}
	cases := []struct {
		name    string
		dstSize int
		ok      bool
		build   build
	}{
		{"fixed: literal, match, end", 4, true, fixed(func(w *bitWriter) {
			w.code(flit['a'])
			w.code(flit[257]) // length 3
			w.code(fdist[0])  // distance 1
			w.code(flit[256])
		})},
		{"fixed: length 258 by symbol 285", 259, true, fixed(func(w *bitWriter) {
			w.code(flit['a'])
			w.code(flit[285])
			w.code(fdist[0])
			w.code(flit[256])
		})},
		{"fixed: length symbol 286", 4, false, fixed(func(w *bitWriter) {
			w.code(flit['a'])
			w.code(flit[286])
			w.code(fdist[0])
			w.code(flit[256])
		})},
		{"fixed: length symbol 287", 4, false, fixed(func(w *bitWriter) {
			w.code(flit['a'])
			w.code(flit[287])
			w.code(fdist[0])
			w.code(flit[256])
		})},
		{"fixed: distance symbol 30", 4, false, fixed(func(w *bitWriter) {
			w.code(flit['a'])
			w.code(flit[257])
			w.code(fdist[30])
			w.code(flit[256])
		})},
		{"fixed: distance symbol 31", 4, false, fixed(func(w *bitWriter) {
			w.code(flit['a'])
			w.code(flit[257])
			w.code(fdist[31])
			w.code(flit[256])
		})},
		{"fixed: distance one beyond the bytes produced", 5, false, fixed(func(w *bitWriter) {
			w.code(flit['a'])
			w.code(flit['b'])
			w.code(flit[257])
			w.code(fdist[2]) // distance 3, two bytes out
			w.code(flit[256])
		})},
		{"fixed: distance equal to the bytes produced", 5, true, fixed(func(w *bitWriter) {
			w.code(flit['a'])
			w.code(flit['b'])
			w.code(flit[257])
			w.code(fdist[1])
			w.code(flit[256])
		})},
		{"fixed: match runs past dst", 3, false, fixed(func(w *bitWriter) {
			w.code(flit['a'])
			w.code(flit[257])
			w.code(fdist[0])
			w.code(flit[256])
		})},
		{"fixed: no end-of-block code", 1, false, fixed(func(w *bitWriter) {
			w.code(flit['a'])
		})},
		{"block type 3", 0, false, func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(3, 2)
		}},
		{"stored", 3, true, func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(0, 2)
			w.bits(0x15, 5) // skipped to the byte boundary, whatever they are
			w.bits(3, 16)
			w.bits(^uint32(3)&0xFFFF, 16)
			w.bits('x', 8)
			w.bits('y', 8)
			w.bits('z', 8)
		}},
		{"stored: NLEN is not ~LEN", 3, false, func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(0, 2)
			w.bits(0, 5)
			w.bits(3, 16)
			w.bits(^uint32(3)&0xFFFF^0x100, 16)
			w.bits('x', 8)
			w.bits('y', 8)
			w.bits('z', 8)
		}},
		{"stored: body cut short", 3, false, func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(0, 2)
			w.bits(0, 5)
			w.bits(3, 16)
			w.bits(^uint32(3)&0xFFFF, 16)
			w.bits('x', 8)
			w.bits('y', 8)
		}},
		{"two blocks: stored, then fixed matching into it", 6, true, func(w *bitWriter) {
			w.bits(0, 1)
			w.bits(0, 2)
			w.bits(0, 5)
			w.bits(3, 16)
			w.bits(^uint32(3)&0xFFFF, 16)
			w.bits('x', 8)
			w.bits('y', 8)
			w.bits('z', 8)
			w.bits(1, 1)
			w.bits(1, 2)
			w.code(flit[257])
			w.code(fdist[2])
			w.code(flit[256])
		}},
		{"bytes after the final block are not read", 1, true, func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(1, 2)
			w.code(flit['a'])
			w.code(flit[256])
			w.bits(0xFFFFFF, 24)
		}},
		{"dynamic: literals only, no distance code at all", 3, true, func(w *bitWriter) {
			lit, _ := w.dynamicHeader(1, litLensWith(257, map[int]uint8{'a': 1, 256: 1}), []uint8{0})
			w.code(lit['a'])
			w.code(lit['a'])
			w.code(lit['a'])
			w.code(lit[256])
		}},
		{"dynamic: a match against the empty distance code", 4, false, func(w *bitWriter) {
			lit, _ := w.dynamicHeader(1, litLensWith(258, map[int]uint8{'a': 1, 256: 2, 257: 2}), []uint8{0})
			w.code(lit['a'])
			w.code(lit[257])
			w.bits(0, 1)
			w.code(lit[256])
		}},
		{"dynamic: single one-bit distance code, used", 4, true, func(w *bitWriter) {
			lit, dist := w.dynamicHeader(1, litLensWith(258, map[int]uint8{'a': 1, 256: 2, 257: 2}), []uint8{1})
			w.code(lit['a'])
			w.code(lit[257])
			w.code(dist[0])
			w.code(lit[256])
		}},
		{"dynamic: single one-bit distance code, its missing sibling used", 4, false, func(w *bitWriter) {
			lit, _ := w.dynamicHeader(1, litLensWith(258, map[int]uint8{'a': 1, 256: 2, 257: 2}), []uint8{1})
			w.code(lit['a'])
			w.code(lit[257])
			w.bits(1, 1)
			w.code(lit[256])
		}},
		{"dynamic: single one-bit literal code (end of block only)", 0, true, func(w *bitWriter) {
			lit, _ := w.dynamicHeader(1, litLensWith(257, map[int]uint8{256: 1}), []uint8{0})
			w.code(lit[256])
		}},
		{"dynamic: incomplete literal code", 1, false, func(w *bitWriter) {
			w.dynamicHeader(1, litLensWith(257, map[int]uint8{'a': 2, 'b': 2, 256: 2}), []uint8{0})
			w.bits(0, 2)
			w.bits(1, 2)
		}},
		{"dynamic: over-subscribed literal code", 1, false, func(w *bitWriter) {
			w.dynamicHeader(1, litLensWith(257, map[int]uint8{'a': 1, 'b': 1, 256: 1}), []uint8{0})
			w.bits(0, 1)
			w.bits(1, 1)
		}},
		{"dynamic: incomplete distance code", 3, false, func(w *bitWriter) {
			lit, _ := w.dynamicHeader(1, litLensWith(257, map[int]uint8{'a': 1, 256: 1}), []uint8{2, 2, 2})
			w.code(lit['a'])
			w.code(lit['a'])
			w.code(lit['a'])
			w.code(lit[256])
		}},
		{"dynamic: HLIT 287", 0, false, func(w *bitWriter) {
			lit, _ := w.dynamicHeader(1, litLensWith(287, map[int]uint8{'a': 1, 256: 1}), []uint8{0})
			w.code(lit[256])
		}},
		{"dynamic: HDIST 31", 0, false, func(w *bitWriter) {
			lit, _ := w.dynamicHeader(1, litLensWith(257, map[int]uint8{'a': 1, 256: 1}), make([]uint8, 31))
			w.code(lit[256])
		}},
		{"dynamic: 286 literal codes and 30 distance codes", 259, true, func(w *bitWriter) {
			lens := litLensWith(286, map[int]uint8{'a': 1, 256: 2, 285: 2})
			dlens := make([]uint8, 30)
			dlens[0], dlens[29] = 1, 1
			lit, dist := w.dynamicHeader(1, lens, dlens)
			w.code(lit['a'])
			w.code(lit[285])
			w.code(dist[0])
			w.code(lit[256])
		}},
		{"dynamic: code-length code over-subscribed", 0, false, func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(2, 2)
			w.bits(0, 5)
			w.bits(0, 5)
			w.bits(0, 4)
			for i := 0; i < 4; i++ {
				w.bits(1, 3) // four one-bit codes
			}
			w.bits(0, 32)
		}},
		{"dynamic: repeat-previous with no previous length", 0, false, func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(2, 2)
			w.bits(0, 5)
			w.bits(0, 5)
			w.bits(0, 4)
			w.bits(1, 3) // symbol 16: one bit
			w.bits(0, 3)
			w.bits(0, 3)
			w.bits(1, 3) // symbol 0: one bit
			w.bits(1, 1) // canonical order gives symbol 0 code 0 and symbol 16 code 1
			w.bits(0, 32)
		}},
	}
	for _, c := range cases {
		var w bitWriter
		c.build(&w)
		if got := checkAgainstRef(t, w.out, c.dstSize); got != c.ok {
			t.Errorf("%s: accepted=%v, want %v (stream %x)", c.name, got, c.ok, w.out)
		}
		// Cut anywhere, it is refused, by both; only bytes that follow the
		// final block may go unnoticed.
		for cut := 0; cut < len(w.out); cut++ {
			if checkAgainstRef(t, w.out[:cut], c.dstSize) && c.name != "bytes after the final block are not read" {
				t.Errorf("%s: accepted with only %d of %d bytes", c.name, cut, len(w.out))
			}
		}
	}
}

// randomLengths draws a complete prefix code of `used` codes, none longer
// than maxLen, by splitting leaves — skewed towards deep ones so that codes
// pass the root table's width — and deals the lengths to random symbols.
func randomLengths(rng *rand.Rand, nsyms, used, maxLen int) []uint8 {
	leaves := []uint8{1, 1}
	for len(leaves) < used {
		i := rng.Intn(len(leaves))
		if rng.Intn(3) != 0 {
			// Prefer the deepest leaf that can still be split.
			for j, d := range leaves {
				if d > leaves[i] && int(d) < maxLen {
					i = j
				}
			}
		}
		if int(leaves[i]) == maxLen {
			continue
		}
		leaves[i]++
		leaves = append(leaves, leaves[i])
	}
	lens := make([]uint8, nsyms)
	for i, s := range rng.Perm(nsyms)[:used] {
		lens[s] = leaves[i]
	}
	return lens
}

// TestBuildTableResolvesEveryCode walks every code of random complete
// codes through the root and second-level tables, for each of the three
// alphabets, and wants the symbol's own entry with the code's length split
// between the two levels.
func TestBuildTableResolvesEveryCode(t *testing.T) {
	rng := rand.New(rand.NewSource(1951))
	alphabets := []struct {
		name     string
		rootBits int
		size     int
		syms     []uint32
		maxLen   int
	}{
		{"litlen", litRootBits, litTableSize, litSyms[:286], maxCodeLen},
		{"dist", distRootBits, distTableSize, distSyms[:30], maxCodeLen},
		{"pre", preRootBits, preTableSize, preSyms[:], 7},
	}
	for _, a := range alphabets {
		deep := 0
		for trial := 0; trial < 400; trial++ {
			used := 2 + rng.Intn(len(a.syms)-1)
			lens := randomLengths(rng, len(a.syms), used, a.maxLen)
			table := make([]uint32, a.size)
			if !buildTable(table, a.rootBits, lens, a.syms) {
				t.Fatalf("%s: complete code %v refused", a.name, lens)
			}
			for s, c := range canonical(lens) {
				if c.len == 0 {
					continue
				}
				rev := uint32(bits.Reverse16(c.code) >> (16 - c.len))
				// Garbage above the code, as the bit buffer would hold.
				rev |= rng.Uint32() << c.len
				e := table[rev&(1<<a.rootBits-1)]
				own := uint32(c.len)
				if int(c.len) > a.rootBits {
					deep++
					if e&entSub == 0 || e&0xff != uint32(a.rootBits) {
						t.Fatalf("%s: code of %d bits has root entry %#x", a.name, c.len, e)
					}
					rev >>= a.rootBits
					own -= uint32(a.rootBits)
					e = table[e>>16+rev&(1<<(e>>8&15)-1)]
				}
				if want := a.syms[s] + own<<8 + own; e != want {
					t.Fatalf("%s: symbol %d (%d bits) resolves to %#x, want %#x", a.name, s, c.len, e, want)
				}
			}
		}
		if deep == 0 && a.maxLen > a.rootBits {
			t.Errorf("%s: no code was longer than the root", a.name)
		}
	}
}

func TestInflateDoesNotAllocate(t *testing.T) {
	data := make([]byte, 4096)
	inflateContents[3].fill(rand.New(rand.NewSource(4)), data)
	stream := Deflate(data)
	dst := make([]byte, len(data))
	if n := testing.AllocsPerRun(50, func() {
		if err := inflateInto(dst, stream); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("inflateInto allocates %v times per call", n)
	}
}

// FuzzInflateDifferential: on any bytes and any declared size, inflateInto
// and compress/flate agree on the verdict and, when they accept, the bytes.
func FuzzInflateDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range inflateContents {
		for _, n := range []int{0, 9, 600} {
			data := make([]byte, n)
			c.fill(rng, data)
			for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, 1, 9} {
				f.Add(flateCompress(f, level, data), n)
			}
		}
	}
	f.Add([]byte{0xFF}, 0)
	f.Fuzz(func(t *testing.T, stream []byte, dstSize int) {
		if dstSize < 0 || dstSize > 1<<20 {
			return
		}
		checkAgainstRef(t, stream, dstSize)
	})
}
