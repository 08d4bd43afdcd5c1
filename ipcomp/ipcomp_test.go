package ipcomp_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/ipcomp"
)

func density(t *testing.T) ([]float64, []int) {
	t.Helper()
	ds, err := datagen.Generate("Density", 12)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Grid.Data(), ds.Grid.Shape()
}

func maxErr(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	data, shape := density(t)
	blob, err := ipcomp.Compress(data, shape, ipcomp.Options{ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	out, outShape, err := ipcomp.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(outShape) != len(shape) {
		t.Fatalf("shape rank %d", len(outShape))
	}
	for i := range shape {
		if outShape[i] != shape[i] {
			t.Fatalf("shape %v want %v", outShape, shape)
		}
	}
	if got := maxErr(data, out); got > 1e-4 {
		t.Errorf("error %g over bound", got)
	}
}

func TestRelativeBound(t *testing.T) {
	data, shape := density(t)
	rangeV := 0.0
	lo, hi := data[0], data[0]
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	rangeV = hi - lo
	blob, err := ipcomp.Compress(data, shape, ipcomp.Options{ErrorBound: 1e-5, Relative: true})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ipcomp.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxErr(data, out); got > 1e-5*rangeV {
		t.Errorf("error %g over relative bound %g", got, 1e-5*rangeV)
	}
	arch, err := ipcomp.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(arch.ErrorBound()-1e-5*rangeV) > 1e-18 {
		t.Errorf("stored bound %g, want %g", arch.ErrorBound(), 1e-5*rangeV)
	}
}

func TestProgressiveWorkflow(t *testing.T) {
	data, shape := density(t)
	eb := 1e-7
	blob, err := ipcomp.Compress(data, shape, ipcomp.Options{ErrorBound: eb,
		ProgressiveThreshold: 512})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := ipcomp.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := arch.RetrieveErrorBound(eb * 4096)
	if err != nil {
		t.Fatal(err)
	}
	coarseLoaded := res.LoadedBytes()
	if got := maxErr(data, res.Data()); got > eb*4096 {
		t.Errorf("coarse error %g", got)
	}
	if err := res.RefineErrorBound(eb * 16); err != nil {
		t.Fatal(err)
	}
	if got := maxErr(data, res.Data()); got > eb*16*(1+1e-9) {
		t.Errorf("refined error %g over %g", got, eb*16)
	}
	if res.LoadedBytes() <= coarseLoaded {
		t.Error("refinement did not load additional bytes")
	}
	if res.LoadedBytes() > arch.CompressedSize() {
		t.Error("loaded more than the archive size")
	}
	if err := res.RefineAll(); err != nil {
		t.Fatal(err)
	}
	if got := maxErr(data, res.Data()); got > eb*(1+1e-9) {
		t.Errorf("full error %g over eb", got)
	}
}

func TestBitrateMode(t *testing.T) {
	data, shape := density(t)
	blob, err := ipcomp.Compress(data, shape, ipcomp.Options{ErrorBound: 1e-8,
		ProgressiveThreshold: 512})
	if err != nil {
		t.Fatal(err)
	}
	arch, _ := ipcomp.Open(blob)
	full := float64(arch.CompressedSize()) * 8 / float64(len(data))
	res, err := arch.RetrieveBitrate(full / 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bitrate() > full/2*1.05 && res.LoadedBytes() > arch.CompressedSize()/3 {
		t.Errorf("bitrate %g over budget %g", res.Bitrate(), full/2)
	}
	if got := maxErr(data, res.Data()); got > res.GuaranteedError() {
		t.Errorf("error %g over guarantee %g", got, res.GuaranteedError())
	}
}

func TestOpenReaderAt(t *testing.T) {
	data, shape := density(t)
	eb := 1e-6
	blob, err := ipcomp.Compress(data, shape, ipcomp.Options{ErrorBound: eb,
		ProgressiveThreshold: 512})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := ipcomp.OpenReaderAt(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := arch.RetrieveErrorBound(eb * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxErr(data, res.Data()); got > eb*1024 {
		t.Errorf("reader-at error %g", got)
	}
	if res.LoadedBytes() >= int64(len(blob)) {
		t.Error("partial retrieval loaded the whole archive")
	}
}

func TestLinearInterpolationOption(t *testing.T) {
	data, shape := density(t)
	blob, err := ipcomp.Compress(data, shape, ipcomp.Options{ErrorBound: 1e-4,
		Interpolation: ipcomp.Linear})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ipcomp.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxErr(data, out); got > 1e-4 {
		t.Errorf("linear error %g", got)
	}
}

func TestErrors(t *testing.T) {
	data, shape := density(t)
	if _, err := ipcomp.Compress(data, shape, ipcomp.Options{}); err == nil {
		t.Error("zero bound must fail")
	}
	if _, err := ipcomp.Compress(data, []int{1, 2}, ipcomp.Options{ErrorBound: 1}); err == nil {
		t.Error("shape mismatch must fail")
	}
	if _, err := ipcomp.Open([]byte("garbage")); err == nil {
		t.Error("garbage archive must fail")
	}
	blob, _ := ipcomp.Compress(data, shape, ipcomp.Options{ErrorBound: 1e-3})
	arch, _ := ipcomp.Open(blob)
	if _, err := arch.RetrieveErrorBound(1e-9); err == nil {
		t.Error("impossible bound must fail")
	}
}

func TestConstantFieldRelativeBound(t *testing.T) {
	data := make([]float64, 512)
	for i := range data {
		data[i] = 7
	}
	blob, err := ipcomp.Compress(data, []int{8, 8, 8}, ipcomp.Options{ErrorBound: 1e-3, Relative: true})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ipcomp.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxErr(data, out); got > 1e-3 {
		t.Errorf("constant field error %g", got)
	}
}

// TestOpenV3Archive reads the committed version-3 archive, which an
// earlier release wrote under its "auto" codec policy, through the public
// API: it opens, decodes to the values internal/core pins for it, serves a
// progressive plan, and its RLE and Huffman blocks show in CodecStats.
func TestOpenV3Archive(t *testing.T) {
	blob, err := os.ReadFile("../internal/core/testdata/v3_auto_cubic.ipc")
	if err != nil {
		t.Fatal(err)
	}
	arch, err := ipcomp.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if v, shape := arch.FormatVersion(), arch.Shape(); v != 3 || !slices.Equal(shape, []int{33, 29, 21}) {
		t.Fatalf("format v%d shape %v, want v3 [33 29 21]", v, shape)
	}
	data, _, err := ipcomp.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	sum := sha256.Sum256(raw)
	if got, want := hex.EncodeToString(sum[:]), "36331a28434634d64802f6d4f1c04441d59217132487469c5001b01d2ceb0d86"; got != want {
		t.Fatalf("decoded digest %s, want %s", got, want)
	}
	res, err := arch.RetrieveErrorBound(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// Both decodes are within their bounds of the field, so of each other
	// within the sum.
	if got := maxErr(data, res.Data()); got > res.GuaranteedError()+arch.ErrorBound() || res.GuaranteedError() > 1e-3 {
		t.Errorf("progressive plan: %g from the full decode, guaranteed %g", got, res.GuaranteedError())
	}
	if res.LoadedBytes() >= arch.CompressedSize() {
		t.Errorf("progressive plan loaded %d of %d bytes", res.LoadedBytes(), arch.CompressedSize())
	}
	decoded := map[string]int64{}
	for _, s := range ipcomp.CodecStats() {
		decoded[s.Method] = s.DecodedBytes
	}
	if decoded["rle"] == 0 || decoded["huff"] == 0 {
		t.Errorf("CodecStats after decoding a v3 archive: %v", ipcomp.CodecStats())
	}
}
