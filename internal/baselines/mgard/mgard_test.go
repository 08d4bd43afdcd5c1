package mgard

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/grid"
)

func field(shape grid.Shape) *grid.Grid[float64] {
	g := grid.MustNew[float64](shape)
	data := g.Data()
	strides := shape.Strides()
	for i := range data {
		v := 0.0
		rem := i
		for d := 0; d < len(shape); d++ {
			c := float64(rem/strides[d]) / float64(shape[d])
			rem %= strides[d]
			v += math.Cos(3*math.Pi*c) + 0.2*math.Sin(11*c+1)
		}
		data[i] = v
	}
	return g
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

// TestCodecRoundTrip compresses, serializes and parses an archive at
// several ranks and bounds; its full-fidelity retrieval stays within eb,
// and a smooth 32³ field at eb = 1e-4 takes at most half its raw bytes.
func TestCodecRoundTrip(t *testing.T) {
	for _, shape := range []grid.Shape{{100}, {200}, {24, 26}, {40, 37}, {14, 15, 16}, {20, 22, 24}} {
		for _, eb := range []float64{1e-2, 1e-3, 1e-4, 1e-6, 1e-7} {
			g := field(shape)
			a, err := CompressProgressive(g, eb)
			if err != nil {
				t.Fatal(err)
			}
			b, err := unmarshal(a.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			ret, err := b.RetrieveErrorBound(b.EB)
			if err != nil {
				t.Fatal(err)
			}
			if got := maxErr(g.Data(), ret.Data.Data()); got > eb {
				t.Errorf("%v eb=%g: error %g", shape, eb, got)
			}
		}
	}
	g := field(grid.Shape{32, 32, 32})
	a, err := CompressProgressive(g, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if raw := int64(g.Len() * 8); a.TotalSize() > raw/2 {
		t.Errorf("%d bytes for %d raw — not compressing", a.TotalSize(), raw)
	}
}

// TestProgressiveRetrievalBounds is PMGARD's core property: retrieval at
// any bound above the archive bound stays within it while loading less.
func TestProgressiveRetrievalBounds(t *testing.T) {
	g := field(grid.Shape{32, 30, 20})
	eb := 1e-7
	a, err := CompressProgressive(g, eb)
	if err != nil {
		t.Fatal(err)
	}
	prevLoaded := int64(1 << 62)
	for _, factor := range []float64{1, 16, 1024, 65536} {
		bound := eb * factor
		ret, err := a.RetrieveErrorBound(bound)
		if err != nil {
			t.Fatalf("factor %v: %v", factor, err)
		}
		if got := maxErr(g.Data(), ret.Data.Data()); got > bound {
			t.Errorf("factor %v: error %g over bound", factor, got)
		}
		if ret.Bound > bound {
			t.Errorf("factor %v: estimated bound %g over requested %g", factor, ret.Bound, bound)
		}
		if ret.LoadedBytes > prevLoaded {
			t.Errorf("factor %v: loaded %d, more than tighter bound %d",
				factor, ret.LoadedBytes, prevLoaded)
		}
		prevLoaded = ret.LoadedBytes
	}
	// The loosest retrieval must be genuinely cheaper.
	tight, _ := a.RetrieveErrorBound(eb)
	loose, _ := a.RetrieveErrorBound(eb * 65536)
	if loose.LoadedBytes >= tight.LoadedBytes {
		t.Errorf("loose load %d >= tight %d", loose.LoadedBytes, tight.LoadedBytes)
	}
}

func TestRetrievalRejectsTighterBound(t *testing.T) {
	g := field(grid.Shape{16, 16})
	a, err := CompressProgressive(g, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RetrieveErrorBound(1e-5); err == nil {
		t.Error("tighter-than-archive bound must error")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	g := field(grid.Shape{20, 18})
	eb := 1e-5
	a, err := CompressProgressive(g, eb)
	if err != nil {
		t.Fatal(err)
	}
	b, err := unmarshal(a.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	ret, err := b.RetrieveErrorBound(eb)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxErr(g.Data(), ret.Data.Data()); got > eb {
		t.Errorf("round-tripped archive error %g", got)
	}
	if _, err := unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("garbage must fail")
	}
}

func TestOutlierPath(t *testing.T) {
	g := field(grid.Shape{24, 24})
	g.Data()[50] = 1e16
	eb := 1e-9
	a, err := CompressProgressive(g, eb)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := a.RetrieveErrorBound(eb)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxErr(g.Data(), ret.Data.Data()); got > eb {
		t.Errorf("outlier dataset error %g", got)
	}
}

func TestRejectsBadBound(t *testing.T) {
	g := field(grid.Shape{8, 8})
	if _, err := CompressProgressive(g, 0); err == nil {
		t.Error("zero bound must error")
	}
	if _, err := CompressProgressive(g, math.Inf(1)); err == nil {
		t.Error("inf bound must error")
	}
}

// unmarshal parses what Marshal writes, so a round trip can show that the
// bytes TotalSize counts hold the whole archive.
func unmarshal(blob []byte) (*Archive, error) {
	r := bytes.NewReader(blob)
	rd := func(v interface{}) error { return binary.Read(r, binary.LittleEndian, v) }
	var m uint32
	if err := rd(&m); err != nil || m != magic {
		return nil, fmt.Errorf("mgard: bad magic")
	}
	var nd uint8
	if err := rd(&nd); err != nil {
		return nil, err
	}
	if nd == 0 || int(nd) > grid.MaxDims {
		return nil, fmt.Errorf("mgard: bad rank %d", nd)
	}
	a := &Archive{Shape: make(grid.Shape, nd)}
	for i := range a.Shape {
		var d uint32
		if err := rd(&d); err != nil {
			return nil, err
		}
		a.Shape[i] = int(d)
	}
	if err := rd(&a.EB); err != nil {
		return nil, err
	}
	var lv uint8
	if err := rd(&lv); err != nil {
		return nil, err
	}
	a.Levels = int(lv)
	var nAnchor uint32
	if err := rd(&nAnchor); err != nil {
		return nil, err
	}
	a.Anchors = make([]float64, nAnchor)
	for i := range a.Anchors {
		if err := rd(&a.Anchors[i]); err != nil {
			return nil, err
		}
	}
	a.Counts = make([]int, a.Levels)
	a.UsedPlanes = make([]int, a.Levels)
	a.MaxDrop = make([][]uint32, a.Levels)
	a.Blocks = make([][][]byte, a.Levels)
	a.OutIdx = make([][]uint32, a.Levels)
	a.OutVal = make([][]float64, a.Levels)
	blockSizes := make([][]uint32, a.Levels)
	for li := 0; li < a.Levels; li++ {
		var cnt uint32
		if err := rd(&cnt); err != nil {
			return nil, err
		}
		a.Counts[li] = int(cnt)
		var up uint8
		if err := rd(&up); err != nil {
			return nil, err
		}
		a.UsedPlanes[li] = int(up)
		a.MaxDrop[li] = make([]uint32, a.UsedPlanes[li]+1)
		for d := range a.MaxDrop[li] {
			if err := rd(&a.MaxDrop[li][d]); err != nil {
				return nil, err
			}
		}
		blockSizes[li] = make([]uint32, a.UsedPlanes[li])
		for p := range blockSizes[li] {
			if err := rd(&blockSizes[li][p]); err != nil {
				return nil, err
			}
		}
		var nOut uint32
		if err := rd(&nOut); err != nil {
			return nil, err
		}
		a.OutIdx[li] = make([]uint32, nOut)
		a.OutVal[li] = make([]float64, nOut)
		for i := range a.OutIdx[li] {
			if err := rd(&a.OutIdx[li][i]); err != nil {
				return nil, err
			}
			if err := rd(&a.OutVal[li][i]); err != nil {
				return nil, err
			}
		}
	}
	for li := 0; li < a.Levels; li++ {
		a.Blocks[li] = make([][]byte, a.UsedPlanes[li])
		for p := range a.Blocks[li] {
			b := make([]byte, blockSizes[li][p])
			if _, err := io.ReadFull(r, b); err != nil {
				return nil, err
			}
			a.Blocks[li][p] = b
		}
	}
	return a, nil
}

// TestMarshalBytesPinned pins the bytes Marshal writes for a fixed field
// whose spike takes the outlier path.
func TestMarshalBytesPinned(t *testing.T) {
	const want = "20e2a6f2e45dd6bb5cf81600611a478892d7861500e869ba2d2a25f1a5fc25b2"
	g := field(grid.Shape{17, 19, 23})
	g.Data()[50] = 1e16
	a, err := CompressProgressive(g, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(a.Marshal())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("archive digest drifted:\n got  %s\n want %s", got, want)
	}
}
