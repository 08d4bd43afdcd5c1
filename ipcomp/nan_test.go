package ipcomp_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/ipcomp"
)

// TestRelativeBoundIgnoresNaN pins the NaN rule of a relative bound at the
// library's two entry points: a NaN is ignored wherever it sits, the first
// value included, so the bound is eb times the range of the other values,
// and a field with no finite value takes the constant-field rule (range 1).
func TestRelativeBoundIgnoresNaN(t *testing.T) {
	shape := []int{4, 4, 4}
	const eb = 1e-3
	for _, at := range []int{0, 5, -1} {
		data := make([]float32, 64)
		name := fmt.Sprintf("nan@%d", at)
		for i := range data {
			data[i] = float32(math.Sin(float64(i)*0.3)) * 10
		}
		if at >= 0 {
			data[at] = float32(math.NaN())
		} else {
			name = "no-finite-value"
			for i := range data {
				data[i] = float32([]float64{math.Inf(1), math.Inf(-1), math.NaN()}[i%3])
			}
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range data {
			if !math.IsInf(float64(v), 0) && v == v {
				lo, hi = min(lo, float64(v)), max(hi, float64(v))
			}
		}
		want := eb * (hi - lo)
		if at < 0 {
			want = eb
		}

		t.Run("Compress/"+name, func(t *testing.T) {
			blob, err := ipcomp.CompressFloat32(data, shape, ipcomp.Options{ErrorBound: eb, Relative: true})
			if err != nil {
				t.Fatal(err)
			}
			ar, err := ipcomp.Open(blob)
			if err != nil {
				t.Fatal(err)
			}
			if got := ar.ErrorBound(); got != want {
				t.Fatalf("archive bound %g, want %g", got, want)
			}
		})
		t.Run("StoreWriter/"+name, func(t *testing.T) {
			var buf bytes.Buffer
			sw, err := ipcomp.NewStoreWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			opt := ipcomp.StoreOptions{ErrorBound: eb, Relative: true, ChunkShape: []int{2, 4, 4}}
			if err := sw.AddFloat32("f", data, shape, opt); err != nil {
				t.Fatal(err)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			s, err := ipcomp.OpenStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Datasets()[0].ErrorBound; got != want {
				t.Fatalf("dataset bound %g, want %g", got, want)
			}
		})
	}
}

// infField is a 4³ field of finite values with one infinity of the given
// sign at index 9.
func infField(sign int) []float64 {
	data := make([]float64, 64)
	for i := range data {
		data[i] = math.Sin(float64(i) * 0.3)
	}
	data[9] = math.Inf(sign)
	return data
}

// wantInfinityRefusal fails t unless err refuses a relative bound by
// naming the field's infinity, not the bound derived from it.
func wantInfinityRefusal(t *testing.T, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "holds an infinity") {
		t.Fatalf("err %v, want a refusal that names the field's infinity", err)
	}
}

// TestCompressRelativeRefusesInfinity: a relative bound over a field that
// holds ±Inf beside finite values is refused, at both widths, with an
// error that says the field holds an infinity.
func TestCompressRelativeRefusesInfinity(t *testing.T) {
	opt := ipcomp.Options{ErrorBound: 1e-3, Relative: true}
	for _, sign := range []int{1, -1} {
		data := infField(sign)
		_, err := ipcomp.Compress(data, []int{4, 4, 4}, opt)
		wantInfinityRefusal(t, err)
		_, err = ipcomp.CompressFloat32(narrow(data), []int{4, 4, 4}, opt)
		wantInfinityRefusal(t, err)
	}
}

// TestStoreWriterRelativeRefusesInfinity is the same refusal at
// StoreWriter.Add and AddFloat32.
func TestStoreWriterRelativeRefusesInfinity(t *testing.T) {
	opt := ipcomp.StoreOptions{ErrorBound: 1e-3, Relative: true, ChunkShape: []int{2, 4, 4}}
	for _, sign := range []int{1, -1} {
		data := infField(sign)
		sw, err := ipcomp.NewStoreWriter(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		wantInfinityRefusal(t, sw.Add("f", data, []int{4, 4, 4}, opt))
		wantInfinityRefusal(t, sw.AddFloat32("g", narrow(data), []int{4, 4, 4}, opt))
	}
}

func narrow(data []float64) []float32 {
	out := make([]float32, len(data))
	for i, v := range data {
		out[i] = float32(v)
	}
	return out
}
