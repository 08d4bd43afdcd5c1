package grid

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
)

// TestReadLE pins ReadLE against the element-by-element decode it
// replaces, bit for bit (a NaN payload and -0.0 among the values), and its
// io.ReadFull contract on short streams.
func TestReadLE(t *testing.T) {
	want64 := []float64{1.5, -2.25, math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000123), 1e300}
	raw := make([]byte, 8*len(want64))
	for i, v := range want64 {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	got64 := make([]float64, len(want64))
	if n, err := ReadLE(bytes.NewReader(raw), got64); n != len(raw) || err != nil {
		t.Fatalf("ReadLE f64: n=%d err=%v", n, err)
	}
	for i := range want64 {
		if math.Float64bits(got64[i]) != math.Float64bits(want64[i]) {
			t.Errorf("f64 value %d: %x, want %x", i, math.Float64bits(got64[i]), math.Float64bits(want64[i]))
		}
	}
	// The same bytes are ten float32 values.
	got32 := make([]float32, 2*len(want64))
	if n, err := ReadLE(bytes.NewReader(raw), got32); n != len(raw) || err != nil {
		t.Fatalf("ReadLE f32: n=%d err=%v", n, err)
	}
	for i := range got32 {
		if want := binary.LittleEndian.Uint32(raw[4*i:]); math.Float32bits(got32[i]) != want {
			t.Errorf("f32 value %d: %x, want %x", i, math.Float32bits(got32[i]), want)
		}
	}
	// The in-place decode big-endian hosts run is the identity here only if
	// Bytes really is the little-endian encoding; on either kind of host it
	// must leave the values ReadLE promised.
	decodeLE(got64)
	if hostLittleEndian && math.Float64bits(got64[3]) != math.Float64bits(want64[3]) {
		t.Errorf("decodeLE changed a value on a little-endian host")
	}
	if !bytes.Equal(Bytes(got32), raw) && hostLittleEndian {
		t.Errorf("Bytes is not the memory ReadLE filled")
	}

	if n, err := ReadLE(bytes.NewReader(raw[:11]), got64); n != 11 || err != io.ErrUnexpectedEOF {
		t.Errorf("short stream: n=%d err=%v, want 11 and io.ErrUnexpectedEOF", n, err)
	}
	if n, err := ReadLE(bytes.NewReader(nil), got64); n != 0 || err != io.EOF {
		t.Errorf("empty stream: n=%d err=%v, want 0 and io.EOF", n, err)
	}
	if Bytes([]float32(nil)) != nil {
		t.Errorf("Bytes of an empty slice is not nil")
	}
}

// errAfter accepts n bytes and then fails.
type errAfter struct{ n int }

func (w *errAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, io.ErrClosedPipe
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteLE pins WriteLE against the value-by-value encoding it
// replaces, bit for bit (-0.0 and NaN payloads among the values), at both
// widths and across the batch size of the path big-endian hosts take; the
// conversion that path runs is checked directly, since no test host takes
// it.
func TestWriteLE(t *testing.T) {
	vals64 := []float64{1.5, -2.25, math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001), 1e300}
	for len(vals64) < 5000 {
		vals64 = append(vals64, float64(len(vals64))*0.37)
	}
	vals32 := make([]float32, len(vals64))
	for i, v := range vals64 {
		vals32[i] = float32(v)
	}
	vals32[3] = math.Float32frombits(0x7fc00123)
	var want64, want32 []byte
	for _, v := range vals64 {
		want64 = binary.LittleEndian.AppendUint64(want64, math.Float64bits(v))
	}
	for _, v := range vals32 {
		want32 = binary.LittleEndian.AppendUint32(want32, math.Float32bits(v))
	}

	var buf bytes.Buffer
	if n, err := WriteLE(&buf, vals64); n != len(want64) || err != nil || !bytes.Equal(buf.Bytes(), want64) {
		t.Errorf("WriteLE f64: n=%d err=%v, equal=%v", n, err, bytes.Equal(buf.Bytes(), want64))
	}
	buf.Reset()
	if n, err := WriteLE(&buf, vals32); n != len(want32) || err != nil || !bytes.Equal(buf.Bytes(), want32) {
		t.Errorf("WriteLE f32: n=%d err=%v, equal=%v", n, err, bytes.Equal(buf.Bytes(), want32))
	}
	got := make([]byte, len(want64))
	encodeLE(got, vals64)
	if !bytes.Equal(got, want64) {
		t.Errorf("encodeLE f64 differs from the value-by-value encoding")
	}
	got = got[:len(want32)]
	encodeLE(got, vals32)
	if !bytes.Equal(got, want32) {
		t.Errorf("encodeLE f32 differs from the value-by-value encoding")
	}

	if n, err := WriteLE(&errAfter{n: 100}, vals64); n != 100 || err != io.ErrClosedPipe {
		t.Errorf("failing writer: n=%d err=%v, want 100 and io.ErrClosedPipe", n, err)
	}
	if n, err := WriteLE(&errAfter{}, []float32(nil)); n != 0 || err != nil {
		t.Errorf("empty slice: n=%d err=%v", n, err)
	}
}
