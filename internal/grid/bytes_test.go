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
