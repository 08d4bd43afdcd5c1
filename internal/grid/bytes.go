package grid

import (
	"encoding/binary"
	"io"
	"math"
	"unsafe"
)

// Bytes views a scalar slice's memory as bytes, in the host's byte order
// and without a copy: for hashing values bit for bit (-0.0 and NaN
// payloads included) or filling them straight from a stream. The view
// aliases s; it says nothing portable about the encoding, so it must not
// be persisted or sent.
func Bytes[T Scalar](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// hostLittleEndian reports whether the view Bytes gives is already the
// little-endian wire encoding of the values.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// ReadLE fills dst from a stream of little-endian values — the raw layout
// every reader and writer of this repository uses — reading straight into
// dst's memory instead of through a byte buffer of the same size. It
// returns the bytes read and, like io.ReadFull, io.EOF or
// io.ErrUnexpectedEOF when the stream ends before dst is full.
func ReadLE[T Scalar](r io.Reader, dst []T) (int, error) {
	n, err := io.ReadFull(r, Bytes(dst))
	if err == nil && !hostLittleEndian {
		decodeLE(dst)
	}
	return n, err
}

// WriteLE writes src to w as little-endian values — ReadLE's counterpart.
// On a little-endian host that is the memory of src itself, handed to w in
// one Write; elsewhere the values are converted in batches through a small
// buffer. It returns the bytes written. w must not keep the slice it is
// given (io.Writer's contract): it aliases src.
func WriteLE[T Scalar](w io.Writer, src []T) (int, error) {
	if len(src) == 0 {
		return 0, nil
	}
	if hostLittleEndian {
		return w.Write(Bytes(src))
	}
	const batch = 2048 // values a conversion buffer holds
	width := int(unsafe.Sizeof(src[0]))
	buf := make([]byte, batch*width)
	written := 0
	for len(src) > 0 {
		n := min(len(src), batch)
		encodeLE(buf, src[:n])
		k, err := w.Write(buf[:n*width])
		written += k
		if err != nil {
			return written, err
		}
		src = src[n:]
	}
	return written, nil
}

// encodeLE writes the little-endian encoding of src into dst.
func encodeLE[T Scalar](dst []byte, src []T) {
	switch s := any(src).(type) {
	case []float32:
		for i, v := range s {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
		}
	case []float64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
	}
}

// decodeLE reinterprets, in place, values whose memory holds their
// little-endian encoding; the identity on a little-endian host.
func decodeLE[T Scalar](dst []T) {
	b := Bytes(dst)
	switch d := any(dst).(type) {
	case []float32:
		for i := range d {
			d[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}
