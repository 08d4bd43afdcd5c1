package le

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

var errShort = errors.New("short")

// FuzzReader runs a script of reads and Fits calls over any input against
// a model cursor. Each script byte picks an operation; Bytes takes its
// signed length from the next byte, Fits its count from the next four
// (so 2³²−1 is reachable) and its entry size from the one after. A read
// must return the model's bytes while they last; from the first short
// read on, every read returns zero, Err is the truncation error and Len
// is zero. Fits must report true exactly when the unread bytes hold n
// entries of a positive size.
func FuzzReader(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{1, 2, 3}, []byte{7, 0xff, 0xff, 0xff, 0xff, 1, 2, 0})
	f.Add([]byte{}, []byte{6, 0x80, 7, 0, 0, 0, 0, 0, 8})
	f.Add(make([]byte, 64), []byte{7, 8, 0, 0, 0, 8, 6, 40, 3, 3, 3, 7, 1, 0, 0, 0, 8})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		r := NewReader(data, errShort)
		pos, short := 0, false
		// take consumes w model bytes, or marks the model short.
		take := func(w int) []byte {
			if short || w < 0 || pos+w > len(data) {
				short = true
				return nil
			}
			pos += w
			return data[pos-w : pos]
		}
		arg := func(i, n int) []byte {
			out := make([]byte, n)
			copy(out, script[min(i, len(script)):])
			return out
		}
		for i := 0; i < len(script); i++ {
			var got, want uint64
			switch op := script[i] % 9; op {
			case 0:
				got = uint64(r.U8())
				if b := take(1); b != nil {
					want = uint64(b[0])
				}
			case 1:
				got = uint64(r.U16())
				if b := take(2); b != nil {
					want = uint64(binary.LittleEndian.Uint16(b))
				}
			case 2, 4:
				if op == 2 {
					got = uint64(r.U32())
				} else {
					got = uint64(math.Float32bits(r.F32()))
				}
				if b := take(4); b != nil {
					want = uint64(binary.LittleEndian.Uint32(b))
				}
			case 3, 5:
				if op == 3 {
					got = r.U64()
				} else {
					got = math.Float64bits(r.F64())
				}
				if b := take(8); b != nil {
					want = binary.LittleEndian.Uint64(b)
				}
			case 6:
				n := int(int8(arg(i+1, 1)[0]))
				i++
				b := r.Bytes(n)
				wb := take(n)
				if string(b) != string(wb) {
					t.Fatalf("op %d: Bytes(%d) = %v, model %v", i, n, b, wb)
				}
			case 7:
				a := arg(i+1, 5)
				i += 5
				n, size := binary.LittleEndian.Uint32(a), int(a[4])
				fits := size > 0 && uint64(n)*uint64(size) <= uint64(r.Len())
				if got := r.Fits(int(n), size); got != fits {
					t.Fatalf("op %d: Fits(%d, %d) = %v with %d bytes unread", i, n, size, got, r.Len())
				}
			case 8: // Len and Err alone, checked below
			}
			if got != want {
				t.Fatalf("op %d (%d): read %#x, model %#x", i, script[i]%9, got, want)
			}
			wantLen := len(data) - pos
			if short {
				wantLen = 0
				if r.Err != errShort {
					t.Fatalf("op %d: Err = %v after a short read", i, r.Err)
				}
			} else if r.Err != nil {
				t.Fatalf("op %d: Err = %v with %d of %d bytes read", i, r.Err, pos, len(data))
			}
			if r.Len() != wantLen {
				t.Fatalf("op %d: Len = %d, model %d", i, r.Len(), wantLen)
			}
		}
	})
}
