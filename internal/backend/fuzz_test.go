package backend

import (
	"bytes"
	"testing"
)

// FuzzSparseInsert drives random insert/read sequences against the span
// buffer and checks its invariants after every step: held equals the sum
// of the resident spans' capacities, spans stay sorted and
// non-overlapping, every read returns exactly the bytes that position was
// filled with, and so does every slice an earlier read returned. The
// buffer backs both the client's tile reassembly and the tile cache's
// compressed bytes, so a violated invariant here is silent data
// corruption there.
func FuzzSparseInsert(f *testing.F) {
	f.Add([]byte{0, 10, 20, 0, 40, 10, 1, 5, 60, 2, 0, 0})
	f.Add([]byte{0, 0, 255, 0, 100, 255, 1, 0, 255})
	f.Add([]byte{2, 0, 0, 2, 0, 0, 0, 3, 7, 1, 3, 7})
	f.Fuzz(func(t *testing.T, prog []byte) {
		const size = 512
		content := func(off int64) byte { return byte(31*off + 7) }
		s := NewSparse(size)
		type alias struct {
			off int64
			b   []byte
		}
		var aliases []alias
		for i := 0; i+3 <= len(prog); i += 3 {
			op, off, n := prog[i]%2, int64(prog[i+1])*2, int64(prog[i+2])
			switch op {
			case 0: // insert correct content (may exceed size: must error, not panic)
				b := make([]byte, n)
				for j := range b {
					b[j] = content(off + int64(j))
				}
				err := s.Insert(off, b)
				if off+n <= size && err != nil {
					t.Fatalf("in-bounds insert [%d,+%d) failed: %v", off, n, err)
				}
				if off+n > size && err == nil {
					t.Fatalf("out-of-bounds insert [%d,+%d) accepted", off, n)
				}
			case 1: // read whatever is resident; bytes must match the content rule
				got, err := s.ReadRange(off, n)
				if err == nil {
					aliases = append(aliases, alias{off, got})
					for j, v := range got {
						if v != content(off+int64(j)) {
							t.Fatalf("read [%d,+%d)[%d] = %#x, want %#x", off, n, j, v, content(off+int64(j)))
						}
					}
				} else if n > 0 && len(s.Missing(off, n)) == 0 && off+n <= size {
					t.Fatalf("covered range [%d,+%d) failed to read: %v", off, n, err)
				}
			}
			checkSparseInvariants(t, s)
			for _, a := range aliases {
				for j, v := range a.b {
					if v != content(a.off+int64(j)) {
						t.Fatalf("an earlier read of %d bytes at %d was rewritten at +%d", len(a.b), a.off, j)
					}
				}
			}
		}
	})
}

func checkSparseInvariants(t *testing.T, s *Sparse) {
	t.Helper()
	var held int64
	prevEnd := int64(-1)
	for i, sp := range s.spans {
		if len(sp.b) == 0 {
			t.Fatalf("span %d is empty", i)
		}
		// Overlap (off < prevEnd) violates the sorted/non-overlapping
		// invariant; adjacency is allowed until a read straddles it.
		if sp.off < prevEnd {
			t.Fatalf("span %d at %d violates sorted/non-overlapping invariant (prev end %d)", i, sp.off, prevEnd)
		}
		if sp.off < 0 || sp.off+int64(len(sp.b)) > s.size {
			t.Fatalf("span %d [%d,+%d) outside container of %d", i, sp.off, len(sp.b), s.size)
		}
		held += int64(cap(sp.b))
		prevEnd = sp.off + int64(len(sp.b))
	}
	if held != s.held {
		t.Fatalf("held = %d, spans sum to %d", s.held, held)
	}
}

// TestFuzzSeedsPass runs the seed programs outside the fuzz engine so
// plain `go test` exercises them too.
func TestFuzzSeedsPass(t *testing.T) {
	s := NewSparse(64)
	if err := s.Insert(0, bytes.Repeat([]byte{1}, 32)); err != nil {
		t.Fatal(err)
	}
	checkSparseInvariants(t, s)
}
