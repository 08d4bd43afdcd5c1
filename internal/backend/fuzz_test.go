package backend

import (
	"bytes"
	"testing"
)

// FuzzSparseInsert drives random insert/read/evict sequences against the
// span buffer and checks its invariants after every step: held equals the
// sum of resident spans, spans stay sorted / non-overlapping / merged,
// and every read returns exactly the bytes that position was filled with.
// The buffer backs both the client's tile reassembly and the cached
// tier, so a violated invariant here is silent data corruption there.
func FuzzSparseInsert(f *testing.F) {
	f.Add([]byte{0, 10, 20, 0, 40, 10, 1, 5, 60, 2, 0, 0})
	f.Add([]byte{0, 0, 255, 0, 100, 255, 1, 0, 255})
	f.Add([]byte{2, 0, 0, 2, 0, 0, 0, 3, 7, 1, 3, 7})
	f.Fuzz(func(t *testing.T, prog []byte) {
		const size = 512
		content := func(off int64) byte { return byte(31*off + 7) }
		s := NewSparse(size)
		var gen int64
		for i := 0; i+3 <= len(prog); i += 3 {
			op, off, n := prog[i]%3, int64(prog[i+1])*2, int64(prog[i+2])
			gen++
			switch op {
			case 0: // insert correct content (may exceed size: must error, not panic)
				b := make([]byte, n)
				for j := range b {
					b[j] = content(off + int64(j))
				}
				err := s.Insert(off, b, gen)
				if off+n <= size && err != nil {
					t.Fatalf("in-bounds insert [%d,+%d) failed: %v", off, n, err)
				}
				if off+n > size && err == nil {
					t.Fatalf("out-of-bounds insert [%d,+%d) accepted", off, n)
				}
			case 1: // read whatever is resident; bytes must match the content rule
				got, err := s.ReadRange(off, n, gen)
				if err == nil {
					for j, v := range got {
						if v != content(off+int64(j)) {
							t.Fatalf("read [%d,+%d)[%d] = %#x, want %#x", off, n, j, v, content(off+int64(j)))
						}
					}
				} else if n > 0 && len(s.Missing(off, n)) == 0 && off+n <= size {
					t.Fatalf("covered range [%d,+%d) failed to read: %v", off, n, err)
				}
			case 2:
				held := s.Held()
				freed := s.EvictUpTo(n * 4)
				if freed < n*4 && freed != held {
					t.Fatalf("EvictUpTo(%d) freed %d of %d held", n*4, freed, held)
				}
			}
			checkSparseInvariants(t, s)
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
		// Overlap (off < prevEnd) or unmerged adjacency (off == prevEnd)
		// both violate the sorted/merged invariant.
		if sp.off <= prevEnd {
			t.Fatalf("span %d at %d violates sorted/merged invariant (prev end %d)", i, sp.off, prevEnd)
		}
		if sp.off < 0 || sp.off+int64(len(sp.b)) > s.size {
			t.Fatalf("span %d [%d,+%d) outside container of %d", i, sp.off, len(sp.b), s.size)
		}
		held += int64(len(sp.b))
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
	if err := s.Insert(0, bytes.Repeat([]byte{1}, 32), 1); err != nil {
		t.Fatal(err)
	}
	checkSparseInvariants(t, s)
}
