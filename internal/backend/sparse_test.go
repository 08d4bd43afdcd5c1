package backend

import (
	"bytes"
	"math"
	"testing"
)

func mustInsert(t *testing.T, s *Sparse, off int64, b []byte, gen int64) {
	t.Helper()
	if err := s.Insert(off, b, gen); err != nil {
		t.Fatalf("insert(%d, %d bytes): %v", off, len(b), err)
	}
}

func TestSparseMergeAndRead(t *testing.T) {
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	s := NewSparse(100)
	mustInsert(t, s, 0, append([]byte(nil), data[0:10]...), 0)
	mustInsert(t, s, 20, append([]byte(nil), data[20:30]...), 0)
	mustInsert(t, s, 10, append([]byte(nil), data[10:20]...), 0) // fills the gap
	if len(s.spans) != 1 {
		t.Fatalf("contiguous inserts left %d spans", len(s.spans))
	}
	if s.Held() != 30 {
		t.Fatalf("Held = %d, want 30", s.Held())
	}
	got, err := s.ReadRange(5, 20, 0) // straddles all three original inserts
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[5:25]) {
		t.Error("merged read returned wrong bytes")
	}
	if _, err := s.ReadRange(25, 10, 0); err == nil {
		t.Error("read past resident ranges succeeded")
	}
	if err := s.Insert(95, data[0:10], 0); err == nil {
		t.Error("insert past size accepted")
	}
	// A forged offset near 2^63 must not wrap past the bound check.
	if err := s.Insert(math.MaxInt64-4, data[0:10], 0); err == nil {
		t.Error("insert with overflowing offset accepted")
	}
}

// TestSparseResend pins the protocol-level tolerance the refinement path
// relies on: per-level plans are not monotone in the bound, so the server
// may legitimately re-ship ranges the client already holds (and a retried
// Refine replays ranges wholesale). Identical overlaps must merge
// silently, storing only the missing sub-ranges; diverging bytes must
// fail loudly.
func TestSparseResend(t *testing.T) {
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(37 * i)
	}
	s := NewSparse(100)
	mustInsert(t, s, 10, append([]byte(nil), data[10:30]...), 0)
	mustInsert(t, s, 50, append([]byte(nil), data[50:60]...), 0)

	// Re-send covering: a prefix overlap, the gap, and the second span.
	mustInsert(t, s, 20, append([]byte(nil), data[20:70]...), 0)
	if len(s.spans) != 1 {
		t.Fatalf("overlapping re-send left %d spans", len(s.spans))
	}
	got, err := s.ReadRange(10, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[10:70]) {
		t.Error("re-send merge corrupted bytes")
	}
	if s.Held() != 60 {
		t.Fatalf("Held = %d after merge, want 60", s.Held())
	}

	// An exact replay (retry after a dropped connection) is a no-op.
	mustInsert(t, s, 10, append([]byte(nil), data[10:70]...), 0)
	if len(s.spans) != 1 {
		t.Fatalf("replay left %d spans", len(s.spans))
	}

	// A re-send whose bytes disagree is stream corruption.
	bad := append([]byte(nil), data[30:40]...)
	bad[5] ^= 0xFF
	if err := s.Insert(30, bad, 0); err == nil {
		t.Error("diverging re-sent bytes accepted")
	}
}

func TestSparseMissing(t *testing.T) {
	s := NewSparse(100)
	mustInsert(t, s, 10, make([]byte, 10), 0) // [10,20)
	mustInsert(t, s, 40, make([]byte, 10), 0) // [40,50)
	if len(s.Missing(10, 10)) != 0 || len(s.Missing(12, 5)) != 0 {
		t.Error("resident range reported missing")
	}
	if len(s.Missing(10, 11)) == 0 {
		t.Error("range straddling a hole reported covered")
	}
	gaps := s.Missing(0, 100)
	want := []Range{{0, 10}, {20, 20}, {50, 50}}
	if len(gaps) != len(want) {
		t.Fatalf("Missing(0,100) = %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("Missing(0,100)[%d] = %v, want %v", i, gaps[i], want[i])
		}
	}
	if g := s.Missing(10, 10); g != nil {
		t.Errorf("Missing over resident span = %v, want nil", g)
	}
	if g := s.Missing(15, 10); len(g) != 1 || g[0] != (Range{20, 5}) {
		t.Errorf("Missing(15,10) = %v, want [{20 5}]", g)
	}
}

// TestSparseEviction checks the generation-stamped LRU: the span touched
// least recently goes first, and Held tracks what remains. EvictUpTo(1)
// frees exactly the oldest span.
func TestSparseEviction(t *testing.T) {
	s := NewSparse(1000)
	mustInsert(t, s, 0, make([]byte, 10), 1)         // span A
	mustInsert(t, s, 100, make([]byte, 20), 2)       // span B
	mustInsert(t, s, 200, make([]byte, 30), 3)       // span C
	if _, err := s.ReadRange(0, 10, 4); err != nil { // touch A: now B is oldest
		t.Fatal(err)
	}
	if g, ok := s.OldestGen(); !ok || g != 2 {
		t.Fatalf("OldestGen = %d,%v, want 2,true", g, ok)
	}
	if freed := s.EvictUpTo(1); freed != 20 {
		t.Fatalf("evict freed %d, want 20 (span B)", freed)
	}
	if s.Held() != 40 || len(s.spans) != 2 {
		t.Fatalf("after evict: held %d spans %d, want 40, 2", s.Held(), len(s.spans))
	}
	if _, err := s.ReadRange(100, 20, 5); err == nil {
		t.Error("evicted span still readable")
	}
	// Merging keeps the newest stamp: gluing a hot span onto cold A makes
	// the merged span hot, so C (gen 3) is evicted next.
	mustInsert(t, s, 10, make([]byte, 10), 6)
	if freed := s.EvictUpTo(1); freed != 30 {
		t.Fatalf("evict freed %d, want 30 (span C)", freed)
	}
	if freed := s.EvictUpTo(1); freed != 20 {
		t.Fatalf("evict freed %d, want 20 (merged A)", freed)
	}
	if s.Held() != 0 {
		t.Fatalf("held %d after evicting everything", s.Held())
	}
	if freed := s.EvictUpTo(1); freed != 0 {
		t.Fatalf("evict on empty freed %d", freed)
	}
}
