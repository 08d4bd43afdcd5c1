package backend

import (
	"bytes"
	"math"
	"testing"
)

func mustInsert(t *testing.T, s *Sparse, off int64, b []byte) {
	t.Helper()
	if err := s.Insert(off, b); err != nil {
		t.Fatalf("insert(%d, %d bytes): %v", off, len(b), err)
	}
}

func TestSparseMergeAndRead(t *testing.T) {
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	s := NewSparse(100)
	mustInsert(t, s, 0, append([]byte(nil), data[0:10]...))
	mustInsert(t, s, 20, append([]byte(nil), data[20:30]...))
	mustInsert(t, s, 10, append([]byte(nil), data[10:20]...)) // fills the gap
	if len(s.spans) != 3 || s.Held() != 3*int64(cap(s.spans[0].b)) {
		t.Fatalf("three inserts left %d spans held as %d bytes, want 3 held as their backings", len(s.spans), s.Held())
	}
	got, err := s.ReadRange(5, 20) // straddles all three original inserts
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[5:25]) {
		t.Error("merged read returned wrong bytes")
	}
	if len(s.spans) != 1 || s.Held() != int64(cap(s.spans[0].b)) || len(s.spans[0].b) != 30 {
		t.Fatalf("after a straddling read: %d spans, Held = %d for %d resident bytes on a backing of %d; want 1 span of 30 on a backing Held counts",
			len(s.spans), s.Held(), len(s.spans[0].b), cap(s.spans[0].b))
	}
	if _, err := s.ReadRange(25, 10); err == nil {
		t.Error("read past resident ranges succeeded")
	}
	if err := s.Insert(95, data[0:10]); err == nil {
		t.Error("insert past size accepted")
	}
	// A forged offset near 2^63 must not wrap past the bound check.
	if err := s.Insert(math.MaxInt64-4, data[0:10]); err == nil {
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
	mustInsert(t, s, 10, append([]byte(nil), data[10:30]...))
	mustInsert(t, s, 50, append([]byte(nil), data[50:60]...))

	// Re-send covering: a prefix overlap, the gap, and the second span.
	mustInsert(t, s, 20, append([]byte(nil), data[20:70]...))
	if g := s.Missing(10, 60); g != nil {
		t.Fatalf("overlapping re-send left gaps %v", g)
	}
	got, err := s.ReadRange(10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[10:70]) {
		t.Error("re-send merge corrupted bytes")
	}
	if s.Held() != int64(cap(s.spans[0].b)) || len(s.spans[0].b) != 60 {
		t.Fatalf("Held = %d after merge for %d resident bytes on a backing of %d, want 60 on a backing Held counts", s.Held(), len(s.spans[0].b), cap(s.spans[0].b))
	}

	// An exact replay (retry after a dropped connection) is a no-op.
	mustInsert(t, s, 10, append([]byte(nil), data[10:70]...))
	if len(s.spans) != 1 {
		t.Fatalf("replay left %d spans", len(s.spans))
	}

	// A re-send whose bytes disagree is stream corruption.
	bad := append([]byte(nil), data[30:40]...)
	bad[5] ^= 0xFF
	if err := s.Insert(30, bad); err == nil {
		t.Error("diverging re-sent bytes accepted")
	}
}

func TestSparseMissing(t *testing.T) {
	s := NewSparse(100)
	mustInsert(t, s, 10, make([]byte, 10)) // [10,20)
	mustInsert(t, s, 40, make([]byte, 10)) // [40,50)
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

// TestSparseAliasSurvivesMerge pins what lets an owner hand out resident
// bytes after it unlocks: a slice ReadRange returned keeps its bytes when
// a later straddling read merges its span with neighbours, and Held is
// what the spans' backings occupy.
func TestSparseAliasSurvivesMerge(t *testing.T) {
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(7 * i)
	}
	s := NewSparse(100)
	mustInsert(t, s, 40, append([]byte(nil), data[40:50]...))
	alias, err := s.ReadRange(40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cap(alias) != len(alias) {
		t.Errorf("alias has capacity %d beyond its %d bytes", cap(alias), len(alias))
	}
	mustInsert(t, s, 30, append([]byte(nil), data[30:40]...))
	mustInsert(t, s, 50, append([]byte(nil), data[50:70]...))
	got, err := s.ReadRange(30, 40)
	if err != nil || !bytes.Equal(got, data[30:70]) {
		t.Fatalf("merged read: %v", err)
	}
	if len(s.spans) != 1 || len(s.spans[0].b) != 40 || s.Held() != int64(cap(s.spans[0].b)) {
		t.Fatalf("merged %d spans of %d bytes held as %d on a backing of %d, want 1 of 40 held as its backing", len(s.spans), len(s.spans[0].b), s.Held(), cap(s.spans[0].b))
	}
	if !bytes.Equal(alias, data[40:50]) {
		t.Error("a merge rewrote bytes an earlier read returned")
	}
	mustInsert(t, s, 70, append([]byte(nil), data[70:80]...))
	if _, err := s.ReadRange(60, 20); err != nil || !bytes.Equal(got, data[30:70]) {
		t.Errorf("a second merge rewrote bytes the first one returned (%v)", err)
	}
}
