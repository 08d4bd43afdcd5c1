package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// tileBytes builds a deterministic pseudo-random tile blob seeded by
// (field, t, i): distinct seeds give distinct contents, equal seeds give
// bit-equal contents — the property the dedup tests lean on.
func tileBytes(seed string, n int) []byte {
	out := make([]byte, 0, n)
	var block [32]byte
	sum := sha256.Sum256([]byte(seed))
	for len(out) < n {
		block = sha256.Sum256(sum[:])
		sum = block
		out = append(out, block[:]...)
	}
	return out[:n]
}

// seriesManifest describes a 1-D field of ntiles tiles (chunk edge 4,
// extent 4*ntiles) — the simplest geometry whose tiling count matches any
// desired tile count.
func seriesManifest(field string, t, ntiles int) *Manifest {
	return &Manifest{
		Field:      field,
		T:          t,
		Shape:      []int{4 * ntiles},
		Chunk:      []int{4},
		Scalar:     0,
		ErrorBound: 1e-6,
	}
}

// putSeries stages one snapshot whose tile i holds the bytes tiles[i].
func putSeries(t *testing.T, s *Store, field string, tiles [][]byte) PutStats {
	t.Helper()
	m := seriesManifest(field, s.NextT(field), len(tiles))
	st, err := s.Put(m, tiles)
	if err != nil {
		t.Fatalf("Put %s@t%d: %v", field, m.T, err)
	}
	return st
}

// diskBlobs walks blobs/ and returns every blob file keyed by its name,
// verifying on the way that each file's SHA-256 matches it — the
// content-addressing invariant, checked against the actual disk state.
func diskBlobs(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	root := filepath.Join(dir, blobsDir)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != d.Name() {
			t.Errorf("blob file %s hashes to %s", d.Name(), got)
		}
		out[d.Name()] = b
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	return out
}

// TestPutDedupProperty pins the content-addressing properties the ingest
// path is built on: an identical re-put adds zero blobs, a one-tile
// change adds exactly that tile's blob, and every blob file on disk
// hashes to its own name.
func TestPutDedupProperty(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	tiles := make([][]byte, n)
	for i := range tiles {
		tiles[i] = tileBytes(fmt.Sprintf("base-%d", i), 100+i)
	}
	st := putSeries(t, s, "f", tiles)
	if st.NewBlobs != n || st.DedupBlobs != 0 {
		t.Fatalf("t0: NewBlobs=%d DedupBlobs=%d, want %d/0", st.NewBlobs, st.DedupBlobs, n)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	// Identical re-put: zero new blobs, everything deduplicated.
	st = putSeries(t, s, "f", tiles)
	if st.NewBlobs != 0 || st.DedupBlobs != n {
		t.Fatalf("identical t1: NewBlobs=%d DedupBlobs=%d, want 0/%d", st.NewBlobs, st.DedupBlobs, n)
	}

	// One-tile change: exactly one new blob, of exactly that tile's size.
	changed := append([][]byte(nil), tiles...)
	changed[7] = tileBytes("changed-7", 333)
	st = putSeries(t, s, "f", changed)
	if st.NewBlobs != 1 || st.NewBytes != 333 || st.DedupBlobs != n-1 {
		t.Fatalf("one-tile t2: NewBlobs=%d NewBytes=%d DedupBlobs=%d, want 1/333/%d",
			st.NewBlobs, st.NewBytes, st.DedupBlobs, n-1)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	// Disk state: n+1 unique blobs, each hashing to its file name.
	disk := diskBlobs(t, dir)
	if len(disk) != n+1 {
		t.Fatalf("disk has %d blobs, want %d", len(disk), n+1)
	}
	stats := s.Stats()
	if stats.Blobs != n+1 || stats.Snapshots != 3 {
		t.Fatalf("stats %+v, want %d blobs, 3 snapshots", stats, n+1)
	}

	// Every tile of every snapshot reads back bit-identically.
	for tstep, want := range [][][]byte{tiles, tiles, changed} {
		m, ok := s.Manifest("f", tstep)
		if !ok {
			t.Fatalf("no manifest f@t%d", tstep)
		}
		for i := range m.Tiles {
			got, err := s.ReadBlob(m.Tiles[i].Score)
			if err != nil {
				t.Fatalf("t%d tile %d: %v", tstep, i, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("t%d tile %d reads back wrong bytes", tstep, i)
			}
		}
	}
}

func TestPutAppendOnly(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putSeries(t, s, "f", [][]byte{tileBytes("a", 10)})
	m := seriesManifest("f", 0, 1)
	if _, err := s.Put(m, [][]byte{tileBytes("b", 10)}); err == nil {
		t.Fatal("re-putting t0 over a staged t0 succeeded; the series must be append-only")
	}
	m = seriesManifest("f", 5, 1)
	if _, err := s.Put(m, [][]byte{tileBytes("b", 10)}); err == nil {
		t.Fatal("skipping to t5 succeeded; the series must be dense")
	}
	if _, err := s.Put(seriesManifest("f", 1, 1), [][]byte{}); err == nil {
		t.Fatal("tile count 0 against a 1-tile tiling succeeded")
	}
	if _, err := s.Put(seriesManifest("f", 1, 1), [][]byte{nil}); err == nil {
		t.Fatal("an empty tile succeeded")
	}
}

// TestSealReopen checks durability: everything sealed is identical after
// a fresh Open, and a staged-but-unsealed epoch is readable before the
// seal and gone after a reopen that never sealed (it lived in memory
// only).
func TestSealReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tiles := [][]byte{tileBytes("x", 64), tileBytes("y", 65)}
	putSeries(t, s, "f", tiles)
	// Staged: readable now.
	m, ok := s.Manifest("f", 0)
	if !ok {
		t.Fatal("staged snapshot not readable")
	}
	if b, err := s.ReadBlob(m.Tiles[0].Score); err != nil || !bytes.Equal(b, tiles[0]) {
		t.Fatalf("staged blob read: %v", err)
	}
	if got := s.Snapshots(); len(got) != 1 || got[0].Sealed {
		t.Fatalf("Snapshots() = %+v, want one unsealed", got)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, ok := s2.Manifest("f", 0)
	if !ok {
		t.Fatal("sealed snapshot lost across reopen")
	}
	for i := range m.Tiles {
		if m.Tiles[i] != m2.Tiles[i] {
			t.Fatalf("tile %d changed across reopen: %+v vs %+v", i, m.Tiles[i], m2.Tiles[i])
		}
		b, err := s2.ReadBlob(m2.Tiles[i].Score)
		if err != nil || !bytes.Equal(b, tiles[i]) {
			t.Fatalf("reopened blob %d: %v", i, err)
		}
	}
	if nt := s2.NextT("f"); nt != 1 {
		t.Fatalf("NextT after reopen = %d, want 1", nt)
	}
}

func TestDeleteAndGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	shared := tileBytes("shared", 50)
	only0 := tileBytes("only0", 60)
	only1 := tileBytes("only1", 70)
	putSeries(t, s, "f", [][]byte{shared, only0})
	putSeries(t, s, "f", [][]byte{shared, only1})
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	if err := s.Delete("f", 0); err != nil {
		t.Fatal(err)
	}
	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	// Only the blob t0 alone referenced may go; the shared blob must stay.
	if st.Blobs != 1 || st.Bytes != 60 {
		t.Fatalf("GC reclaimed %d blobs/%d bytes, want 1/60", st.Blobs, st.Bytes)
	}
	m, ok := s.Manifest("f", 1)
	if !ok {
		t.Fatal("surviving snapshot lost")
	}
	for i := range m.Tiles {
		if _, err := s.ReadBlob(m.Tiles[i].Score); err != nil {
			t.Fatalf("surviving tile %d unreadable after GC: %v", i, err)
		}
	}
	// The deleted time step leaves a hole: the series continues past it.
	if nt := s.NextT("f"); nt != 2 {
		t.Fatalf("NextT after middle delete = %d, want 2", nt)
	}
	// Deleting a staged snapshot is refused with the seal-first hint.
	putSeries(t, s, "f", [][]byte{shared, only0})
	if err := s.Delete("f", 2); err == nil || !strings.Contains(err.Error(), "seal") {
		t.Fatalf("deleting a staged snapshot: %v, want a seal-first error", err)
	}
}

func TestReadBlobCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := tileBytes("v", 128)
	putSeries(t, s, "f", [][]byte{b})
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	score := ScoreOf(b)
	path, err := s.blobPath(score, false)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[17] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh store has not verified the blob yet: the flip must surface
	// as an integrity error, not as wrong data.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.ReadBlob(score); err == nil {
		t.Fatal("reading a corrupted blob succeeded")
	}
	p := make([]byte, 16)
	if _, err := s2.ReadBlobAt(score, p, 32); err == nil {
		t.Fatal("ranged read of a corrupted blob succeeded")
	}
}

// TestCorruptManifestFailsOpen pins loadManifests' hard-error contract: a
// store with a damaged manifest must refuse to open rather than silently
// GC the blobs the manifest referenced.
func TestCorruptManifestFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	putSeries(t, s, "f", [][]byte{tileBytes("v", 40)})
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestsDir, "f@t0"+manifestExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("opening a store with a corrupt manifest succeeded")
	}
}

// TestConcurrentPutSealRead exercises the store under the race detector:
// writers appending to independent fields while readers stream blobs and
// a sealer flushes epochs.
func TestConcurrentPutSealRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const fields, steps = 4, 6
	var wg sync.WaitGroup
	for f := 0; f < fields; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			field := fmt.Sprintf("f%d", f)
			for step := 0; step < steps; step++ {
				m := seriesManifest(field, step, 3)
				tiles := [][]byte{
					tileBytes(fmt.Sprintf("%s-%d-0", field, step), 90),
					tileBytes("shared-across-everything", 91),
					tileBytes(fmt.Sprintf("%s-%d-2", field, step), 92),
				}
				if _, err := s.Put(m, tiles); err != nil {
					t.Errorf("put %s@t%d: %v", field, step, err)
					return
				}
				for i := range m.Tiles {
					if _, err := s.ReadBlob(m.Tiles[i].Score); err != nil {
						t.Errorf("read %s@t%d tile %d: %v", field, step, i, err)
						return
					}
				}
				if step%2 == 1 {
					if err := s.Seal(); err != nil {
						t.Errorf("seal: %v", err)
						return
					}
				}
			}
		}(f)
	}
	wg.Wait()
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Snapshots != fields*steps {
		t.Fatalf("sealed %d snapshots, want %d", st.Snapshots, fields*steps)
	}
}

func TestSnapshotNames(t *testing.T) {
	for _, bad := range []string{"", "@", "a@b", "f@t-1", "f@tx", "with space@t0", "-leading@t0", "a/b@t0"} {
		if _, _, err := ParseSnapshotName(bad); err == nil {
			t.Errorf("ParseSnapshotName(%q) succeeded", bad)
		}
	}
	f, ts, err := ParseSnapshotName("den_s.1-x@t42")
	if err != nil || f != "den_s.1-x" || ts != 42 {
		t.Fatalf("ParseSnapshotName round trip: %q %d %v", f, ts, err)
	}
	if err := ValidateField("a@b"); err == nil {
		t.Error("ValidateField allowed '@', which snapshot addressing reserves")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Field: "density", T: 7,
		Shape: []int{48, 40, 40}, Chunk: []int{16, 16, 16},
		Scalar: 1, ErrorBound: 1e-6,
	}
	m.Tiles = make([]TileRef, 27)
	for i := range m.Tiles {
		m.Tiles[i] = TileRef{Score: ScoreOf(tileBytes(fmt.Sprint(i), 8)), Size: int64(100 + i)}
	}
	raw, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := EncodeManifest(got)
	if !bytes.Equal(raw, want) {
		t.Fatal("manifest does not round-trip byte-identically")
	}
	// A flipped checksum byte must be rejected.
	raw[len(raw)-1] ^= 1
	if _, err := DecodeManifest(raw); err == nil {
		t.Fatal("decode accepted a bad checksum")
	}
}

// TestPutPrinted pins the fingerprint contract: a nil tile is resolved to
// the blob the field's latest snapshot stored under the same fingerprint —
// and only while the store can still produce that blob. Every other case
// (no memory after Open or after a plain Put, a fingerprint that moved, a
// blob whose last reference Delete dropped) comes back as stale with
// nothing staged, so no manifest can name a blob the store does not hold.
func TestPutPrinted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := func(seed string) Fingerprint { return Fingerprint(ScoreOf([]byte(seed))) }
	a, b, b2 := tileBytes("a", 40), tileBytes("b", 50), tileBytes("b2", 60)
	put := func(tiles [][]byte, prints []Fingerprint) (PutStats, []int) {
		t.Helper()
		m := seriesManifest("f", s.NextT("f"), len(tiles))
		st, stale, err := s.PutPrinted(m, tiles, prints)
		if err != nil {
			t.Fatalf("PutPrinted t%d: %v", m.T, err)
		}
		if stale != nil && (m.Tiles != nil || s.NextT("f") != m.T) {
			t.Fatalf("a stale answer staged something: tiles %v, next t %d", m.Tiles, s.NextT("f"))
		}
		return st, stale
	}

	// Nothing is remembered yet: a nil tile cannot be resolved.
	if _, stale := put([][]byte{a, nil}, []Fingerprint{fp("a"), fp("b")}); len(stale) != 1 || stale[0] != 1 {
		t.Fatalf("nil tile with nothing remembered: stale %v, want [1]", stale)
	}
	if st, stale := put([][]byte{a, b}, []Fingerprint{fp("a"), fp("b")}); stale != nil || st.NewBlobs != 2 || st.ReusedTiles != 0 {
		t.Fatalf("first printed put: %+v stale %v", st, stale)
	}
	if got := s.Prints("f"); len(got) != 2 || got[0] != fp("a") || got[1] != fp("b") {
		t.Fatalf("Prints after a printed put: %v", got)
	}
	// Same fingerprints: both tiles resolve without bytes, from the epoch.
	st, stale := put([][]byte{nil, nil}, []Fingerprint{fp("a"), fp("b")})
	if stale != nil || st.ReusedTiles != 2 || st.DedupBlobs != 2 || st.NewBlobs != 0 || st.DedupBytes != 90 {
		t.Fatalf("unchanged put: %+v stale %v", st, stale)
	}
	m1, _ := s.Manifest("f", 1)
	if m1.Tiles[0] != (TileRef{ScoreOf(a), 40}) || m1.Tiles[1] != (TileRef{ScoreOf(b), 50}) {
		t.Fatalf("reused refs %v", m1.Tiles)
	}
	// A fingerprint that is not the remembered one at that index is stale,
	// even if another index remembers it.
	if _, stale := put([][]byte{nil, nil}, []Fingerprint{fp("b"), fp("b")}); len(stale) != 1 || stale[0] != 0 {
		t.Fatalf("moved fingerprint: stale %v, want [0]", stale)
	}
	// t2 changes tile 1; sealed, the memory points at sealed blobs.
	if st, stale := put([][]byte{nil, b2}, []Fingerprint{fp("a"), fp("b2")}); stale != nil || st.ReusedTiles != 1 || st.NewBlobs != 1 {
		t.Fatalf("partial put: %+v stale %v", st, stale)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if st, stale := put([][]byte{nil, nil}, []Fingerprint{fp("a"), fp("b2")}); stale != nil || st.ReusedTiles != 2 {
		t.Fatalf("put against sealed blobs: %+v stale %v", st, stale)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// Drop every reference to b2 (t2 and t3) and sweep: the memory of t3
	// still names b2's blob, which the store can no longer produce.
	for _, ts := range []int{2, 3} {
		if err := s.Delete("f", ts); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if _, stale := put([][]byte{nil, nil}, []Fingerprint{fp("a"), fp("b2")}); len(stale) != 1 || stale[0] != 1 {
		t.Fatalf("after Delete+GC: stale %v, want [1] (a is still referenced by t0/t1)", stale)
	}
	if st, stale := put([][]byte{nil, b2}, []Fingerprint{fp("a"), fp("b2")}); stale != nil || st.ReusedTiles != 1 || st.NewBlobs != 1 {
		t.Fatalf("put after recompressing the stale tile: %+v stale %v", st, stale)
	}
	latest, _ := s.Latest("f")
	m, _ := s.Manifest("f", latest)
	for i := range m.Tiles {
		if _, err := s.ReadBlob(m.Tiles[i].Score); err != nil {
			t.Fatalf("tile %d of the snapshot put after GC is unreadable: %v", i, err)
		}
	}
	// A plain Put forgets: its tiles carry no fingerprints to compare with.
	putSeries(t, s, "f", [][]byte{a, b2})
	if s.Prints("f") != nil {
		t.Fatal("Prints survives a plain Put")
	}
	// And so does reopening: the memory is never written.
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if s.Prints("f") != nil {
		t.Fatal("Prints survives a reopen")
	}
	if _, stale := put([][]byte{nil, b2}, []Fingerprint{fp("a"), fp("b2")}); len(stale) != 1 || stale[0] != 0 {
		t.Fatalf("nil tile after reopen: stale %v, want [0]", stale)
	}
	// Without fingerprints a nil tile is simply an empty tile.
	if _, err := s.Put(seriesManifest("f", s.NextT("f"), 2), [][]byte{nil, b2}); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("plain Put of a nil tile: %v, want the empty-tile error", err)
	}
	if _, _, err := s.PutPrinted(seriesManifest("f", s.NextT("f"), 2), [][]byte{a, b2}, []Fingerprint{fp("a")}); err == nil {
		t.Fatal("PutPrinted accepted one fingerprint for two tiles")
	}
}

// TestSealKeepsTimeStepLists pins the per-field time-step lists across
// seals: each staged step is listed once (Put lists it, sealing must not
// list it again), for the fields an epoch touched and for those it did
// not, with a deleted step staying deleted.
func TestSealKeepsTimeStepLists(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	names := func() string {
		var out []string
		for _, sn := range s.Snapshots() {
			out = append(out, sn.Name)
		}
		return strings.Join(out, " ")
	}
	for i := 0; i < 3; i++ {
		putSeries(t, s, "f", [][]byte{tileBytes(fmt.Sprint("f", i), 20)})
	}
	putSeries(t, s, "g", [][]byte{tileBytes("g0", 20)})
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("f", 1); err != nil {
		t.Fatal(err)
	}
	// The second epoch touches only g; f's list must come through intact.
	putSeries(t, s, "g", [][]byte{tileBytes("g1", 20)})
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if got, want := names(), "f@t0 f@t2 g@t0 g@t1"; got != want {
		t.Fatalf("snapshots after two seals: %s, want %s", got, want)
	}
	if nf, ng := s.NextT("f"), s.NextT("g"); nf != 3 || ng != 2 {
		t.Fatalf("NextT f=%d g=%d, want 3 and 2", nf, ng)
	}
	s.mu.Lock()
	lf, lg := len(s.fields["f"]), len(s.fields["g"])
	s.mu.Unlock()
	if lf != 2 || lg != 2 {
		t.Fatalf("time-step lists hold %d and %d entries, want 2 and 2 (a step listed twice?)", lf, lg)
	}
}
