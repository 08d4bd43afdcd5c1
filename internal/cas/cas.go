package cas

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// On-disk layout under the store's root directory:
//
//	blobs/ab/ab12…ef        one file per blob, named by its full score,
//	                        sharded by the first two hex digits
//	manifests/field@t3.ipcm one file per sealed snapshot
//	manifests/*.ipcm.new    staged by a seal in progress (trusted only
//	                        under a journal)
//	manifests/epoch.commit  the seal journal; its rename is the commit point
//	tmp/                    scratch for atomic writes; emptied on Open
const (
	blobsDir     = "blobs"
	manifestsDir = "manifests"
	tmpDir       = "tmp"
	manifestExt  = ".ipcm"
	stagedExt    = ".ipcm.new"
	journalName  = "epoch.commit"
)

// Store is a content-addressed snapshot store rooted at a directory. All
// methods are safe for concurrent use.
type Store struct {
	dir string

	mu        sync.Mutex
	manifests map[string]*Manifest // sealed, by snapshot name
	fields    map[string][]int     // sealed+staged time steps per field, sorted
	refs      map[Score]int        // manifest references per sealed blob
	sizes     map[Score]int64      // size per sealed blob
	blobBytes int64                // sum of sizes (unique blobs)

	// The open epoch: blobs and manifests staged in memory, readable
	// immediately, flushed by Seal.
	epochBlobs     map[Score][]byte
	epochManifests []*Manifest

	// prints remembers, per field, the fingerprints the writer of its
	// latest snapshot handed to PutPrinted. Memory only: empty after Open,
	// never written to disk.
	prints map[string]tilePrints

	verified sync.Map // Score -> struct{}: sealed blobs whose hash was checked

	// testHookSeal, when set, runs before every labeled step of sealEpoch;
	// returning an error aborts the seal at that point, which is how the
	// chaos test simulates a crash at every instant of the commit protocol.
	testHookSeal func(step string) error
}

// Open opens (creating if needed) a store rooted at dir and recovers any
// interrupted seal: a present journal is rolled forward (the epoch had
// committed), stray staged manifests without one are discarded, and the
// scratch directory is emptied.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, blobsDir), filepath.Join(dir, manifestsDir), filepath.Join(dir, tmpDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	s := &Store{
		dir:        dir,
		manifests:  make(map[string]*Manifest),
		fields:     make(map[string][]int),
		refs:       make(map[Score]int),
		sizes:      make(map[Score]int64),
		epochBlobs: make(map[Score][]byte),
		prints:     make(map[string]tilePrints),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if err := s.loadManifests(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// recover completes or discards an interrupted seal; see Open.
func (s *Store) recover() error {
	mdir := filepath.Join(s.dir, manifestsDir)
	journal := filepath.Join(mdir, journalName)
	if raw, err := os.ReadFile(journal); err == nil {
		// The journal exists, so every staged manifest it lists was fully
		// written before the commit point: roll the epoch forward.
		for _, name := range strings.Fields(string(raw)) {
			staged := filepath.Join(mdir, name+stagedExt)
			final := filepath.Join(mdir, name+manifestExt)
			if _, err := os.Stat(staged); err == nil {
				if err := os.Rename(staged, final); err != nil {
					return fmt.Errorf("cas: rolling forward %s: %w", name, err)
				}
			}
		}
		if err := os.Remove(journal); err != nil {
			return err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	// Without a journal, staged manifests belong to an epoch that never
	// committed: discard them. Their blobs (if any landed) are unreferenced
	// and will be swept by GC.
	entries, err := os.ReadDir(mdir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), stagedExt) {
			if err := os.Remove(filepath.Join(mdir, e.Name())); err != nil {
				return err
			}
		}
	}
	// Scratch files are garbage by definition.
	tdir := filepath.Join(s.dir, tmpDir)
	entries, err = os.ReadDir(tdir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.Remove(filepath.Join(tdir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// loadManifests reads every sealed manifest and rebuilds the reference
// counts. A manifest that fails to decode is a hard error: silent
// skipping would make GC treat its blobs as garbage.
func (s *Store) loadManifests() error {
	mdir := filepath.Join(s.dir, manifestsDir)
	entries, err := os.ReadDir(mdir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), manifestExt) || strings.HasSuffix(e.Name(), stagedExt) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(mdir, e.Name()))
		if err != nil {
			return err
		}
		m, err := DecodeManifest(raw)
		if err != nil {
			return fmt.Errorf("cas: manifest %s: %w", e.Name(), err)
		}
		if m.Name()+manifestExt != e.Name() {
			return fmt.Errorf("cas: manifest file %s declares snapshot %s", e.Name(), m.Name())
		}
		s.indexManifest(m)
		s.fields[m.Field] = append(s.fields[m.Field], m.T)
	}
	for field := range s.fields {
		sort.Ints(s.fields[field])
	}
	return nil
}

// indexManifest registers a sealed manifest and its blob references in
// the in-memory maps; the field's time-step list is the caller's (Put
// lists a step when it is staged, loadManifests when it is read back).
// Callers hold mu (or are single-threaded during Open).
func (s *Store) indexManifest(m *Manifest) {
	s.manifests[m.Name()] = m
	for i := range m.Tiles {
		tr := &m.Tiles[i]
		if s.refs[tr.Score] == 0 {
			s.sizes[tr.Score] = tr.Size
			s.blobBytes += tr.Size
		}
		s.refs[tr.Score]++
	}
}

// PutStats reports what one Put added to the store.
type PutStats struct {
	// NewBlobs/NewBytes count blobs this snapshot introduced — absent from
	// both the sealed store and the open epoch.
	NewBlobs int
	NewBytes int64
	// DedupBlobs/DedupBytes count tile references that resolved to blobs
	// already present.
	DedupBlobs int
	DedupBytes int64
	// ReusedTiles counts the DedupBlobs that PutPrinted resolved by
	// fingerprint: tiles the writer never compressed.
	ReusedTiles int
}

// Fingerprint identifies a tile before it is compressed: a SHA-256 the
// writer takes over the tile's raw bytes and over every parameter that
// feeds its compressor. The store treats it as opaque, as it does blobs;
// what it relies on is the writer's guarantee that the compressor is
// deterministic, so that equal fingerprints mean equal blobs.
type Fingerprint [sha256.Size]byte

// tilePrints is what the store remembers of a field's latest snapshot:
// the fingerprint of every tile next to the blob it became. tiles aliases
// the snapshot's manifest, which is immutable, so the memory costs one
// fingerprint per tile.
type tilePrints struct {
	prints []Fingerprint
	tiles  []TileRef
}

// Put stages one snapshot in the open epoch: tiles are the compressed
// tile archives in row-major chunk order, m carries the geometry with
// Tiles left nil (Put fills it). The snapshot is readable immediately;
// Seal makes it durable. The time step must be the field's next (or 0 for
// a new field) — the series is append-only.
func (s *Store) Put(m *Manifest, tiles [][]byte) (PutStats, error) {
	st, _, err := s.put(m, tiles, nil)
	return st, err
}

// Prints returns the fingerprints remembered for the field's latest
// snapshot, tile by tile, or nil when there are none: the store was just
// opened, or the latest snapshot came through plain Put. The slice is
// shared and read-only. A match against it is a hint, not a promise —
// only PutPrinted, under the store's lock, decides whether the blob
// behind it can still be referenced.
func (s *Store) Prints(field string) []Fingerprint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prints[field].prints
}

// PutPrinted is Put for a writer that fingerprinted its tiles before
// compressing them. prints[i] is tile i's fingerprint (the store keeps the
// slice, for the field's next snapshot); a nil tiles[i] asks for the blob
// the field's latest snapshot stored at tile i under that same
// fingerprint. The request is honoured only while that blob is still held
// — staged in the open epoch or referenced by a sealed manifest; Delete
// and GC may have dropped it, and a manifest must never name a blob the
// store cannot produce. When any request cannot be honoured nothing is
// staged and stale lists those tiles: the writer compresses them and puts
// again.
func (s *Store) PutPrinted(m *Manifest, tiles [][]byte, prints []Fingerprint) (st PutStats, stale []int, err error) {
	if len(prints) != len(tiles) {
		return st, nil, fmt.Errorf("cas: %d fingerprints for %d tiles", len(prints), len(tiles))
	}
	return s.put(m, tiles, prints)
}

// put is Put and PutPrinted; prints is nil for the former.
func (s *Store) put(m *Manifest, tiles [][]byte, prints []Fingerprint) (st PutStats, stale []int, err error) {
	m.Tiles = make([]TileRef, len(tiles))
	for i, b := range tiles {
		if b == nil && prints != nil {
			continue // resolved below, under the lock
		}
		if len(b) == 0 {
			return st, nil, fmt.Errorf("cas: tile %d is empty", i)
		}
		m.Tiles[i] = TileRef{Score: ScoreOf(b), Size: int64(len(b))}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.prints[m.Field]
	for i, b := range tiles {
		if b != nil {
			continue
		}
		if i < len(prev.prints) && prev.prints[i] == prints[i] && s.heldLocked(prev.tiles[i].Score) {
			m.Tiles[i] = prev.tiles[i]
		} else {
			stale = append(stale, i)
		}
	}
	if stale != nil {
		m.Tiles = nil
		return st, stale, nil
	}
	if err := m.validate(); err != nil {
		return st, nil, err
	}
	if want := s.nextTLocked(m.Field); m.T != want {
		return st, nil, fmt.Errorf("cas: field %q is at time step %d next, not %d (snapshots are append-only)", m.Field, want, m.T)
	}
	for i, b := range tiles {
		tr := &m.Tiles[i]
		if s.heldLocked(tr.Score) {
			st.DedupBlobs++
			st.DedupBytes += tr.Size
			if b == nil {
				st.ReusedTiles++
			}
			continue
		}
		// Detach from the caller's buffer: epoch blobs outlive the request.
		s.epochBlobs[tr.Score] = append([]byte(nil), b...)
		st.NewBlobs++
		st.NewBytes += tr.Size
	}
	s.epochManifests = append(s.epochManifests, m)
	s.fields[m.Field] = append(s.fields[m.Field], m.T)
	if prints != nil {
		s.prints[m.Field] = tilePrints{prints: prints, tiles: m.Tiles}
	} else {
		delete(s.prints, m.Field)
	}
	return st, nil, nil
}

// heldLocked reports whether a manifest may reference the blob: it is
// staged in the open epoch or some sealed manifest already references it.
func (s *Store) heldLocked(score Score) bool {
	if _, ok := s.epochBlobs[score]; ok {
		return true
	}
	return s.refs[score] > 0
}

// nextTLocked returns the next time step of a field across sealed and
// staged snapshots (0 for an unknown field).
func (s *Store) nextTLocked(field string) int {
	ts := s.fields[field]
	if len(ts) == 0 {
		return 0
	}
	return ts[len(ts)-1] + 1
}

// NextT returns the time step the next Put of the field must carry.
func (s *Store) NextT(field string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextTLocked(field)
}

// Seal flushes the open epoch to disk with an all-or-nothing commit and
// clears it. An empty epoch is a no-op. On error the epoch stays open
// (and fully readable); a process crash mid-seal is recovered by Open.
func (s *Store) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealLocked()
}

func (s *Store) sealLocked() error {
	if len(s.epochManifests) == 0 {
		return nil
	}
	if err := s.sealEpoch(s.epochManifests, s.epochBlobs); err != nil {
		return err
	}
	for _, m := range s.epochManifests {
		s.indexManifest(m)
	}
	s.epochBlobs = make(map[Score][]byte)
	s.epochManifests = nil
	return nil
}

// step runs the chaos-test hook at a labeled instant of the commit
// protocol.
func (s *Store) step(label string) error {
	if s.testHookSeal != nil {
		return s.testHookSeal(label)
	}
	return nil
}

// sealEpoch is the commit protocol. Ordering is what makes a crash at any
// instant recoverable:
//
//  1. every new blob: tmp write, fsync, rename into blobs/ — idempotent,
//     content-addressed, invisible to readers until referenced
//  2. every manifest: tmp write, fsync, rename to .new — staged, untrusted
//  3. the journal listing the staged names: tmp write, fsync, rename —
//     THE commit point
//  4. every .new renamed to .ipcm
//  5. journal removed
//
// Crash before 3: recovery discards the .new files; blobs that landed are
// unreferenced garbage for GC. Crash after 3: recovery rolls the renames
// forward. Either way no sealed snapshot is ever half-visible.
func (s *Store) sealEpoch(manifests []*Manifest, blobs map[Score][]byte) error {
	for score, b := range blobs {
		if err := s.step("blob"); err != nil {
			return err
		}
		if err := s.writeBlobFile(score, b); err != nil {
			return err
		}
	}
	mdir := filepath.Join(s.dir, manifestsDir)
	names := make([]string, 0, len(manifests))
	for _, m := range manifests {
		if err := s.step("manifest"); err != nil {
			return err
		}
		raw, err := EncodeManifest(m)
		if err != nil {
			return err
		}
		if err := s.atomicWrite(filepath.Join(mdir, m.Name()+stagedExt), raw); err != nil {
			return err
		}
		names = append(names, m.Name())
	}
	if err := s.step("journal"); err != nil {
		return err
	}
	if err := s.atomicWrite(filepath.Join(mdir, journalName), []byte(strings.Join(names, "\n")+"\n")); err != nil {
		return err
	}
	for _, name := range names {
		if err := s.step("commit"); err != nil {
			return err
		}
		if err := os.Rename(filepath.Join(mdir, name+stagedExt), filepath.Join(mdir, name+manifestExt)); err != nil {
			return err
		}
	}
	if err := s.step("cleanup"); err != nil {
		return err
	}
	return os.Remove(filepath.Join(mdir, journalName))
}

// blobPath returns a blob's final path, creating its shard directory.
func (s *Store) blobPath(score Score, mkdir bool) (string, error) {
	hexName := score.String()
	shard := filepath.Join(s.dir, blobsDir, hexName[:2])
	if mkdir {
		if err := os.MkdirAll(shard, 0o755); err != nil {
			return "", err
		}
	}
	return filepath.Join(shard, hexName), nil
}

// writeBlobFile lands one blob via tmp write + rename; an already-present
// blob (same content by construction) is left untouched.
func (s *Store) writeBlobFile(score Score, b []byte) error {
	path, err := s.blobPath(score, true)
	if err != nil {
		return err
	}
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return s.atomicWrite(path, b)
}

// atomicWrite writes bytes to path via a scratch file in tmp/, fsynced
// before the rename so the rename never publishes an empty or partial
// file.
func (s *Store) atomicWrite(path string, b []byte) error {
	f, err := os.CreateTemp(filepath.Join(s.dir, tmpDir), "w-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(b); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// SnapshotInfo summarizes one snapshot for listings.
type SnapshotInfo struct {
	Field  string
	T      int
	Name   string
	Shape  []int
	Chunk  []int
	Scalar uint8
	// Bytes is the snapshot's logical compressed size (every tile counted);
	// Tiles its tile count; Sealed whether it is durable yet.
	ErrorBound float64
	Tiles      int
	Bytes      int64
	Sealed     bool
}

// Snapshots lists every snapshot, sealed and staged, ordered by field
// then time step.
func (s *Store) Snapshots() []SnapshotInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SnapshotInfo, 0, len(s.manifests)+len(s.epochManifests))
	add := func(m *Manifest, sealed bool) {
		out = append(out, SnapshotInfo{
			Field: m.Field, T: m.T, Name: m.Name(),
			Shape: append([]int(nil), m.Shape...), Chunk: append([]int(nil), m.Chunk...),
			Scalar: m.Scalar, ErrorBound: m.ErrorBound,
			Tiles: len(m.Tiles), Bytes: m.Bytes(), Sealed: sealed,
		})
	}
	for _, m := range s.manifests {
		add(m, true)
	}
	for _, m := range s.epochManifests {
		add(m, false)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Field != out[j].Field {
			return out[i].Field < out[j].Field
		}
		return out[i].T < out[j].T
	})
	return out
}

// Manifest returns the named field's snapshot at time step t, sealed or
// staged.
func (s *Store) Manifest(field string, t int) (*Manifest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.manifests[SnapshotName(field, t)]; ok {
		return m, true
	}
	for _, m := range s.epochManifests {
		if m.Field == field && m.T == t {
			return m, true
		}
	}
	return nil, false
}

// Latest returns a field's highest time step.
func (s *Store) Latest(field string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.fields[field]
	if len(ts) == 0 {
		return 0, false
	}
	return ts[len(ts)-1], true
}

// Fields lists the field names, sorted.
func (s *Store) Fields() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.fields))
	for f, ts := range s.fields {
		if len(ts) > 0 {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// ReadBlob returns a blob's bytes: from the open epoch if staged there,
// otherwise from disk with its content verified against the score — a
// blob that does not hash to its key is an integrity error, never data.
func (s *Store) ReadBlob(score Score) ([]byte, error) {
	s.mu.Lock()
	if b, ok := s.epochBlobs[score]; ok {
		s.mu.Unlock()
		return b, nil
	}
	s.mu.Unlock()
	path, err := s.blobPath(score, false)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cas: blob %s: %w", score, err)
	}
	if ScoreOf(b) != score {
		return nil, fmt.Errorf("cas: blob %s fails its score check (%d bytes corrupt on disk)", score, len(b))
	}
	s.verified.Store(score, struct{}{})
	return b, nil
}

// ReadBlobAt fills p from the blob starting at off. The first touch of a
// sealed blob reads and verifies it whole (scores cover whole blobs, not
// ranges); later reads are served by ranged file I/O.
func (s *Store) ReadBlobAt(score Score, p []byte, off int64) (int, error) {
	s.mu.Lock()
	if b, ok := s.epochBlobs[score]; ok {
		s.mu.Unlock()
		return copyAt(p, b, off, score)
	}
	s.mu.Unlock()
	if _, ok := s.verified.Load(score); !ok {
		b, err := s.ReadBlob(score)
		if err != nil {
			return 0, err
		}
		return copyAt(p, b, off, score)
	}
	path, err := s.blobPath(score, false)
	if err != nil {
		return 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := f.ReadAt(p, off)
	if err != nil {
		return n, fmt.Errorf("cas: blob %s: %w", score, err)
	}
	return n, nil
}

func copyAt(p, b []byte, off int64, score Score) (int, error) {
	if off < 0 || off > int64(len(b)) || int64(len(p)) > int64(len(b))-off {
		return 0, fmt.Errorf("cas: read [%d,%d) outside blob %s of %d bytes", off, off+int64(len(p)), score, len(b))
	}
	return copy(p, b[off:]), nil
}

// Delete removes a sealed snapshot's manifest, releasing its blob
// references (the blobs stay until GC). Staged snapshots cannot be
// deleted — seal first — and deleting from the middle of a series is
// allowed: remaining snapshots are untouched, the field's next time step
// stays one past its highest.
func (s *Store) Delete(field string, t int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	name := SnapshotName(field, t)
	m, ok := s.manifests[name]
	if !ok {
		for _, em := range s.epochManifests {
			if em.Field == field && em.T == t {
				return fmt.Errorf("cas: snapshot %s is staged in the open epoch; seal before deleting", name)
			}
		}
		return fmt.Errorf("cas: no snapshot %s", name)
	}
	if err := os.Remove(filepath.Join(s.dir, manifestsDir, name+manifestExt)); err != nil {
		return err
	}
	delete(s.manifests, name)
	ts := s.fields[field][:0]
	for _, have := range s.fields[field] {
		if have != t {
			ts = append(ts, have)
		}
	}
	s.fields[field] = ts
	for i := range m.Tiles {
		tr := &m.Tiles[i]
		s.refs[tr.Score]--
		if s.refs[tr.Score] == 0 {
			delete(s.refs, tr.Score)
			s.blobBytes -= s.sizes[tr.Score]
			delete(s.sizes, tr.Score)
		}
	}
	return nil
}

// GCStats reports what a sweep reclaimed.
type GCStats struct {
	Blobs int
	Bytes int64
}

// GC removes every on-disk blob no manifest references and that is not
// staged in the open epoch: garbage from deleted snapshots and from
// seals that crashed before their commit point.
func (s *Store) GC() (GCStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st GCStats
	bdir := filepath.Join(s.dir, blobsDir)
	shards, err := os.ReadDir(bdir)
	if err != nil {
		return st, err
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		sdir := filepath.Join(bdir, shard.Name())
		entries, err := os.ReadDir(sdir)
		if err != nil {
			return st, err
		}
		for _, e := range entries {
			score, err := ParseScore(e.Name())
			if err != nil {
				continue // not a blob file; leave it alone
			}
			if s.heldLocked(score) {
				continue
			}
			info, err := e.Info()
			if err != nil {
				return st, err
			}
			if err := os.Remove(filepath.Join(sdir, e.Name())); err != nil {
				return st, err
			}
			s.verified.Delete(score)
			st.Blobs++
			st.Bytes += info.Size()
		}
	}
	return st, nil
}

// Stats is a snapshot of the store's dedup accounting.
type Stats struct {
	// Snapshots and Fields count sealed manifests; Blobs/BlobBytes the
	// unique sealed blobs they reference. EpochSnapshots/EpochBlobs/
	// EpochBytes describe the open epoch.
	Snapshots      int
	Fields         int
	Blobs          int
	BlobBytes      int64
	EpochSnapshots int
	EpochBlobs     int
	EpochBytes     int64
}

// Stats reports the store's current accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Snapshots:      len(s.manifests),
		Blobs:          len(s.refs),
		BlobBytes:      s.blobBytes,
		EpochSnapshots: len(s.epochManifests),
		EpochBlobs:     len(s.epochBlobs),
	}
	nf := 0
	for _, ts := range s.fields {
		if len(ts) > 0 {
			nf++
		}
	}
	st.Fields = nf
	for _, b := range s.epochBlobs {
		st.EpochBytes += int64(len(b))
	}
	return st
}
