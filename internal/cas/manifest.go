package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/le"
)

// Score is a blob's content address: the SHA-256 of its bytes.
type Score [sha256.Size]byte

// ScoreOf computes the score of a blob.
func ScoreOf(b []byte) Score { return sha256.Sum256(b) }

// String returns the score as lowercase hex, the on-disk blob file name.
func (s Score) String() string { return hex.EncodeToString(s[:]) }

// ParseScore parses the hex form of a score.
func ParseScore(s string) (Score, error) {
	var out Score
	if len(s) != 2*sha256.Size {
		return out, fmt.Errorf("cas: score %q is not %d hex digits", s, 2*sha256.Size)
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return out, fmt.Errorf("cas: score %q is not hex: %v", s, err)
	}
	copy(out[:], b)
	return out, nil
}

// TileRef addresses one compressed tile of a snapshot: its score and its
// exact blob size (recorded so container synthesis and planning need no
// blob reads).
type TileRef struct {
	Score Score
	Size  int64
}

// Manifest describes one snapshot: field name, time step, and the dataset
// geometry plus the ordered tile list (row-major chunk order, exactly as a
// container index records chunks).
type Manifest struct {
	Field      string // field name; see ValidateField
	T          int    // time step, 0-based
	Shape      []int  // dataset extents
	Chunk      []int  // nominal tile shape, same rank
	Scalar     uint8  // element-type code (core.ScalarType's wire value)
	ErrorBound float64
	Tiles      []TileRef
}

// SnapshotName is the dataset name a snapshot is addressable under:
// "field@t3" for time step 3 of field "field".
func SnapshotName(field string, t int) string {
	return fmt.Sprintf("%s@t%d", field, t)
}

// ParseSnapshotName splits "field@t3" back into its parts.
func ParseSnapshotName(name string) (field string, t int, err error) {
	field, rest, ok := strings.Cut(name, "@")
	if !ok || !strings.HasPrefix(rest, "t") {
		return "", 0, fmt.Errorf("cas: %q is not a snapshot name (want field@tN)", name)
	}
	t, err = strconv.Atoi(rest[1:])
	if err != nil || t < 0 {
		return "", 0, fmt.Errorf("cas: %q has a bad time step (want field@tN)", name)
	}
	if err := ValidateField(field); err != nil {
		return "", 0, err
	}
	return field, t, nil
}

// fieldRe is deliberately conservative: field names become file names
// (manifests) and URL path segments (datasets), and '@' is reserved for
// snapshot addressing.
var fieldRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// ValidateField rejects field names that cannot serve as manifest file
// names and dataset path segments.
func ValidateField(field string) error {
	if field == "" || len(field) > 200 || !fieldRe.MatchString(field) {
		return fmt.Errorf("cas: invalid field name %q (want [A-Za-z0-9._-]+, starting with an alphanumeric)", field)
	}
	return nil
}

// Name returns the manifest's snapshot name.
func (m *Manifest) Name() string { return SnapshotName(m.Field, m.T) }

// Bytes sums the manifest's tile blob sizes (shared blobs counted once per
// reference — this is the snapshot's logical compressed size, not its
// marginal cost).
func (m *Manifest) Bytes() int64 {
	var n int64
	for i := range m.Tiles {
		n += m.Tiles[i].Size
	}
	return n
}

// Manifest wire format (little-endian), version 1:
//
//	magic "IPCM" | version u8 | rank u8 | scalar u8 | reserved u8
//	fieldLen u16 | field | t u32
//	shape u32*rank | chunk u32*rank | errorBound f64
//	ntiles u32 | ntiles * (score [32] | size i64)
//	checksum [32]  — SHA-256 of every preceding byte
//
// The trailing checksum makes a torn or bit-rotted manifest detectable
// without reference to any blob.
const (
	manifestMagic   = "IPCM"
	manifestVersion = 1
	maxManifestRank = 8
	tileRefSize     = sha256.Size + 8
)

var errManifestCorrupt = errors.New("cas: corrupt manifest")

// validate checks the structural invariants encode relies on and decode
// enforces.
func (m *Manifest) validate() error {
	if err := ValidateField(m.Field); err != nil {
		return err
	}
	if m.T < 0 || m.T > 1<<30 {
		return fmt.Errorf("cas: manifest %q has invalid time step %d", m.Field, m.T)
	}
	if len(m.Shape) == 0 || len(m.Shape) > maxManifestRank || len(m.Chunk) != len(m.Shape) {
		return fmt.Errorf("cas: manifest %q has invalid rank %d/%d", m.Field, len(m.Shape), len(m.Chunk))
	}
	ntiles := 1
	for d := range m.Shape {
		if m.Shape[d] <= 0 || m.Shape[d] > 1<<30 || m.Chunk[d] <= 0 || m.Chunk[d] > 1<<30 {
			return fmt.Errorf("cas: manifest %q has invalid extents %v/%v", m.Field, m.Shape, m.Chunk)
		}
		c := (m.Shape[d] + m.Chunk[d] - 1) / m.Chunk[d]
		if ntiles > (1<<31)/c {
			return fmt.Errorf("cas: manifest %q tiling %v/%v has too many tiles", m.Field, m.Shape, m.Chunk)
		}
		ntiles *= c
	}
	if len(m.Tiles) != ntiles {
		return fmt.Errorf("cas: manifest %q has %d tiles, tiling %v/%v implies %d",
			m.Field, len(m.Tiles), m.Shape, m.Chunk, ntiles)
	}
	for i := range m.Tiles {
		if m.Tiles[i].Size <= 0 {
			return fmt.Errorf("cas: manifest %q tile %d has invalid size %d", m.Field, i, m.Tiles[i].Size)
		}
	}
	return nil
}

// EncodeManifest serializes m, checksummed.
func EncodeManifest(m *Manifest) ([]byte, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	b := append([]byte(manifestMagic), manifestVersion, uint8(len(m.Shape)), m.Scalar, 0)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Field)))
	b = append(b, m.Field...)
	b = binary.LittleEndian.AppendUint32(b, uint32(m.T))
	for _, e := range m.Shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(e))
	}
	for _, e := range m.Chunk {
		b = binary.LittleEndian.AppendUint32(b, uint32(e))
	}
	b = le.AppendF64(b, m.ErrorBound)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Tiles)))
	for i := range m.Tiles {
		b = append(b, m.Tiles[i].Score[:]...)
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Tiles[i].Size))
	}
	sum := sha256.Sum256(b)
	return append(b, sum[:]...), nil
}

// DecodeManifest parses and verifies a manifest. It never panics on
// corrupt input and never returns a manifest that fails validate: any
// truncation, trailing garbage, checksum mismatch, or structural
// inconsistency is an error.
func DecodeManifest(raw []byte) (*Manifest, error) {
	if len(raw) < len(manifestMagic)+4+sha256.Size {
		return nil, errManifestCorrupt
	}
	body, sum := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if sha256.Sum256(body) != Score(sum) {
		return nil, fmt.Errorf("cas: manifest checksum mismatch")
	}
	r := le.NewReader(body, errManifestCorrupt)
	magic, version, rank, scalar, _ := r.Bytes(len(manifestMagic)), r.U8(), int(r.U8()), r.U8(), r.U8()
	if string(magic) != manifestMagic {
		return nil, fmt.Errorf("cas: bad manifest magic %q", magic)
	}
	if version != manifestVersion {
		return nil, fmt.Errorf("cas: unsupported manifest version %d", version)
	}
	if rank == 0 || rank > maxManifestRank {
		return nil, fmt.Errorf("cas: manifest rank %d out of range", rank)
	}
	m := &Manifest{Scalar: scalar, Shape: make([]int, rank), Chunk: make([]int, rank)}
	m.Field = string(r.Bytes(int(r.U16())))
	m.T = int(r.U32())
	for d := range m.Shape {
		m.Shape[d] = int(r.U32())
	}
	for d := range m.Chunk {
		m.Chunk[d] = int(r.U32())
	}
	m.ErrorBound = r.F64()
	// Bound the allocation by the bytes that could encode that many tiles:
	// a corrupt count must not OOM the reader.
	ntiles := int(r.U32())
	if !r.Fits(ntiles, tileRefSize) {
		return nil, errManifestCorrupt
	}
	m.Tiles = make([]TileRef, ntiles)
	for i := range m.Tiles {
		copy(m.Tiles[i].Score[:], r.Bytes(sha256.Size))
		m.Tiles[i].Size = int64(r.U64())
	}
	if r.Err != nil {
		return nil, r.Err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("cas: %d trailing bytes after manifest", r.Len())
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}
