package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/le"
)

// Magic identifies IPComp store containers ("IPCS" little-endian).
const Magic = 0x53435049

// Container format versions. Version 2 adds a scalar-type byte to every
// dataset index entry, so a container can mix float32 and float64 datasets;
// chunk blobs are ordinary IPComp archives at the dataset's width.
//
// The preamble always carries version 1 — the framing (preamble, chunk
// blobs, tail index, footer) is unchanged by v2 — and the footer, written
// at Close when every dataset's width is known, carries the version that
// governs the index: 1 when all datasets are float64 (byte-identical to
// pre-v2 output, so old readers keep working), 2 as soon as any dataset is
// float32. The reader accepts both and parses the index by the footer
// version.
const (
	// Version1 is the original float64-only container format.
	Version1 = 1
	// Version is the current container format.
	Version = 2
)

const (
	preambleSize = 8
	footerSize   = 24
	maxNameLen   = 1<<16 - 1
)

// chunkRecord locates one compressed tile inside the container.
type chunkRecord struct {
	off    int64 // absolute byte offset of the chunk's IPComp archive
	size   int64 // archive length in bytes
	lo, hi []int // region covered, [lo, hi) in dataset coordinates
	maxErr float64
}

// datasetMeta is one named dataset's index entry.
type datasetMeta struct {
	name   string
	shape  grid.Shape
	chunk  grid.Shape      // nominal chunk shape
	scalar core.ScalarType // element type of every chunk archive
	eb     float64         // compression-time absolute error bound
	til    *tiling
	chunks []chunkRecord // row-major chunk order, len == til.n
}

// compressedBytes sums the dataset's chunk blob sizes.
func (ds *datasetMeta) compressedBytes() int64 {
	var total int64
	for i := range ds.chunks {
		total += ds.chunks[i].size
	}
	return total
}

func marshalPreamble() []byte {
	p := binary.LittleEndian.AppendUint32(make([]byte, 0, preambleSize), Magic)
	// The framing version; the index version lives in the footer.
	return append(p, Version1, 0, 0, 0)
}

func checkPreamble(p []byte) error {
	r := le.NewReader(p, errCorrupt)
	magic, version, _ := r.U32(), r.U8(), r.Bytes(3) // 3 reserved bytes
	if r.Err != nil {
		return r.Err
	}
	if magic != Magic {
		return fmt.Errorf("store: bad container magic %#x", magic)
	}
	if version != Version1 && version != Version {
		return fmt.Errorf("store: unsupported container version %d", version)
	}
	return nil
}

func marshalFooter(indexOff, indexSize int64, version uint8) []byte {
	f := binary.LittleEndian.AppendUint64(make([]byte, 0, footerSize), uint64(indexOff))
	f = binary.LittleEndian.AppendUint64(f, uint64(indexSize))
	f = binary.LittleEndian.AppendUint32(f, Magic)
	return append(f, version, 0, 0, 0)
}

// unmarshalFooter returns the index extent and the container version that
// governs how the index is parsed.
func unmarshalFooter(f []byte) (indexOff, indexSize int64, version uint8, err error) {
	if len(f) != footerSize {
		return 0, 0, 0, errCorrupt
	}
	r := le.NewReader(f, errCorrupt)
	indexOff, indexSize = int64(r.U64()), int64(r.U64())
	if magic := r.U32(); magic != Magic {
		return 0, 0, 0, fmt.Errorf("store: bad footer magic %#x", magic)
	}
	if version = r.U8(); version != Version1 && version != Version {
		return 0, 0, 0, fmt.Errorf("store: unsupported container version %d", version)
	}
	return indexOff, indexSize, version, nil
}

var errCorrupt = errors.New("store: corrupt container")

// indexVersion returns the lowest container version able to represent the
// datasets: v1 unless a non-float64 dataset needs the scalar byte.
func indexVersion(datasets []*datasetMeta) uint8 {
	for _, ds := range datasets {
		if ds.scalar != core.Float64 {
			return Version
		}
	}
	return Version1
}

func marshalIndex(datasets []*datasetMeta, version uint8) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(datasets)))
	for _, ds := range datasets {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(ds.name)))
		b = append(b, ds.name...)
		b = append(b, uint8(len(ds.shape)))
		if version >= Version {
			b = append(b, uint8(ds.scalar)) // element type of this dataset's chunks
		}
		for _, e := range ds.shape {
			b = binary.LittleEndian.AppendUint32(b, uint32(e))
		}
		for _, e := range ds.chunk {
			b = binary.LittleEndian.AppendUint32(b, uint32(e))
		}
		b = le.AppendF64(b, ds.eb)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ds.chunks)))
		for i := range ds.chunks {
			c := &ds.chunks[i]
			b = binary.LittleEndian.AppendUint64(b, uint64(c.off))
			b = binary.LittleEndian.AppendUint64(b, uint64(c.size))
			for d := range ds.shape {
				b = binary.LittleEndian.AppendUint32(b, uint32(c.lo[d]))
				b = binary.LittleEndian.AppendUint32(b, uint32(c.hi[d]-c.lo[d]))
			}
			b = le.AppendF64(b, c.maxErr)
		}
	}
	return b
}

func unmarshalIndex(raw []byte, containerSize int64, version uint8) ([]*datasetMeta, error) {
	r := le.NewReader(raw, errCorrupt)
	nds := int(r.U32())
	// Every count below sizes an allocation, so bound it by the bytes that
	// could possibly encode that many records before calling make():
	// otherwise a tiny corrupt container could declare 2^32 entries and
	// OOM the reader. 23 bytes is the minimum dataset record (empty name,
	// rank 1, no chunks); 32 the minimum chunk record (rank 1).
	const minDatasetRecord, minChunkRecord = 23, 32
	if !r.Fits(nds, minDatasetRecord) {
		return nil, errCorrupt
	}
	datasets := make([]*datasetMeta, 0, nds)
	for range nds {
		nameB := r.Bytes(int(r.U16()))
		rank := int(r.U8())
		scalar := core.Float64 // v1 containers are float64 throughout
		if version >= Version {
			scalar = core.ScalarType(r.U8())
		}
		if r.Err != nil {
			return nil, r.Err
		}
		if rank == 0 || rank > grid.MaxDims {
			return nil, fmt.Errorf("store: dataset %q has invalid rank %d", nameB, rank)
		}
		if scalar != core.Float64 && scalar != core.Float32 {
			return nil, fmt.Errorf("store: dataset %q has unknown scalar type %d", nameB, scalar)
		}
		ds := &datasetMeta{
			name:   string(nameB),
			shape:  make(grid.Shape, rank),
			chunk:  make(grid.Shape, rank),
			scalar: scalar,
		}
		for d := range ds.shape {
			ds.shape[d] = int(r.U32())
		}
		for d := range ds.chunk {
			ds.chunk[d] = int(r.U32())
		}
		ds.eb = r.F64()
		if r.Err != nil {
			return nil, r.Err
		}
		var err error
		if ds.til, err = newTiling(ds.shape, ds.chunk); err != nil {
			return nil, err
		}
		nchunks := int(r.U32())
		if !r.Fits(nchunks, minChunkRecord) {
			return nil, errCorrupt
		}
		if nchunks != ds.til.n {
			return nil, fmt.Errorf("store: dataset %q has %d chunks, tiling %v/%v implies %d",
				ds.name, nchunks, ds.shape, ds.chunk, ds.til.n)
		}
		ds.chunks = make([]chunkRecord, nchunks)
		for i := range ds.chunks {
			c := &ds.chunks[i]
			c.off, c.size = int64(r.U64()), int64(r.U64())
			c.lo, c.hi = make([]int, rank), make([]int, rank)
			for d := range rank {
				c.lo[d] = int(r.U32())
				c.hi[d] = c.lo[d] + int(r.U32())
			}
			c.maxErr = r.F64()
			if r.Err != nil {
				return nil, r.Err
			}
			// Subtraction, not c.off+c.size: crafted extents near 2^63
			// would overflow the addition and pass the bound check.
			if c.off < preambleSize || c.off > containerSize || c.size <= 0 || c.size > containerSize-c.off {
				return nil, fmt.Errorf("store: dataset %q chunk %d extent [%d,%d) outside container of %d bytes",
					ds.name, i, c.off, c.off+c.size, containerSize)
			}
			wantLo, wantHi := ds.til.box(i)
			for d := range rank {
				if c.lo[d] != wantLo[d] || c.hi[d] != wantHi[d] {
					return nil, fmt.Errorf("store: dataset %q chunk %d covers [%v,%v), tiling implies [%v,%v)",
						ds.name, i, c.lo, c.hi, wantLo, wantHi)
				}
			}
		}
		datasets = append(datasets, ds)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after index", r.Len())
	}
	return datasets, nil
}
