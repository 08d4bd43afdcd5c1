package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"testing"

	"repro/internal/cas"
	"repro/internal/grid"
)

// FuzzOpenContainer feeds mutated containers to Open, which reads only the
// preamble, the footer and the tail index. Whatever the bytes, Open must
// not panic and must not allocate out of proportion to the input (every
// count in the index is checked against the bytes that could encode it
// before anything is sized by it). A container it accepts has every chunk
// record inside the container, between the preamble and the index, and
// each dataset name once.
func FuzzOpenContainer(f *testing.F) {
	g := testField(f, grid.Shape{8, 8, 8})
	chunk := grid.Shape{4, 4, 4} // 8 tiles, so the index is a fair share of the bytes
	eb := 1e-4 * g.ValueRange()
	packed := packOne(f, g, eb, chunk)
	// A float32 dataset beside it makes the index version 2.
	var mixed bytes.Buffer
	w, err := NewWriter(&mixed)
	if err != nil {
		f.Fatal(err)
	}
	if err := Add(w, "wide", g, WriteOptions{ErrorBound: eb, ChunkShape: chunk}); err != nil {
		f.Fatal(err)
	}
	if err := Add(w, "thin", testField32(f, grid.Shape{4, 8, 4}), WriteOptions{ErrorBound: 1e-3, ChunkShape: chunk}); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile("testdata/v1_container.ipcs")
	if err != nil {
		f.Fatal(err)
	}
	c, err := cas.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	m, _, err := PackSnapshot(c, "density", g, WriteOptions{ErrorBound: eb, ChunkShape: chunk})
	if err != nil {
		f.Fatal(err)
	}
	snap, err := snapshotContainer(c, m)
	if err != nil {
		f.Fatal(err)
	}
	image := make([]byte, snap.size)
	if _, err := snap.ReadAt(image, 0); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{packed, mixed.Bytes(), v1, image} {
		f.Add(seed)
		// Open never reads a chunk, so the same index over one-byte
		// chunks keeps mutations on the bytes Open parses.
		small := indexOnly(f, seed)
		f.Add(small)
		indexOff, _, version, err := unmarshalFooter(small[len(small)-footerSize:])
		if err != nil {
			f.Fatal(err)
		}
		// A hostile dataset count, and a first chunk pushed onto the index.
		huge := bytes.Clone(small)
		binary.LittleEndian.PutUint32(huge[indexOff:], 1<<31)
		f.Add(huge)
		past := bytes.Clone(small)
		nameLen := int64(binary.LittleEndian.Uint16(past[indexOff+4:]))
		rank := int64(past[indexOff+6+nameLen])
		firstChunk := indexOff + 6 + nameLen + 1 + 8*rank + 8 + 4 // rank, shape, chunk, eb, count
		if version >= Version {
			firstChunk++ // the scalar byte
		}
		binary.LittleEndian.PutUint64(past[firstChunk:], uint64(indexOff))
		f.Add(past)
	}
	// Two datasets under one name.
	f.Add(bytes.Replace(indexOnly(f, mixed.Bytes()), []byte("thin"), []byte("wide"), 1))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(bytes.NewReader(raw), int64(len(raw)))
		runtime.ReadMemStats(&after)
		// The parsed index is a few Go structures per record: a constant
		// factor of the input, plus the empty store and its tile cache.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(raw))+64<<10 {
			t.Fatalf("a %d-byte container made Open allocate %d bytes", len(raw), grew)
		}
		if err != nil {
			return
		}
		indexOff, _, _, err := unmarshalFooter(raw[len(raw)-footerSize:])
		if err != nil {
			t.Fatalf("Open accepted a container whose footer does not parse: %v", err)
		}
		seen := make(map[string]bool)
		for _, info := range s.Datasets() {
			if seen[info.Name] {
				t.Fatalf("dataset %q is listed twice", info.Name)
			}
			seen[info.Name] = true
			for i, rec := range s.datasets[info.Name].chunks {
				if rec.off < preambleSize || rec.size <= 0 || rec.size > indexOff-rec.off {
					t.Fatalf("dataset %q chunk %d at [%d,%d) is outside [%d,%d)", info.Name, i, rec.off, rec.off+rec.size, preambleSize, indexOff)
				}
			}
		}
	})
}

// indexOnly rewrites a container with every chunk cut to one byte: the
// same datasets and index version, a fraction of the size.
func indexOnly(t testing.TB, container []byte) []byte {
	t.Helper()
	s, err := Open(bytes.NewReader(container), int64(len(container)))
	if err != nil {
		t.Fatal(err)
	}
	_, _, version, err := unmarshalFooter(container[len(container)-footerSize:])
	if err != nil {
		t.Fatal(err)
	}
	out := marshalPreamble()
	var metas []*datasetMeta
	for _, name := range s.order {
		ds := s.datasets[name]
		for i := range ds.chunks {
			ds.chunks[i].off, ds.chunks[i].size = int64(len(out)), 1
			out = append(out, 0)
		}
		metas = append(metas, ds)
	}
	index := marshalIndex(metas, version)
	out = append(out, index...)
	return append(out, marshalFooter(int64(len(out)-len(index)), int64(len(index)), version)...)
}
