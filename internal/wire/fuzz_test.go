package wire_test

import (
	"bytes"
	"io"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
)

// consumeFrames walks a planes response the way ipcomp/client does —
// region header, then chunk frames, then span headers with payloads —
// stopping at the first error. Payloads are discarded rather than
// buffered so a forged multi-gigabyte span length cannot allocate.
func consumeFrames(r io.Reader) error {
	h, err := wire.ReadRegionHeader(r)
	if err != nil {
		return err
	}
	for i := 0; i < h.NumChunks; i++ {
		ch, err := wire.ReadChunkHeader(r, h.Rank)
		if err != nil {
			return err
		}
		for s := 0; s < ch.NumSpans; s++ {
			sp, err := wire.ReadSpanHeader(r)
			if err != nil {
				return err
			}
			if _, err := io.CopyN(io.Discard, r, sp.Len); err != nil {
				return err
			}
		}
	}
	return nil
}

// realPlanesResponse packs a small container, serves it with the real
// handler, and captures an actual planes response body — the corpus seed
// the fuzzer mutates from.
var realPlanesResponse = sync.OnceValues(func() ([]byte, error) {
	g, err := datagen.GenerateShape("Density", grid.Shape{16, 24, 24})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	if err := store.Add(w, "d", g, store.WriteOptions{
		ErrorBound: 1e-4 * g.ValueRange(), ChunkShape: grid.Shape{16, 16, 16},
	}); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	st, err := store.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return nil, err
	}
	srv := server.New()
	if err := srv.AddStore("c.ipcs", st); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/datasets/d/region?lo=0,0,0&hi=16,24,24&format=planes")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
})

// FuzzFrame feeds mutated planes responses to the frame parser: malformed
// magic, ranks, lengths, and truncations must all surface as errors,
// never as panics or unbounded allocations.
func FuzzFrame(f *testing.F) {
	seed, err := realPlanesResponse()
	if err != nil {
		f.Fatal(err)
	}
	if err := consumeFrames(bytes.NewReader(seed)); err != nil {
		f.Fatalf("real planes response does not parse: %v", err)
	}
	f.Add(seed)
	// Truncations at every interesting boundary: inside the region header,
	// at the first chunk frame, mid span header, mid payload.
	for _, n := range []int{0, 1, 3, 4, 5, 8, 16, 40, 41, 60, 100} {
		if n < len(seed) {
			f.Add(seed[:n])
		}
	}
	// A few targeted corruptions (bad magic, absurd rank, flipped length).
	for _, idx := range []int{0, 5, 6, 40} {
		if idx < len(seed) {
			mut := bytes.Clone(seed)
			mut[idx] ^= 0xFF
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		consumeFrames(bytes.NewReader(data)) // must not panic
	})
}

// TestFrameSeedRoundTrip keeps the seed generation honest in plain `go
// test` runs (the fuzz engine only runs seeds under -fuzz).
func TestFrameSeedRoundTrip(t *testing.T) {
	seed, err := realPlanesResponse()
	if err != nil {
		t.Fatal(err)
	}
	if err := consumeFrames(bytes.NewReader(seed)); err != nil {
		t.Fatalf("captured planes response does not parse: %v", err)
	}
	if err := consumeFrames(bytes.NewReader(seed[:len(seed)-1])); err == nil {
		t.Error("truncated response parsed cleanly")
	}
}
