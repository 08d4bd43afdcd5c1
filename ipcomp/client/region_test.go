package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/wire"
)

// step is what a caller can see of a region after one round of a chain.
type step struct {
	bits       []uint64
	fetched    int64
	guaranteed float64
	bound      float64
	token      string
}

func snapshot(reg *Region) step {
	data := reg.Data()
	bits := make([]uint64, len(data))
	for i, v := range data {
		bits[i] = math.Float64bits(v)
	}
	return step{bits, reg.FetchedBytes(), reg.GuaranteedError(), reg.Bound(), reg.Token()}
}

func (a step) equal(b step) bool {
	if len(a.bits) != len(b.bits) || a.fetched != b.fetched || a.guaranteed != b.guaranteed || a.bound != b.bound || a.token != b.token {
		return false
	}
	for i := range a.bits {
		if a.bits[i] != b.bits[i] {
			return false
		}
	}
	return true
}

// runChain fetches a box at bounds[0] and refines it through the rest, at
// the given GOMAXPROCS, checking every step against the source.
func runChain(t *testing.T, fx *fixture, procs int, lo, hi []int, bounds []float64, tiles int) []step {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ctx := context.Background()
	reg, err := fx.client(nil).Region(ctx, "field", lo, hi, bounds[0])
	if err != nil {
		t.Fatalf("Region(%v, %v, %g): %v", lo, hi, bounds[0], err)
	}
	if reg.Chunks() != tiles {
		t.Fatalf("box [%v, %v) is backed by %d tiles, want %d", lo, hi, reg.Chunks(), tiles)
	}
	var steps []step
	tightest := math.Inf(1)
	for i, b := range bounds {
		if i > 0 {
			if err := reg.Refine(ctx, b); err != nil {
				t.Fatalf("Refine(%g) after %v: %v", b, bounds[:i], err)
			}
		}
		if b == 0 {
			b = fx.eb
		}
		tightest = math.Min(tightest, b)
		if g := reg.GuaranteedError(); g > tightest {
			t.Fatalf("after %v: guaranteed error %g exceeds the bound asked for, %g", bounds[:i+1], g, tightest)
		}
		fx.check(t, reg, lo, hi)
		steps = append(steps, snapshot(reg))
	}
	return steps
}

// TestRegionProperty: random boxes — inside one tile, across 8, across all
// 27, and onto the clipped tiles at the field's edge — taken through random
// chains of up to four bounds, at both widths. Every step must lie within
// the error the region advertises, and values, guarantee, bound, token and
// bytes fetched must be the same, bit for bit, whether one worker decodes
// the tiles (GOMAXPROCS=1) or eight do.
func TestRegionProperty(t *testing.T) {
	shape, chunk := grid.Shape{40, 48, 48}, grid.Shape{16, 16, 16} // 3×3×3 tiles, the last along z clipped to 8
	ladder := []float64{4096, 1024, 256, 64, 16, 4, 1, 0}
	for _, f32 := range []bool{false, true} {
		rel := 1e-6
		if f32 {
			rel = 1e-5
		}
		fx := newFixture(t, f32, "Density", shape, chunk, rel, 64)
		rng := rand.New(rand.NewSource(42))
		// span draws [lo, hi) along one dimension covering exactly n
		// consecutive tiles, the first being tile t0.
		span := func(extent, t0, n int) (int, int) {
			first := t0 * 16
			last := min((t0+n)*16, extent) // end of the last tile
			lastStart := (t0 + n - 1) * 16
			lo := first + rng.Intn(min(16, last-first))
			if n == 1 {
				return lo, lo + 1 + rng.Intn(last-lo)
			}
			return lo, lastStart + 1 + rng.Intn(last-lastStart)
		}
		cases := []struct {
			name   string
			t0, n  [3]int
			tiles  int
			repeat int
		}{
			{"one tile", [3]int{1, 0, 2}, [3]int{1, 1, 1}, 1, 3},
			{"one clipped tile", [3]int{2, 1, 1}, [3]int{1, 1, 1}, 1, 2},
			{"8 tiles", [3]int{0, 1, 0}, [3]int{2, 2, 2}, 8, 3},
			{"8 tiles, clipped edge", [3]int{1, 0, 1}, [3]int{2, 2, 2}, 8, 2},
			{"27 tiles", [3]int{0, 0, 0}, [3]int{3, 3, 3}, 27, 3},
		}
		for _, tc := range cases {
			for r := 0; r < tc.repeat; r++ {
				lo, hi := make([]int, 3), make([]int, 3)
				for d := range lo {
					lo[d], hi[d] = span(shape[d], tc.t0[d], tc.n[d])
				}
				// A chain: up to four rungs, mostly tightening, now and then
				// a looser bound after a tighter one (a no-op round trip).
				var bounds []float64
				at := rng.Intn(3)
				for len(bounds) < 1+rng.Intn(4) && at < len(ladder) {
					bounds = append(bounds, ladder[at]*fx.eb)
					at += 1 + rng.Intn(3)
				}
				if len(bounds) > 1 && rng.Intn(4) == 0 {
					k := rng.Intn(len(bounds) - 1)
					bounds = append(bounds, bounds[k])
				}
				name := fmt.Sprintf("f32=%v/%s/%d", f32, tc.name, r)
				t.Run(name, func(t *testing.T) {
					checkNoLeak(t)
					wide := runChain(t, fx, 8, lo, hi, bounds, tc.tiles)
					serial := runChain(t, fx, 1, lo, hi, bounds, tc.tiles)
					for i := range wide {
						if !wide[i].equal(serial[i]) {
							t.Fatalf("box [%v, %v), step %d of %v: GOMAXPROCS=8 and GOMAXPROCS=1 differ (fetched %d vs %d, guaranteed %g vs %g)",
								lo, hi, i, bounds, wide[i].fetched, serial[i].fetched, wide[i].guaranteed, serial[i].guaranteed)
						}
					}
				})
			}
		}
	}
}

// planesBody is one planes response, parsed just far enough to find its
// frames: for forging and damaging responses at chosen places.
type planesBody struct {
	raw    []byte
	frames []frameAt
}

type frameAt struct {
	start, end int // the frame's bytes in raw
	index      int
	spans      []spanAt
}

type spanAt struct{ payload, len int } // offset of the payload in raw, its length

func parsePlanes(t testing.TB, raw []byte) planesBody {
	t.Helper()
	r := bytes.NewReader(raw)
	h, err := wire.ReadRegionHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	pb := planesBody{raw: raw}
	for i := 0; i < h.NumChunks; i++ {
		fr := frameAt{start: len(raw) - r.Len()}
		ch, err := wire.ReadChunkHeader(r, h.Rank)
		if err != nil {
			t.Fatal(err)
		}
		fr.index = ch.Index
		for s := 0; s < ch.NumSpans; s++ {
			sp, err := wire.ReadSpanHeader(r)
			if err != nil {
				t.Fatal(err)
			}
			fr.spans = append(fr.spans, spanAt{len(raw) - r.Len(), int(sp.Len)})
			if _, err := r.Seek(sp.Len, io.SeekCurrent); err != nil {
				t.Fatal(err)
			}
		}
		fr.end = len(raw) - r.Len()
		pb.frames = append(pb.frames, fr)
	}
	return pb
}

// setBody replaces a response's body, declaring the given length.
func setBody(resp *http.Response, body io.Reader, declared int64) {
	resp.Body = io.NopCloser(body)
	resp.ContentLength = declared
}

// TestForgedSpanLength: a 60-byte response whose only span claims 4 GiB.
// The client must refuse it by name before allocating anything of the
// kind, whether or not the response declares its length.
func TestForgedSpanLength(t *testing.T) {
	var forged bytes.Buffer
	lo, hi := []int{0, 0, 0}, []int{8, 8, 8}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(wire.WriteRegionHeader(&forged, &wire.RegionHeader{Scalar: 0, Rank: 3, Lo: lo, Hi: hi, Bound: 1, Guaranteed: 1, NumChunks: 1}))
	must(wire.WriteChunkHeader(&forged, &wire.ChunkHeader{Index: 5, Lo: lo, Hi: hi, BlobSize: 1 << 40, Keep: []int{1, 1, 1}, NumSpans: 1}))
	must(wire.WriteSpanHeader(&forged, wire.SpanHeader{Off: 0, Len: wire.MaxSpanLen}))
	forged.WriteString("short")

	for _, declared := range []bool{true, false} {
		rt := roundTripFunc(func(*http.Request) (*http.Response, error) {
			resp := &http.Response{StatusCode: 200, Header: http.Header{}}
			setBody(resp, bytes.NewReader(forged.Bytes()), -1)
			if declared {
				resp.ContentLength = int64(forged.Len())
			}
			return resp, nil
		})
		c := New("http://forged", WithHTTPClient(&http.Client{Transport: rt}))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.Region(context.Background(), "field", lo, hi, 1)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "chunk 5") {
			t.Errorf("declared=%v: error %v does not name chunk 5", declared, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("declared=%v: a %d-byte response made the client allocate %d bytes", declared, forged.Len(), grew)
		}
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// cancelAfter delivers a body and cancels a context once n bytes of it
// have been read — a caller giving up mid-body.
type cancelAfter struct {
	r      io.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Read(p []byte) (int, error) {
	if c.n <= 0 {
		c.cancel()
	} else if len(p) > c.n {
		p = p[:c.n]
	}
	n, err := c.r.Read(p)
	c.n -= n
	return n, err
}

// TestFetchFailures damages the response to a Refine in every way the
// wire can: cut short at and inside frames, a frame whose header is
// garbage, a tile whose planes do not decode, a context cancelled mid-body.
// Each time the Refine must fail with every worker stopped, the token and
// bound must be the previous ones, every value must still lie within the
// (now possibly mixed) guarantee the region advertises, and the same
// Refine, retried against the undamaged server, must succeed and end bit
// for bit where an undisturbed chain ends.
func TestFetchFailures(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	fx := newFixture(t, false, "Density", grid.Shape{40, 48, 48}, grid.Shape{16, 16, 16}, 1e-6, 64)
	lo, hi := []int{3, 2, 5}, []int{38, 47, 44} // all 27 tiles
	coarse, fine := 256*fx.eb, 4*fx.eb
	want := runChain(t, fx, 4, lo, hi, []float64{coarse, fine}, 27)[1]

	// The undamaged refine response, to place the damage by.
	var clean planesBody
	{
		c := fx.client(func(n int, resp *http.Response) {
			if n == 2 {
				raw, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				clean = parsePlanes(t, raw)
				setBody(resp, bytes.NewReader(raw), int64(len(raw)))
			}
		})
		reg, err := c.Region(context.Background(), "field", lo, hi, coarse)
		if err == nil {
			err = reg.Refine(context.Background(), fine)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(clean.frames) != 27 {
		t.Fatalf("refine response has %d frames, want 27", len(clean.frames))
	}
	mid := clean.frames[13]

	type damage struct {
		name string
		do   func(resp *http.Response, cancel context.CancelFunc)
		// errHas, when set, must appear in the error.
		errHas string
		// isErr, when set, must match the error.
		isErr error
	}
	cut := func(at int) func(*http.Response, context.CancelFunc) {
		return func(resp *http.Response, _ context.CancelFunc) {
			setBody(resp, bytes.NewReader(clean.raw[:at]), int64(len(clean.raw)))
		}
	}
	damaged := func(edit func(raw []byte)) func(*http.Response, context.CancelFunc) {
		return func(resp *http.Response, _ context.CancelFunc) {
			raw := bytes.Clone(clean.raw)
			edit(raw)
			setBody(resp, bytes.NewReader(raw), int64(len(raw)))
		}
	}
	cases := []damage{
		{name: "cut inside the region header", do: cut(10), errHas: "truncated"},
		{name: "cut at a frame boundary", do: cut(mid.start), errHas: "truncated"},
		{name: "cut inside a chunk header", do: cut(mid.start + 7), errHas: "truncated"},
		{name: "cut inside a payload", do: cut(mid.spans[0].payload + mid.spans[0].len/2), errHas: fmt.Sprintf("chunk %d", mid.index)},
		{name: "cut before the last frame", do: cut(clean.frames[26].start), errHas: "truncated"},
		{name: "undeclared length, cut inside a payload", do: func(resp *http.Response, _ context.CancelFunc) {
			setBody(resp, bytes.NewReader(clean.raw[:mid.spans[0].payload+1]), -1)
		}, errHas: fmt.Sprintf("chunk %d", mid.index)},
		{name: "garbage chunk header", do: damaged(func(raw []byte) {
			for i := mid.start; i < mid.start+16; i++ {
				raw[i] = 0xA5
			}
		})},
		{name: "a frame sent twice", do: func(resp *http.Response, _ context.CancelFunc) {
			// The frame before mid again in mid's place; same length only
			// by luck, so rebuild the body around it.
			prev := clean.frames[12]
			raw := append(bytes.Clone(clean.raw[:mid.start]), clean.raw[prev.start:prev.end]...)
			raw = append(raw, clean.raw[mid.end:]...)
			setBody(resp, bytes.NewReader(raw), int64(len(raw)))
		}, errHas: "twice"},
		{name: "planes that do not decode", do: damaged(func(raw []byte) {
			// The first byte of a span is a block's method tag.
			raw[mid.spans[0].payload] = 0xFF
		}), errHas: fmt.Sprintf("chunk %d", mid.index)},
		{name: "context cancelled mid-body", do: func(resp *http.Response, cancel context.CancelFunc) {
			setBody(resp, &cancelAfter{r: bytes.NewReader(clean.raw), n: mid.start + 3, cancel: cancel}, int64(len(clean.raw)))
		}, isErr: context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkNoLeak(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c := fx.client(func(n int, resp *http.Response) {
				if n == 2 {
					tc.do(resp, cancel)
				}
			})
			reg, err := c.Region(ctx, "field", lo, hi, coarse)
			if err != nil {
				t.Fatal(err)
			}
			before := snapshot(reg)
			err = reg.Refine(ctx, fine)
			if err == nil {
				t.Fatal("the damaged Refine succeeded")
			}
			if tc.errHas != "" && !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("error %q does not mention %q", err, tc.errHas)
			}
			if tc.isErr != nil && !errors.Is(err, tc.isErr) {
				t.Errorf("error %q is not %v", err, tc.isErr)
			}
			if reg.Token() != before.token || reg.Bound() != before.bound {
				t.Errorf("a failed Refine published token %q / bound %g (were %q / %g)", reg.Token(), reg.Bound(), before.token, before.bound)
			}
			if reg.Chunks() != 27 {
				t.Errorf("region is backed by %d tiles after the failure, want 27", reg.Chunks())
			}
			if g := reg.GuaranteedError(); g > before.guaranteed {
				t.Errorf("guarantee loosened from %g to %g", before.guaranteed, g)
			}
			fx.check(t, reg, lo, hi)

			if err := reg.Refine(context.Background(), fine); err != nil {
				t.Fatalf("retry: %v", err)
			}
			fx.check(t, reg, lo, hi)
			got := snapshot(reg)
			got.fetched = want.fetched // the failed attempt's bytes count too
			if !got.equal(want) {
				t.Errorf("the retried chain does not end where an undisturbed one does (guaranteed %g vs %g)", got.guaranteed, want.guaranteed)
			}
		})
	}
}

// TestCancelOverHTTP is the cancellation case against a real server and
// transport: the handler stalls mid-body, the caller cancels, and Refine
// must come back with the context's error and nothing left running.
func TestCancelOverHTTP(t *testing.T) {
	checkNoLeak(t)
	fx := newFixture(t, false, "Density", grid.Shape{32, 32, 32}, grid.Shape{16, 16, 16}, 1e-6, 64)
	stall, release := make(chan struct{}), make(chan struct{})
	requests := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		if requests != 2 {
			fx.h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		fx.h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		close(stall)
		<-release
	}))
	defer ts.Close()
	defer close(release)

	lo, hi := []int{0, 0, 0}, []int{32, 32, 32}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	reg, err := New(ts.URL, WithHTTPClient(hc)).Region(ctx, "field", lo, hi, 256*fx.eb)
	if err != nil {
		t.Fatal(err)
	}
	before := snapshot(reg)
	go func() {
		<-stall
		cancel()
	}()
	err = reg.Refine(ctx, 4*fx.eb)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Refine returned %v, want context.Canceled", err)
	}
	if reg.Token() != before.token || reg.Bound() != before.bound {
		t.Errorf("a cancelled Refine published token %q / bound %g", reg.Token(), reg.Bound())
	}
	fx.check(t, reg, lo, hi)
}

// planesResponse captures the body of one real planes response.
func planesResponse(tb testing.TB, fx *fixture, query string) []byte {
	tb.Helper()
	rec := httptest.NewRecorder()
	fx.h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/datasets/field/region?format=planes&"+query, nil))
	if rec.Code != 200 {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// FuzzClientRegion runs the real Region and a Refine against mutations of
// captured planes responses. Whatever the bytes, the client must not
// panic, must not allocate out of proportion to what it was sent (every
// length a frame declares is checked against the body before it is
// believed), and must not leave a goroutine behind; when both rounds
// succeed, the region must honour the guarantee it advertises only if the
// bytes were the server's own.
func FuzzClientRegion(f *testing.F) {
	fx := newFixture(f, false, "Density", grid.Shape{16, 24, 24}, grid.Shape{16, 16, 16}, 1e-4, 64)
	lo, hi := []int{0, 0, 0}, []int{16, 24, 24}
	fresh := planesResponse(f, fx, "lo=0,0,0&hi=16,24,24&bound="+fmt.Sprint(64*fx.eb))
	// The refine response needs the token of the fresh one.
	var delta []byte
	{
		c := fx.client(func(n int, resp *http.Response) {
			if n == 2 {
				delta, _ = io.ReadAll(resp.Body)
				setBody(resp, bytes.NewReader(delta), int64(len(delta)))
			}
		})
		reg, err := c.Region(context.Background(), "field", lo, hi, 64*fx.eb)
		if err == nil {
			err = reg.Refine(context.Background(), fx.eb)
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(fresh, delta, true)
	f.Add(fresh, delta, false)
	f.Add(fresh[:len(fresh)/2], delta, true)
	f.Add(fresh, delta[:len(delta)/3], false)
	huge := bytes.Clone(fresh)
	// The first span's length field, forged to 4 GiB.
	binary.LittleEndian.PutUint32(huge[parsePlanes(f, fresh).frames[0].spans[0].payload-4:], math.MaxUint32)
	f.Add(huge, delta, true)

	f.Fuzz(func(t *testing.T, first, second []byte, declared bool) {
		checkNoLeak(t)
		bodies := [][]byte{first, second}
		rt := roundTripFunc(func(*http.Request) (*http.Response, error) {
			resp := &http.Response{StatusCode: 200, Header: http.Header{"X-Ipcomp-Token": {"t"}}}
			body := bodies[0]
			bodies = bodies[1:]
			setBody(resp, bytes.NewReader(body), -1)
			if declared {
				resp.ContentLength = int64(len(body))
			}
			return resp, nil
		})
		c := New("http://fuzz", WithHTTPClient(&http.Client{Transport: rt}))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reg, err := c.Region(context.Background(), "field", lo, hi, 64*fx.eb)
		if err == nil {
			err = reg.Refine(context.Background(), fx.eb)
		}
		runtime.ReadMemStats(&after)
		// The whole field decodes into well under a megabyte; 64 MiB is
		// out of all proportion to any mutation of a 30 KB response.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Fatalf("responses of %d and %d bytes made the client allocate %d bytes", len(first), len(second), grew)
		}
		if err == nil && bytes.Equal(first, fresh) && bytes.Equal(second, delta) {
			fx.check(t, reg, lo, hi)
		}
	})
}
