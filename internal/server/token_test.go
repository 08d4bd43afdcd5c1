package server

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/store"
)

// FuzzRefineToken feeds arbitrary refine tokens to decodeToken, both as
// the text a client sends and as raw token bytes, which the fuzzer can
// mutate field by field. An input either errors or decodes to a token
// with a finite, positive bound that survives encode → decode unchanged.
// A decoded token's bound then reaches PlanRegion the way a refine
// request hands it over — as the bound the client claims to hold — on a
// small store whose tiles have three progressive levels, at both scalar
// widths: planning returns a plan within its bound or an error, and never
// panics.
func FuzzRefineToken(f *testing.F) {
	g, err := datagen.GenerateShape("Density", grid.Shape{32, 32, 32})
	if err != nil {
		f.Fatal(err)
	}
	eb := 1e-6 * g.ValueRange()
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	opt := store.WriteOptions{ErrorBound: eb, ChunkShape: grid.Shape{16, 16, 16}, ProgressiveThreshold: 8}
	if err := store.Add(w, "field", g, opt); err != nil {
		f.Fatal(err)
	}
	opt.ErrorBound = 1e-4 * g.ValueRange()
	if err := store.Add(w, "field32", grid.Narrow(g), opt); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	st, err := store.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		f.Fatal(err)
	}

	lo, hi := []int{0, 0, 0}, []int{32, 32, 32}
	for _, seed := range []token{
		{dataset: "field", lo: lo, hi: hi, bound: 256 * eb},
		{dataset: "field", lo: []int{8, 0, 16}, hi: []int{24, 32, 32}, bound: eb},
		{dataset: "field32", lo: lo, hi: hi, bound: 3e-2 * g.ValueRange()},
		{dataset: "field", lo: lo, hi: hi, bound: eb / 2},
		{dataset: "field", lo: lo, hi: hi, bound: math.MaxFloat64},
		{dataset: "field", lo: lo, hi: hi, bound: math.SmallestNonzeroFloat64},
		{dataset: "nope", lo: []int{0}, hi: []int{1 << 31}, bound: 1},
	} {
		raw, err := tokenEncoding.DecodeString(seed.encode())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte("not a token"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range []string{string(data), tokenEncoding.EncodeToString(data)} {
			tok, err := decodeToken(s)
			if err != nil {
				continue
			}
			if !(tok.bound > 0) || math.IsInf(tok.bound, 0) {
				t.Fatalf("decoded a token with bound %g", tok.bound)
			}
			back, err := decodeToken(tok.encode())
			if err != nil {
				t.Fatalf("re-encoded token does not decode: %v", err)
			}
			if !reflect.DeepEqual(back, tok) {
				t.Fatalf("token %+v came back as %+v", tok, back)
			}
			type req struct {
				name   string
				lo, hi []int
				bound  float64
				have   float64
			}
			reqs := []req{{tok.dataset, tok.lo, tok.hi, 0, tok.bound}}
			for _, name := range []string{"field", "field32"} {
				reqs = append(reqs,
					req{name, lo, hi, 0, tok.bound},
					req{name, lo, hi, tok.bound, 0},
					req{name, lo, hi, 16 * tok.bound, tok.bound})
			}
			for _, r := range reqs {
				rp, err := st.PlanRegion(r.name, r.lo, r.hi, r.bound, r.have)
				if err != nil {
					continue
				}
				if !(rp.Guaranteed <= rp.Bound) {
					t.Fatalf("PlanRegion(%q, %v, %v, %g, %g) guarantees %g above its bound %g",
						r.name, r.lo, r.hi, r.bound, r.have, rp.Guaranteed, rp.Bound)
				}
			}
		}
	})
}

// TestTokenBytesPinned pins the text token.encode produces at rank 1 and
// rank 4.
func TestTokenBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		tok  token
		want string
	}{
		{token{dataset: "field", lo: []int{3}, hi: []int{1 << 20}, bound: 1e-3}, "AQEFAGZpZWxkAwAAAAAAEAD8qfHSTWJQPw"},
		{token{dataset: "density@t2", lo: []int{0, 16, 32, 48}, hi: []int{64, 80, 96, 112}, bound: 2.5e-7}, "AQQKAGRlbnNpdHlAdDIAAAAAEAAAACAAAAAwAAAAQAAAAFAAAABgAAAAcAAAAI3ttaD3xpA-"},
	} {
		if got := tc.tok.encode(); got != tc.want {
			t.Errorf("rank-%d token drifted:\n got  %s\n want %s", len(tc.tok.lo), got, tc.want)
		}
	}
}
