package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/interp"
)

// goldenDigests pins the exact archive bytes produced for fixed-seed
// datasets. They were captured from the pre-refactor (PR 1) serial coder;
// the batched parallel engine must reproduce them bit for bit, on any
// GOMAXPROCS. Regenerate with UPDATE_GOLDEN=1 go test -run TestGoldenArchives
// -v (only legitimate after a deliberate format change).
var goldenDigests = map[string]string{
	"1Dx257/linear":       "a5043daa01a3e99e5806d81c761a10048fec04f6d596700230bc637bf92922ff",
	"1Dx257/cubic":        "5cf691ac9e760d03849a1f9b4409d944c190399664fa8e1da47deb66a62042aa",
	"2Dx33x29/linear":     "d35281105060834184814128c25ae7c3e6fcc99fd22cfdc19d4411571cd0cb54",
	"2Dx33x29/cubic":      "35302c370e25b16378b7047032dca7d39892024b3b0b5dd4af5fcc4364f09854",
	"3Dx17x19x23/linear":  "88c40968ae37bf9bda847bba7d521060f83f349985ce2c6cf797721dadff3eac",
	"3Dx17x19x23/cubic":   "8629b7d5d4232020612a8d0462b7b421a00bb00ff0101f4e375361714785c1d3",
	"4Dx7x9x11x13/linear": "1e40a3ac24a356779b83d907bc1409bd78143c70f30941002291a40710000a69",
	"4Dx7x9x11x13/cubic":  "ffb499d1f617a0c6543eb0f474206eb44947b8a6d339fa2eb25c72020d2ce5e7",
}

// goldenField builds a deterministic dataset: a smooth multi-frequency
// surface plus PRNG noise, with a handful of huge spikes that overflow the
// quantizer's negabinary window and exercise the outlier path.
func goldenField(t testing.TB, shape grid.Shape) *grid.Grid[float64] {
	t.Helper()
	g, err := grid.New[float64](shape)
	if err != nil {
		t.Fatal(err)
	}
	data := g.Data()
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		// splitmix64: stable across Go releases, unlike math/rand streams.
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		return float64(z>>11) / float64(1<<53) // uniform [0,1)
	}
	strides := shape.Strides()
	for i := range data {
		smooth := 0.0
		rem := i
		for d, st := range strides {
			c := rem / st
			rem %= st
			x := float64(c) / float64(shape[d])
			smooth += float64(d+1) * (x*x - 0.5*x)
		}
		data[i] = smooth + 1e-3*next()
	}
	// Spikes every 97th point: residuals of ~1e9 against an eb of 1e-6
	// exceed nb.MaxIndex quantization steps, forcing outlier escapes.
	for i := 3; i < len(data); i += 97 {
		data[i] += 1e9 * (next() - 0.5)
	}
	return g
}

func goldenCases() []struct {
	name  string
	shape grid.Shape
	kind  interp.Kind
} {
	shapes := []struct {
		tag   string
		shape grid.Shape
	}{
		{"1Dx257", grid.Shape{257}},
		{"2Dx33x29", grid.Shape{33, 29}},
		{"3Dx17x19x23", grid.Shape{17, 19, 23}},
		{"4Dx7x9x11x13", grid.Shape{7, 9, 11, 13}},
	}
	var out []struct {
		name  string
		shape grid.Shape
		kind  interp.Kind
	}
	for _, s := range shapes {
		for _, k := range []interp.Kind{interp.Linear, interp.Cubic} {
			out = append(out, struct {
				name  string
				shape grid.Shape
				kind  interp.Kind
			}{fmt.Sprintf("%s/%s", s.tag, k), s.shape, k})
		}
	}
	return out
}

// TestGoldenArchives asserts the coder's output is byte-identical to the
// pre-refactor serial implementation for every golden dataset, and that the
// outlier path is actually exercised (otherwise the fixture is too tame to
// pin anything).
func TestGoldenArchives(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := goldenField(t, tc.shape)
			blob, err := Compress(g, Options{ErrorBound: 1e-6, Interpolation: tc.kind})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			got := hex.EncodeToString(sum[:])
			if update {
				t.Logf("golden %q: %s", tc.name, got)
			}
			want, ok := goldenDigests[tc.name]
			if !ok {
				t.Fatalf("no golden digest recorded for %q (got %s)", tc.name, got)
			}
			if got != want && !update {
				t.Fatalf("archive digest drifted:\n got  %s\n want %s", got, want)
			}
			// The blob must decode within bound, and the fixture must have
			// tripped the outlier path at least once.
			a, err := NewArchive(blob)
			if err != nil {
				t.Fatal(err)
			}
			outliers := 0
			for l := 1; l <= a.h.levels; l++ {
				outliers += len(a.h.metaOf(l).outlierIdx)
			}
			if outliers == 0 {
				t.Fatalf("golden dataset produced no outliers; fixture too tame")
			}
			res, err := a.RetrieveAll()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range res.Data() {
				if d := v - g.Data()[i]; d > 1e-6 || d < -1e-6 {
					t.Fatalf("point %d off by %g", i, d)
				}
			}
		})
	}
}

// TestGoldenParallelDeterminism asserts that the engine's output does not
// depend on scheduling: a GOMAXPROCS=1 run must produce the same bytes as
// a run with the worker pool forced wide (8 exceeds the shard minimum even
// on single-core CI hosts, so goroutines really interleave).
func TestGoldenParallelDeterminism(t *testing.T) {
	compressAt := func(g *grid.Grid[float64], kind interp.Kind, procs int) []byte {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		blob, err := Compress(g, Options{ErrorBound: 1e-6, Interpolation: kind})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	cases := goldenCases()
	// The pinned shapes are small; add one large enough that every pass
	// really splits into multiple shards (finest level ≈ 130k targets).
	cases = append(cases, struct {
		name  string
		shape grid.Shape
		kind  interp.Kind
	}{"3Dx70x66x58/cubic", grid.Shape{70, 66, 58}, interp.Cubic})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := goldenField(t, tc.shape)
			par := compressAt(g, tc.kind, 8)
			ser := compressAt(g, tc.kind, 1)
			if !bytes.Equal(par, ser) {
				t.Fatalf("parallel and GOMAXPROCS=1 archives differ (%d vs %d bytes)", len(par), len(ser))
			}
			// Decompression must agree exactly as well, wide or narrow.
			decompressAt := func(procs int) []float64 {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				out, err := decompress(par)
				if err != nil {
					t.Fatal(err)
				}
				return out.Data()
			}
			wide, narrow := decompressAt(8), decompressAt(1)
			for i := range wide {
				if wide[i] != narrow[i] {
					t.Fatalf("decompression differs at %d: %v vs %v", i, wide[i], narrow[i])
				}
			}
		})
	}
}
