package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/interp"
)

// FuzzKernelDispatch compresses a random field down the AVX2 kernels and
// down the generic loops and wants byte-equal archives, then retrieves
// random plans of it both ways and wants bit-equal values. The field has
// rank 1 to 4 and extents 1 to 70, odd ones and ones under 8 included —
// level-1 rows shorter than a vector group — at either width with either
// interpolation, and carries planted outliers, NaN and ±Inf. Without AVX2
// the generic path is compared with itself.
func FuzzKernelDispatch(f *testing.F) {
	// The field's rank is one more than rank modulo 4, each extent one
	// more than its byte modulo 70.
	f.Add(int64(1), uint8(2), []byte{31, 31, 31}, uint8(0), uint8(3))
	f.Add(int64(2), uint8(1), []byte{69, 44}, uint8(1), uint8(0))
	f.Add(int64(3), uint8(2), []byte{8, 4, 40}, uint8(2), uint8(9))
	f.Add(int64(4), uint8(3), []byte{2, 4, 26, 10}, uint8(3), uint8(17))
	f.Add(int64(5), uint8(0), []byte{66}, uint8(2), uint8(40))
	f.Add(int64(6), uint8(2), []byte{6, 5, 14}, uint8(1), uint8(255))
	f.Add(int64(7), uint8(2), []byte{32, 20, 16}, uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rank uint8, extents []byte, mode uint8, specials uint8) {
		shape := make(grid.Shape, 1+int(rank)%4)
		for i := range shape {
			shape[i] = 1
			if i < len(extents) {
				shape[i] = 1 + int(extents[i])%70
			}
		}
		// At most 40 000 values: halve the largest extent until it fits.
		for shape.Len() > 40000 {
			big := 0
			for i := range shape {
				if shape[i] > shape[big] {
					big = i
				}
			}
			shape[big] = (shape[big] + 1) / 2
		}
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, shape.Len())
		for i := range vals {
			vals[i] = math.Sin(float64(i)*0.013) + 0.01*rng.NormFloat64()
		}
		// Planted outliers, then NaN and ±Inf, a few of each.
		for n := int(specials) % 8; n > 0; n-- {
			vals[rng.Intn(len(vals))] += 1e6 * rng.NormFloat64()
		}
		for n, k := int(specials)>>3, 0; n > 0; n, k = n>>1, k+1 {
			if n&1 != 0 {
				vals[rng.Intn(len(vals))] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[k%3]
			}
		}
		opt := Options{ErrorBound: 1e-3, Interpolation: interp.Linear, ProgressiveThreshold: 64}
		if mode&1 != 0 {
			opt.Interpolation = interp.Cubic
		}
		g, err := grid.FromSlice(vals, shape)
		if err != nil {
			t.Fatal(err)
		}
		if mode&2 != 0 {
			checkKernelDispatch(t, grid.Narrow(g), opt, rng)
		} else {
			checkKernelDispatch(t, g, opt, rng)
		}
	})
}

// checkKernelDispatch holds the two kernel paths to one archive and to
// bit-equal retrievals of the full plan and of three random plans.
func checkKernelDispatch[T grid.Scalar](t *testing.T, g *grid.Grid[T], opt Options, rng *rand.Rand) {
	t.Cleanup(func() { setAVX2(true) })
	avx := setAVX2(true)
	vec, err := Compress(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	setAVX2(false)
	gen, err := Compress(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vec, gen) {
		t.Fatalf("shape %v %s: archives differ (%d and %d bytes)", g.Shape(), opt.Interpolation, len(vec), len(gen))
	}
	a, err := NewArchive(gen)
	if err != nil {
		t.Fatal(err)
	}
	plans := []Plan{a.fullPlan()}
	for range 3 {
		p := Plan{Keep: make([]int, a.h.levels)}
		for l := range p.Keep {
			p.Keep[l] = rng.Intn(a.h.metaOf(l+1).usedPlanes + 1)
		}
		plans = append(plans, p)
	}
	for _, p := range plans {
		setAVX2(avx)
		rv, err := a.Retrieve(p)
		if err != nil {
			t.Fatal(err)
		}
		setAVX2(false)
		rg, err := a.Retrieve(p)
		if err != nil {
			t.Fatal(err)
		}
		got, want := DataOf[T](rv), DataOf[T](rg)
		for i := range want {
			if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
				t.Fatalf("shape %v %s plan %v: value %d = %v down AVX2, %v generic", g.Shape(), opt.Interpolation, p.Keep, i, got[i], want[i])
			}
		}
	}
}
