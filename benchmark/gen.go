package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/datagen"
	"repro/internal/grid"
)

// cropMargin is how much larger than the field the generated base is, per
// dimension: the seed picks the crop offset inside it, so two seeds see
// different but statistically alike data.
const cropMargin = 8

// subRand gives each purpose its own stream, so adding a draw to one
// purpose never shifts the draws of another.
func subRand(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// field is one source array the program under test is fed, held at the
// width it is served at, plus what the oracle needs to check answers.
type field struct {
	name   string // datagen name
	shape  grid.Shape
	f64    []float64 // exactly one of f64/f32 is set
	f32    []float32
	vrange float64 // max-min of the cropped values, at the held width
	origin []int   // dataset coordinate of element 0; nil means the zero vector
}

func (f *field) scalarBytes() int {
	if f.f32 != nil {
		return 4
	}
	return 8
}

func (f *field) rawBytes() int64 { return int64(f.shape.Len()) * int64(f.scalarBytes()) }

// at returns the source value at a flat index as float64.
func (f *field) at(i int) float64 {
	if f.f32 != nil {
		return float64(f.f32[i])
	}
	return f.f64[i]
}

// asF64 returns the values widened (a copy for float32 fields).
func (f *field) asF64() []float64 {
	if f.f32 != nil {
		return grid.WidenSlice(f.f32)
	}
	return f.f64
}

// gen records how long input synthesis took, kept apart from set-up.
type genClock struct {
	datagen time.Duration
}

// loadBase returns datagen's field at the given shape. The generators are
// deterministic in (name, shape) and slow (seconds for 200³), so the
// values are kept under .bench_build/data between runs; the file is a
// pure function of its name.
func loadBase(root, name string, shape grid.Shape, gc *genClock) (*grid.Grid[float64], error) {
	start := time.Now()
	defer func() { gc.datagen += time.Since(start) }()
	dir := filepath.Join(root, buildDir, "data")
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.f64", name, shape))
	n := shape.Len()
	if raw, err := os.ReadFile(path); err == nil && len(raw) == n*8 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		return grid.FromSlice(vals, shape)
	}
	g, err := datagen.GenerateShape(name, shape)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, n*8)
	for i, v := range g.Data() {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Write-then-rename, so a run killed mid-write never leaves a short
	// file that a later run would have to detect.
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return g, nil
}

// makeField generates the named field at shape+cropMargin and crops it at
// an offset drawn from the seed. f32 selects the served width.
func makeField(root, name string, shape grid.Shape, f32 bool, seed int64, gc *genClock) (*field, error) {
	baseShape := make(grid.Shape, len(shape))
	for d, e := range shape {
		baseShape[d] = e + cropMargin
	}
	base, err := loadBase(root, name, baseShape, gc)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() { gc.datagen += time.Since(start) }()
	r := subRand(seed, "crop/"+name)
	off := make([]int, len(shape))
	for d := range off {
		off[d] = r.Intn(cropMargin + 1)
	}
	vals := cropBox(base.Data(), baseShape, off, shape)
	f := &field{name: name, shape: shape}
	if f32 {
		f.f32 = grid.NarrowSlice(vals)
		g, _ := grid.FromSlice(f.f32, shape)
		f.vrange = g.ValueRange()
	} else {
		f.f64 = vals
		g, _ := grid.FromSlice(f.f64, shape)
		f.vrange = g.ValueRange()
	}
	return f, nil
}

// cropBox copies the box of the given extents at offset lo out of a
// row-major array (rank 3, which is all the workloads use).
func cropBox[T grid.Scalar](src []T, srcShape grid.Shape, lo []int, ext grid.Shape) []T {
	out := make([]T, ext.Len())
	st := srcShape.Strides()
	i := 0
	for z := 0; z < ext[0]; z++ {
		for y := 0; y < ext[1]; y++ {
			o := (lo[0]+z)*st[0] + (lo[1]+y)*st[1] + lo[2]
			copy(out[i:i+ext[2]], src[o:o+ext[2]])
			i += ext[2]
		}
	}
	return out
}

// latticeBox draws a cube of the given edge whose origin sits on a
// lattice of the given pitch inside shape.
func latticeBox(r *rand.Rand, shape grid.Shape, edge, pitch int) (lo, hi []int) {
	lo = make([]int, len(shape))
	hi = make([]int, len(shape))
	for d, e := range shape {
		lo[d] = r.Intn((e-edge)/pitch+1) * pitch
		hi[d] = lo[d] + edge
	}
	return lo, hi
}

// centredBox is the cube of the given edge in the middle of shape.
func centredBox(shape grid.Shape, edge int) (lo, hi []int) {
	lo = make([]int, len(shape))
	hi = make([]int, len(shape))
	for d, e := range shape {
		lo[d] = (e - edge) / 2
		hi[d] = lo[d] + edge
	}
	return lo, hi
}

func boxLen(lo, hi []int) int {
	n := 1
	for d := range lo {
		n *= hi[d] - lo[d]
	}
	return n
}

// poissonArrivals draws n arrival offsets of a Poisson process at the
// given rate (events per second).
func poissonArrivals(r *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
