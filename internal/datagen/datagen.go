// Package datagen synthesizes stand-ins for the six SDRBench fields the
// paper evaluates on (Table 3). The real datasets are multi-hundred-MB
// binaries that cannot ship with this repository, so each generator
// reproduces the statistical character that drives compressor behaviour —
// smoothness, spectral decay, anisotropy, fronts — at a configurable scale.
// What the paper's claims become on these stand-ins is pinned as orderings,
// not magnitudes, by internal/baselines/harness/harness_test.go.
//
// All generators are deterministic for a given seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/grid"
)

// Dataset couples a generated field with its paper metadata.
type Dataset struct {
	Name   string
	Domain string
	// PaperShape is the shape used in the paper's Table 3.
	PaperShape grid.Shape
	Grid       *grid.Grid[float64]
}

// Names lists the six fields in the paper's order.
func Names() []string {
	return []string{"Density", "Pressure", "VelocityX", "Wave", "SpeedX", "CH4"}
}

// paperShapes from Table 3 of the paper.
var paperShapes = map[string]grid.Shape{
	"Density":   {256, 384, 384},
	"Pressure":  {256, 384, 384},
	"VelocityX": {256, 384, 384},
	"Wave":      {1008, 1008, 352},
	"SpeedX":    {100, 500, 500},
	"CH4":       {500, 500, 500},
}

var domains = map[string]string{
	"Density":   "turbulence",
	"Pressure":  "turbulence",
	"VelocityX": "turbulence",
	"Wave":      "seismic",
	"SpeedX":    "weather",
	"CH4":       "combustion",
}

// Generate builds the named dataset at 1/divisor of the paper's linear
// resolution (divisor 1 reproduces the paper's shapes; the test suite and
// default benches use 4 or 8).
func Generate(name string, divisor int) (*Dataset, error) {
	ps, ok := paperShapes[name]
	if !ok {
		return nil, fmt.Errorf("datagen: unknown dataset %q (have %v)", name, Names())
	}
	if divisor < 1 {
		divisor = 1
	}
	shape := make(grid.Shape, len(ps))
	for i, d := range ps {
		shape[i] = d / divisor
		if shape[i] < 8 {
			shape[i] = 8
		}
	}
	g, err := GenerateShape(name, shape)
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: name, Domain: domains[name], PaperShape: ps, Grid: g}, nil
}

// GenerateShape builds the named field at an explicit shape.
func GenerateShape(name string, shape grid.Shape) (*grid.Grid[float64], error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	switch name {
	case "Density":
		return turbulence(shape, 101, 1.0, 3.2, true), nil
	case "Pressure":
		return turbulence(shape, 202, 5.0, 3.6, false), nil
	case "VelocityX":
		return turbulence(shape, 303, 1.5, 2.6, false), nil
	case "Wave":
		return wavefield(shape, 404), nil
	case "SpeedX":
		return windSpeed(shape, 505), nil
	case "CH4":
		return combustion(shape, 606), nil
	default:
		return nil, fmt.Errorf("datagen: unknown dataset %q", name)
	}
}

// All generates the whole suite at the given divisor.
func All(divisor int) ([]*Dataset, error) {
	out := make([]*Dataset, 0, 6)
	for _, n := range Names() {
		d, err := Generate(n, divisor)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// coordinates iterates normalized coordinates once per point.
func coordinates(shape grid.Shape, fn func(i int, c []float64)) {
	nd := len(shape)
	strides := shape.Strides()
	c := make([]float64, nd)
	n := shape.Len()
	for i := 0; i < n; i++ {
		rem := i
		for d := 0; d < nd; d++ {
			c[d] = float64(rem/strides[d]) / float64(shape[d])
			rem %= strides[d]
		}
		fn(i, c)
	}
}

// turbulence builds a multi-octave random Fourier field with power-law
// spectral decay — the classic synthetic turbulence construction. exponent
// controls how fast fine scales die off (larger = smoother); positive
// fields (density-like) are exponentiated.
func turbulence(shape grid.Shape, seed int64, base, exponent float64, positive bool) *grid.Grid[float64] {
	r := rand.New(rand.NewSource(seed))
	nd := len(shape)
	// The finest octave keeps >= ~16 samples per wavelength at this
	// resolution, so the sampled field is genuinely smooth at cell level —
	// like the paper's real fields at their native resolution. Coarser
	// sampling (larger divisor) resolves fewer octaves.
	minExt := shape[0]
	for _, d := range shape {
		if d < minExt {
			minExt = d
		}
	}
	maxScale := float64(minExt) / 16
	const modesPerOctave = 8
	type mode struct {
		amp, phase float64
		freq       []float64
	}
	var modes []mode
	for o := 0; ; o++ {
		scale := math.Pow(2, float64(o))
		if scale > maxScale && o > 0 {
			break
		}
		amp := math.Pow(scale, -exponent/2)
		for m := 0; m < modesPerOctave; m++ {
			f := make([]float64, nd)
			for d := 0; d < nd; d++ {
				f[d] = (r.Float64()*2 - 1) * scale * 2 * math.Pi
			}
			modes = append(modes, mode{
				amp:   amp * r.NormFloat64(),
				phase: r.Float64() * 2 * math.Pi,
				freq:  f,
			})
		}
	}
	g := grid.MustNew[float64](shape)
	data := g.Data()
	coordinates(shape, func(i int, c []float64) {
		v := 0.0
		for _, m := range modes {
			arg := m.phase
			for d := 0; d < nd; d++ {
				arg += m.freq[d] * c[d]
			}
			v += m.amp * math.Sin(arg)
		}
		if positive {
			data[i] = base * math.Exp(0.6*v)
		} else {
			data[i] = base * v
		}
	})
	return g
}

// wavefield mimics a seismic wavefield snapshot: expanding oscillatory
// spherical fronts from a few sources over a smooth background velocity
// structure, with amplitude decaying away from each front.
func wavefield(shape grid.Shape, seed int64) *grid.Grid[float64] {
	r := rand.New(rand.NewSource(seed))
	nd := len(shape)
	type source struct {
		center []float64
		radius float64 // current front radius in normalized units
		freq   float64
		amp    float64
	}
	minExt := shape[0]
	for _, d := range shape {
		if d < minExt {
			minExt = d
		}
	}
	// Packet frequency keeps >= ~10 samples per oscillation at this
	// resolution (2π·k radians across the domain, k wavelengths).
	maxWavelengths := float64(minExt) / 10
	sources := make([]source, 5)
	for s := range sources {
		ctr := make([]float64, nd)
		for d := range ctr {
			ctr[d] = r.Float64()
		}
		sources[s] = source{
			center: ctr,
			radius: 0.15 + 0.5*r.Float64(),
			freq:   2 * math.Pi * maxWavelengths * (0.4 + 0.6*r.Float64()),
			amp:    0.5 + r.Float64(),
		}
	}
	background := turbulence(shape, seed+1, 0.05, 3.8, false)
	g := grid.MustNew[float64](shape)
	data := g.Data()
	bg := background.Data()
	coordinates(shape, func(i int, c []float64) {
		v := bg[i]
		for _, s := range sources {
			d2 := 0.0
			for d := 0; d < nd; d++ {
				dd := c[d] - s.center[d]
				d2 += dd * dd
			}
			dist := math.Sqrt(d2)
			// Wave packet around the current front radius.
			x := (dist - s.radius) * s.freq
			v += s.amp * math.Exp(-0.5*x*x/9) * math.Sin(x)
		}
		data[i] = v
	})
	return g
}

// windSpeed mimics an x-direction wind speed field: strong zonal jets
// varying with "latitude" (the second axis), modulated by synoptic-scale
// turbulence and weak small-scale noise.
func windSpeed(shape grid.Shape, seed int64) *grid.Grid[float64] {
	turb := turbulence(shape, seed, 1.0, 3.0, false)
	g := grid.MustNew[float64](shape)
	data := g.Data()
	td := turb.Data()
	coordinates(shape, func(i int, c []float64) {
		lat := c[len(c)-2] // second-to-last axis as latitude when 3D
		jet := 18*math.Sin(3*math.Pi*lat)*math.Exp(-4*(lat-0.5)*(lat-0.5)) +
			6*math.Sin(math.Pi*lat)
		vertical := 1.0
		if len(c) == 3 {
			// Wind strengthens with altitude (first axis).
			vertical = 0.5 + c[0]
		}
		data[i] = jet*vertical + 1.5*td[i]
	})
	return g
}

// combustion mimics a CH4 mass-fraction field: values in [0,1] with sharp
// reaction fronts (sigmoid shells) separating burned and unburned regions,
// plus mild in-region variation.
func combustion(shape grid.Shape, seed int64) *grid.Grid[float64] {
	r := rand.New(rand.NewSource(seed))
	nd := len(shape)
	type pocket struct {
		center []float64
		radius float64
		width  float64
	}
	pockets := make([]pocket, 6)
	for p := range pockets {
		ctr := make([]float64, nd)
		for d := range ctr {
			ctr[d] = r.Float64()
		}
		pockets[p] = pocket{center: ctr, radius: 0.1 + 0.25*r.Float64(), width: 0.01 + 0.02*r.Float64()}
	}
	wrinkle := turbulence(shape, seed+2, 0.02, 3.0, false)
	g := grid.MustNew[float64](shape)
	data := g.Data()
	wd := wrinkle.Data()
	coordinates(shape, func(i int, c []float64) {
		burned := 0.0
		for _, p := range pockets {
			d2 := 0.0
			for d := 0; d < nd; d++ {
				dd := c[d] - p.center[d]
				d2 += dd * dd
			}
			dist := math.Sqrt(d2) + wd[i] // wrinkled front
			burned += 1 / (1 + math.Exp((dist-p.radius)/p.width))
		}
		if burned > 1 {
			burned = 1
		}
		// Unburned region keeps CH4 near 0.06; burned regions deplete it.
		v := 0.06 * (1 - burned) * (1 + 0.15*wd[i]/0.02*0.1)
		if v < 0 {
			v = 0
		}
		data[i] = v
	})
	return g
}
