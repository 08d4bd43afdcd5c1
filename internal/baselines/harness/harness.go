// Package harness drives every experiment of the paper's evaluation
// (§6, Figures 5-11 and Table 2) over the synthetic dataset suite, with one
// function per table/figure. cmd/ipbench and the repository-root benchmarks
// are thin wrappers around this package; EXPERIMENTS.md records the outputs
// next to the paper's numbers.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/baselines/lossy"
	"repro/internal/baselines/mgard"
	"repro/internal/baselines/residual"
	"repro/internal/baselines/sperr"
	"repro/internal/baselines/sz3"
	"repro/internal/baselines/zfp"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/interp"
)

// Config scales and scopes an experiment run.
type Config struct {
	// Divisor shrinks the paper's dataset shapes by this linear factor.
	// 1 reproduces the paper's sizes (hundreds of MB per field); the
	// default 4 keeps a full run in laptop territory.
	Divisor int
	// Datasets restricts the run; nil means all six.
	Datasets []string
	// ResidualRungs is the bound-ladder length for the -R and -M baselines
	// (paper §6.1.3 uses 9: 2^16eb .. eb in 4x steps).
	ResidualRungs int
}

func (c Config) datasets() ([]*datagen.Dataset, error) {
	names := c.Datasets
	if len(names) == 0 {
		names = datagen.Names()
	}
	div := c.Divisor
	if div < 1 {
		div = 4
	}
	out := make([]*datagen.Dataset, 0, len(names))
	for _, n := range names {
		d, err := datagen.Generate(n, div)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func (c Config) rungs() int {
	if c.ResidualRungs > 0 {
		return c.ResidualRungs
	}
	return 9
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(fmt.Sprintf("%-*s", widths[i], cell))
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	b.WriteString("\n")
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Progressive is the uniform adapter over IPComp and the baselines that the
// retrieval experiments (Figures 6, 7, 10, 11) sweep.
type Progressive interface {
	Name() string
	// Compress builds internal state for the grid at bound eb and returns
	// the total archive size.
	Compress(g *grid.Grid[float64], eb float64) (int64, error)
	// RetrieveErrorBound returns the reconstruction for bound e, the bytes
	// loaded, and the number of decompression passes executed.
	RetrieveErrorBound(e float64) ([]float64, int64, int, error)
	// RetrieveBitrate returns the best reconstruction loading at most
	// maxBytes, with the bytes actually loaded.
	RetrieveBitrate(maxBytes int64) ([]float64, int64, error)
}

// ---- IPComp adapter ----

type ipcompAdapter struct {
	arch *core.Archive
}

// NewIPComp returns the IPComp adapter.
func NewIPComp() Progressive { return &ipcompAdapter{} }

func (a *ipcompAdapter) Name() string { return "IPComp" }

func (a *ipcompAdapter) Compress(g *grid.Grid[float64], eb float64) (int64, error) {
	blob, err := core.Compress(g, core.Options{ErrorBound: eb, Interpolation: interp.Cubic})
	if err != nil {
		return 0, err
	}
	arch, err := core.NewArchive(blob)
	if err != nil {
		return 0, err
	}
	a.arch = arch
	return int64(len(blob)), nil
}

func (a *ipcompAdapter) RetrieveErrorBound(e float64) ([]float64, int64, int, error) {
	res, err := a.arch.RetrieveErrorBound(e)
	if err != nil {
		return nil, 0, 0, err
	}
	return res.Data(), res.LoadedBytes(), 1, nil
}

func (a *ipcompAdapter) RetrieveBitrate(maxBytes int64) ([]float64, int64, error) {
	plan, err := a.arch.PlanBitrateMode(maxBytes)
	if err != nil {
		return nil, 0, err
	}
	res, err := a.arch.Retrieve(plan)
	if err != nil {
		return nil, 0, err
	}
	return res.Data(), res.LoadedBytes(), nil
}

// ---- residual-based adapters (SZ3-R, ZFP-R, SPERR-R) ----

type residualAdapter struct {
	name  string
	codec lossy.Codec
	rungs int
	arch  *residual.Archive
}

// NewSZ3R returns the SZ3-R adapter with the given ladder length.
func NewSZ3R(rungs int) Progressive {
	return &residualAdapter{name: "SZ3-R", codec: sz3.New(), rungs: rungs}
}

// NewZFPR returns the ZFP-R adapter.
func NewZFPR(rungs int) Progressive {
	return &residualAdapter{name: "ZFP-R", codec: zfp.New(), rungs: rungs}
}

// NewSPERRR returns the SPERR-R adapter (used by Figures 8 and 9 only, as
// in the paper).
func NewSPERRR(rungs int) Progressive {
	return &residualAdapter{name: "SPERR-R", codec: sperr.New(), rungs: rungs}
}

func (a *residualAdapter) Name() string { return a.name }

func (a *residualAdapter) Compress(g *grid.Grid[float64], eb float64) (int64, error) {
	arch, err := residual.CompressResidual(a.codec, g, residual.Ladder(eb, a.rungs))
	if err != nil {
		return 0, err
	}
	a.arch = arch
	return a.arch.TotalSize(), nil
}

func (a *residualAdapter) RetrieveErrorBound(e float64) ([]float64, int64, int, error) {
	ret, err := a.arch.RetrieveErrorBound(a.codec, e)
	if err != nil {
		return nil, 0, 0, err
	}
	return ret.Data.Data(), ret.LoadedBytes, ret.Passes, nil
}

func (a *residualAdapter) RetrieveBitrate(maxBytes int64) ([]float64, int64, error) {
	ret, err := a.arch.RetrieveBitrate(a.codec, maxBytes)
	if err != nil {
		return nil, 0, err
	}
	return ret.Data.Data(), ret.LoadedBytes, nil
}

// ---- multi-fidelity adapter (SZ3-M) ----

type multiAdapter struct {
	codec lossy.Codec
	rungs int
	arch  *residual.Archive
}

// NewSZ3M returns the SZ3-M adapter.
func NewSZ3M(rungs int) Progressive {
	return &multiAdapter{codec: sz3.New(), rungs: rungs}
}

func (a *multiAdapter) Name() string { return "SZ3-M" }

func (a *multiAdapter) Compress(g *grid.Grid[float64], eb float64) (int64, error) {
	arch, err := residual.CompressMulti(a.codec, g, residual.Ladder(eb, a.rungs))
	if err != nil {
		return 0, err
	}
	a.arch = arch
	return a.arch.TotalSize(), nil
}

func (a *multiAdapter) RetrieveErrorBound(e float64) ([]float64, int64, int, error) {
	ret, err := a.arch.RetrieveErrorBound(a.codec, e)
	if err != nil {
		return nil, 0, 0, err
	}
	return ret.Data.Data(), ret.LoadedBytes, ret.Passes, nil
}

func (a *multiAdapter) RetrieveBitrate(maxBytes int64) ([]float64, int64, error) {
	ret, err := a.arch.RetrieveBitrate(a.codec, maxBytes)
	if err != nil {
		return nil, 0, err
	}
	return ret.Data.Data(), ret.LoadedBytes, nil
}

// ---- PMGARD adapter ----

type pmgardAdapter struct {
	arch *mgard.Archive
}

// NewPMGARD returns the PMGARD adapter.
func NewPMGARD() Progressive { return &pmgardAdapter{} }

func (a *pmgardAdapter) Name() string { return "PMGARD" }

func (a *pmgardAdapter) Compress(g *grid.Grid[float64], eb float64) (int64, error) {
	arch, err := mgard.CompressProgressive(g, eb)
	if err != nil {
		return 0, err
	}
	a.arch = arch
	return arch.TotalSize(), nil
}

func (a *pmgardAdapter) RetrieveErrorBound(e float64) ([]float64, int64, int, error) {
	ret, err := a.arch.RetrieveErrorBound(e)
	if err != nil {
		return nil, 0, 0, err
	}
	return ret.Data.Data(), ret.LoadedBytes, 1, nil
}

func (a *pmgardAdapter) RetrieveBitrate(maxBytes int64) ([]float64, int64, error) {
	// The paper enables bitrate mode for PMGARD through manually defined
	// anchor bounds 2^16 eb .. eb (§6.2.2); pick the finest anchor whose
	// load fits the budget.
	var best []float64
	var bestLoaded int64 = -1
	for k := 16; k >= 0; k-- {
		e := a.arch.EB * pow2(k)
		ret, err := a.arch.RetrieveErrorBound(e)
		if err != nil {
			continue
		}
		if ret.LoadedBytes <= maxBytes {
			best = ret.Data.Data()
			bestLoaded = ret.LoadedBytes
			// Anchors are ordered coarse->fine; keep refining while the
			// budget allows.
			continue
		}
		break
	}
	if bestLoaded < 0 {
		return nil, 0, fmt.Errorf("pmgard: budget %d below the coarsest anchor", maxBytes)
	}
	return best, bestLoaded, nil
}

func pow2(k int) float64 {
	v := 1.0
	for i := 0; i < k; i++ {
		v *= 2
	}
	return v
}

// timeIt runs f once and returns elapsed seconds.
func timeIt(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// mbPerSec converts bytes and seconds to MB/s.
func mbPerSec(bytes int64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / secs
}
