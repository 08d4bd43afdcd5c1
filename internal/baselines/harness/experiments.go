package harness

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/baselines/lossy"
	"repro/internal/bitplane"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/metrics"
	"repro/internal/nb"
	"repro/internal/quant"
)

// progressiveSet builds the paper's baseline roster for the retrieval
// figures: IPComp, SZ3-M, SZ3-R, ZFP-R, PMGARD.
func (c Config) progressiveSet() []Progressive {
	return []Progressive{
		NewIPComp(),
		NewSZ3M(c.rungs()),
		NewSZ3R(c.rungs()),
		NewZFPR(c.rungs()),
		NewPMGARD(),
	}
}

// Table2 reproduces the paper's Table 2: per-bitplane entropy of the
// quantized interpolation residuals under 0/1/2/3-bit XOR prefix
// prediction, for the Density, SpeedX, and Wave fields. Lower is better;
// the paper picks the 2-bit prefix.
func Table2(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Table 2: bitplane entropy under k-bit prefix prediction (lower = more compressible)",
		Columns: []string{"Field", "Original", "1-bit prefix", "2-bit prefix", "3-bit prefix"},
	}
	div := cfg.Divisor
	if div < 1 {
		div = 4
	}
	for _, name := range []string{"Density", "SpeedX", "Wave"} {
		ds, err := datagen.Generate(name, div)
		if err != nil {
			return nil, err
		}
		nbv, err := quantizedNegabinary(ds.Grid, 1e-6*ds.Grid.ValueRange())
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for prefix := 0; prefix <= 3; prefix++ {
			row = append(row, fmt.Sprintf("%.6f", bitplane.PrefixEntropy(nbv, prefix)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// quantizedNegabinary runs the interpolation+quantization front end and
// returns the negabinary codes of the finest level's residuals (the bulk of
// the data and the paper's Table 2 subject).
func quantizedNegabinary(g *grid.Grid[float64], eb float64) ([]uint32, error) {
	dec, err := interp.NewDecomposition(g.Shape())
	if err != nil {
		return nil, err
	}
	q := quant.New(eb)
	work := make([]float64, g.Len())
	copy(work, g.Data())
	var finest []uint32
	for l := dec.NumLevels(); l >= 1; l-- {
		var ks []uint32
		lossy.VisitLevel(dec, work, l, interp.Cubic, func(idx int, pred float64) float64 {
			k, recon, ok := q.QuantizeReconstruct(work[idx], pred)
			if !ok {
				k, recon = 0, work[idx]
			}
			ks = append(ks, nb.Encode32(k))
			return recon
		})
		if l == 1 {
			finest = ks
		}
	}
	return finest, nil
}

// Fig5 reproduces Figure 5: compression ratios of all five compressors at
// relative bounds 1e-9 (high precision) and 1e-6 (high ratio).
func Fig5(cfg Config) ([]*Table, error) {
	datasets, err := cfg.datasets()
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, relEB := range []float64{1e-9, 1e-6} {
		t := &Table{
			Title:   fmt.Sprintf("Figure 5: compression ratio at eb = %.0e x range", relEB),
			Columns: []string{"Dataset", "IPComp", "SZ3-M", "SZ3-R", "ZFP-R", "PMGARD"},
		}
		for _, ds := range datasets {
			eb := relEB * ds.Grid.ValueRange()
			raw := int64(ds.Grid.Len() * 8)
			row := []string{ds.Name}
			for _, p := range cfg.progressiveSet() {
				size, err := p.Compress(ds.Grid, eb)
				if err != nil {
					return nil, fmt.Errorf("fig5 %s/%s: %w", ds.Name, p.Name(), err)
				}
				row = append(row, fmt.Sprintf("%.2f", metrics.CompressionRatio(raw, size)))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig6 reproduces Figure 6: the bitrate each compressor must load to reach
// a given error bound (error-bound mode), swept from eb to 2^16 eb. Lower
// bitrate at the same bound is better.
func Fig6(cfg Config) ([]*Table, error) {
	datasets, err := cfg.datasets()
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, ds := range datasets {
		eb := 1e-9 * ds.Grid.ValueRange()
		n := ds.Grid.Len()
		set := cfg.progressiveSet()
		for _, p := range set {
			if _, err := p.Compress(ds.Grid, eb); err != nil {
				return nil, fmt.Errorf("fig6 %s/%s: %w", ds.Name, p.Name(), err)
			}
		}
		t := &Table{
			Title:   fmt.Sprintf("Figure 6 (%s): loaded bitrate vs. requested error bound", ds.Name),
			Columns: []string{"Bound/eb", "IPComp", "SZ3-M", "SZ3-R", "ZFP-R", "PMGARD"},
		}
		for k := 16; k >= 0; k -= 2 {
			bound := eb * math.Pow(2, float64(k))
			row := []string{fmt.Sprintf("2^%d", k)}
			for _, p := range set {
				_, loaded, _, err := p.RetrieveErrorBound(bound)
				if err != nil {
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%.3f", metrics.Bitrate(loaded, n)))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig7 reproduces Figure 7: the achieved L∞ error under a fixed loaded-
// bitrate budget. Lower error at the same bitrate is better.
func Fig7(cfg Config) ([]*Table, error) {
	datasets, err := cfg.datasets()
	if err != nil {
		return nil, err
	}
	rates := []float64{0.1, 0.25, 0.5, 1, 2, 4}
	var tables []*Table
	for _, ds := range datasets {
		eb := 1e-9 * ds.Grid.ValueRange()
		n := ds.Grid.Len()
		set := cfg.progressiveSet()
		for _, p := range set {
			if _, err := p.Compress(ds.Grid, eb); err != nil {
				return nil, fmt.Errorf("fig7 %s/%s: %w", ds.Name, p.Name(), err)
			}
		}
		t := &Table{
			Title:   fmt.Sprintf("Figure 7 (%s): achieved L-inf error vs. bitrate budget", ds.Name),
			Columns: []string{"Bitrate", "IPComp", "SZ3-M", "SZ3-R", "ZFP-R", "PMGARD"},
		}
		for _, rate := range rates {
			budget := int64(rate * float64(n) / 8)
			row := []string{fmt.Sprintf("%.2f", rate)}
			for _, p := range set {
				data, _, err := p.RetrieveBitrate(budget)
				if err != nil {
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%.3e", metrics.MaxAbsError(ds.Grid.Data(), data)))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig8 reproduces Figure 8: compression and full-fidelity decompression
// throughput (MB/s of original data) at eb = 1e-9 x range.
func Fig8(cfg Config) ([]*Table, error) {
	datasets, err := cfg.datasets()
	if err != nil {
		return nil, err
	}
	comp := &Table{
		Title:   "Figure 8a: compression throughput (MB/s)",
		Columns: []string{"Dataset", "IPComp", "SZ3-M", "SZ3-R", "ZFP-R", "PMGARD", "SPERR-R"},
	}
	dec := &Table{
		Title:   "Figure 8b: decompression throughput to full fidelity (MB/s)",
		Columns: []string{"Dataset", "IPComp", "SZ3-M", "SZ3-R", "ZFP-R", "PMGARD", "SPERR-R"},
	}
	for _, ds := range datasets {
		eb := 1e-9 * ds.Grid.ValueRange()
		raw := int64(ds.Grid.Len() * 8)
		set := append(cfg.progressiveSet(), NewSPERRR(cfg.rungs()))
		compRow := []string{ds.Name}
		decRow := []string{ds.Name}
		for _, p := range set {
			secs, err := timeIt(func() error {
				_, e := p.Compress(ds.Grid, eb)
				return e
			})
			if err != nil {
				return nil, fmt.Errorf("fig8 %s/%s: %w", ds.Name, p.Name(), err)
			}
			compRow = append(compRow, fmt.Sprintf("%.1f", mbPerSec(raw, secs)))
			secs, err = timeIt(func() error {
				_, _, _, e := p.RetrieveErrorBound(eb)
				return e
			})
			if err != nil {
				return nil, fmt.Errorf("fig8 retrieve %s/%s: %w", ds.Name, p.Name(), err)
			}
			decRow = append(decRow, fmt.Sprintf("%.1f", mbPerSec(raw, secs)))
		}
		comp.Rows = append(comp.Rows, compRow)
		dec.Rows = append(dec.Rows, decRow)
	}
	return []*Table{comp, dec}, nil
}

// Fig9 reproduces Figure 9: the speed of residual-based compressors as the
// number of pre-defined residual levels grows — their fundamental scaling
// weakness.
func Fig9(cfg Config) ([]*Table, error) {
	div := cfg.Divisor
	if div < 1 {
		div = 4
	}
	ds, err := datagen.Generate("Density", div)
	if err != nil {
		return nil, err
	}
	eb := 1e-9 * ds.Grid.ValueRange()
	raw := int64(ds.Grid.Len() * 8)
	comp := &Table{
		Title:   "Figure 9a: compression throughput vs. residual count (MB/s, Density)",
		Columns: []string{"Residuals", "SZ3-R", "ZFP-R", "SPERR-R"},
	}
	dec := &Table{
		Title:   "Figure 9b: decompression throughput vs. residual count (MB/s, Density)",
		Columns: []string{"Residuals", "SZ3-R", "ZFP-R", "SPERR-R"},
	}
	for _, rungs := range []int{1, 3, 5, 7, 9} {
		compRow := []string{fmt.Sprint(rungs)}
		decRow := []string{fmt.Sprint(rungs)}
		for _, mk := range []func(int) Progressive{NewSZ3R, NewZFPR, NewSPERRR} {
			p := mk(rungs)
			secs, err := timeIt(func() error {
				_, e := p.Compress(ds.Grid, eb)
				return e
			})
			if err != nil {
				return nil, fmt.Errorf("fig9 %s rungs=%d: %w", p.Name(), rungs, err)
			}
			compRow = append(compRow, fmt.Sprintf("%.1f", mbPerSec(raw, secs)))
			secs, err = timeIt(func() error {
				_, _, _, e := p.RetrieveErrorBound(eb)
				return e
			})
			if err != nil {
				return nil, err
			}
			decRow = append(decRow, fmt.Sprintf("%.1f", mbPerSec(raw, secs)))
		}
		comp.Rows = append(comp.Rows, compRow)
		dec.Rows = append(dec.Rows, decRow)
	}
	return []*Table{comp, dec}, nil
}

// Fig10 reproduces Figure 10: PSNR at a given loaded bitrate for the four
// fields the paper shows (Density, Pressure, VelocityX, CH4).
func Fig10(cfg Config) ([]*Table, error) {
	names := []string{"Density", "Pressure", "VelocityX", "CH4"}
	if len(cfg.Datasets) > 0 {
		names = cfg.Datasets
	}
	div := cfg.Divisor
	if div < 1 {
		div = 4
	}
	rates := []float64{0.1, 0.25, 0.5, 1, 2, 4}
	var tables []*Table
	for _, name := range names {
		ds, err := datagen.Generate(name, div)
		if err != nil {
			return nil, err
		}
		eb := 1e-9 * ds.Grid.ValueRange()
		n := ds.Grid.Len()
		set := cfg.progressiveSet()
		for _, p := range set {
			if _, err := p.Compress(ds.Grid, eb); err != nil {
				return nil, fmt.Errorf("fig10 %s/%s: %w", name, p.Name(), err)
			}
		}
		t := &Table{
			Title:   fmt.Sprintf("Figure 10 (%s): PSNR (dB) vs. bitrate budget (higher is better)", name),
			Columns: []string{"Bitrate", "IPComp", "SZ3-M", "SZ3-R", "ZFP-R", "PMGARD"},
		}
		for _, rate := range rates {
			budget := int64(rate * float64(n) / 8)
			row := []string{fmt.Sprintf("%.2f", rate)}
			for _, p := range set {
				data, _, err := p.RetrieveBitrate(budget)
				if err != nil {
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%.1f", metrics.PSNR(ds.Grid.Data(), data)))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig11 reproduces Figure 11: the quality of derived quantities (curl and
// Laplacian of Density) when only 0.1%, 0.3%, and 1% of the original data
// volume is retrieved. The Laplacian, a second-derivative quantity, needs
// noticeably more data — the paper's argument for progressive retrieval.
// Returns the relative L2 error of each derived field.
func Fig11(cfg Config) (*Table, error) {
	div := cfg.Divisor
	if div < 1 {
		div = 4
	}
	ds, err := datagen.Generate("Density", div)
	if err != nil {
		return nil, err
	}
	eb := 1e-9 * ds.Grid.ValueRange()
	ip := NewIPComp()
	if _, err := ip.Compress(ds.Grid, eb); err != nil {
		return nil, err
	}
	refCurl, err := analysis.CurlMagnitude(ds.Grid)
	if err != nil {
		return nil, err
	}
	refLap, err := analysis.Laplacian(ds.Grid)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 11: relative L2 error of derived quantities vs. fraction retrieved (Density)",
		Columns: []string{"Retrieved", "Curl relL2", "Laplacian relL2"},
	}
	n := ds.Grid.Len()
	for _, frac := range []float64{0.001, 0.003, 0.01} {
		budget := int64(frac * float64(n) * 8)
		data, _, err := ip.RetrieveBitrate(budget)
		if err != nil {
			return nil, err
		}
		g, err := grid.FromSlice(data, ds.Grid.Shape())
		if err != nil {
			return nil, err
		}
		gc, err := analysis.CurlMagnitude(g)
		if err != nil {
			return nil, err
		}
		gl, err := analysis.Laplacian(g)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f%%", frac*100),
			fmt.Sprintf("%.4f", analysis.RelativeL2(refCurl, gc)),
			fmt.Sprintf("%.4f", analysis.RelativeL2(refLap, gl)),
		})
	}
	return t, nil
}
