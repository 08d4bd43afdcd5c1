package harness

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
)

// tiny keeps integration runs fast: one dataset, short ladder, 1/16 scale.
func tiny() Config {
	return Config{Divisor: 16, ResidualRungs: 3, Datasets: []string{"Density"}}
}

func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestTable2PrefixPredictionReducesEntropy(t *testing.T) {
	tb, err := Table2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for r := range tb.Rows {
		orig := cell(t, tb, r, 1)
		two := cell(t, tb, r, 3)
		if two >= orig {
			t.Errorf("%s: 2-bit prefix entropy %v >= original %v (paper Table 2 trend broken)",
				tb.Rows[r][0], two, orig)
		}
	}
}

func TestOnesAndEntropy(t *testing.T) {
	plane := []byte{0b10101010, 0b11000000}
	if got := ones(plane, 16); got != 6 {
		t.Errorf("ones = %d, want 6", got)
	}
	if got := ones(plane, 8); got != 4 {
		t.Errorf("ones(first 8) = %d, want 4", got)
	}
	// 10 values: 1,0,1,0,1,0,1,0,1,1 -> 6 ones of 10.
	if got := ones(plane, 10); got != 6 {
		t.Errorf("ones(first 10) = %d, want 6", got)
	}
	if e := bitEntropy(plane, 8); e != 1.0 {
		t.Errorf("bitEntropy of half-ones = %v, want 1", e)
	}
	allZero := []byte{0, 0}
	if e := bitEntropy(allZero, 16); e != 0 {
		t.Errorf("bitEntropy of zeros = %v, want 0", e)
	}
}

func TestFig5IPCompLeadsCompressionRatio(t *testing.T) {
	ts, err := Fig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("%d tables", len(ts))
	}
	for _, tb := range ts {
		for r := range tb.Rows {
			ip := cell(t, tb, r, 1)
			for c := 2; c <= 5; c++ {
				if base := cell(t, tb, r, c); base > ip {
					t.Errorf("%s %s: %s CR %.2f beats IPComp %.2f",
						tb.Title, tb.Rows[r][0], tb.Columns[c], base, ip)
				}
			}
		}
	}
}

func TestFig6IPCompLoadsLeastAtTightBound(t *testing.T) {
	ts, err := Fig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	last := tb.Rows[len(tb.Rows)-1] // bound = eb (tightest)
	ip, err := strconv.ParseFloat(last[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	for c := 2; c <= 5; c++ {
		if last[c] == "-" {
			continue
		}
		base, _ := strconv.ParseFloat(last[c], 64)
		if base < ip {
			t.Errorf("at the tightest bound, %s loads %.3f < IPComp %.3f bits/val",
				tb.Columns[c], base, ip)
		}
	}
	// IPComp's loaded bitrate must grow monotonically as bounds tighten.
	prev := 0.0
	for r := range tb.Rows {
		v := cell(t, tb, r, 1)
		if v < prev {
			t.Errorf("IPComp bitrate not monotone: row %d has %v after %v", r, v, prev)
		}
		prev = v
	}
}

func TestFig9ResidualSpeedDegrades(t *testing.T) {
	cfg := tiny()
	ts, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts[0].Rows) != 5 {
		t.Fatalf("%d rows", len(ts[0].Rows))
	}
	// SZ3-R with 9 residuals must be slower than with 3 (paper Fig 9). The
	// rungs=1 row is skipped: at test scale a single pass at the final 1e-9
	// bound is dominated by the enormous quantizer alphabet, which makes it
	// slower than the whole ladder and not a clean baseline for the trend.
	// One compression here takes milliseconds, so a single reading (what a
	// Fig9 cell is) measures whatever else the machine runs as much as the
	// ladder. The two ladders are timed alternately, seven times each, on
	// Fig9's field and bound, and each keeps its fastest run: load only
	// ever slows a run, and alternation exposes both to the same load.
	ds, err := datagen.Generate("Density", cfg.Divisor)
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e-9 * ds.Grid.ValueRange()
	best := make(map[int]time.Duration)
	for run := 0; run < 7; run++ {
		for _, rungs := range []int{3, 9} {
			p := NewSZ3R(rungs)
			start := time.Now()
			if _, err := p.Compress(ds.Grid, eb); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); best[rungs] == 0 || d < best[rungs] {
				best[rungs] = d
			}
		}
	}
	t.Logf("SZ3-R fastest of seven: %v at 3 rungs, %v at 9", best[3], best[9])
	if best[9] <= best[3] {
		t.Errorf("SZ3-R compression did not slow down with residual count: fastest of seven %v (3 rungs), %v (9 rungs)", best[3], best[9])
	}
}

func TestFig11LaplacianNeedsMoreData(t *testing.T) {
	cfg := Config{Divisor: 8, Datasets: []string{"Density"}}
	tb, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for r := range tb.Rows {
		curl := cell(t, tb, r, 1)
		lap := cell(t, tb, r, 2)
		if lap < curl {
			t.Errorf("row %d: Laplacian error %.4f < curl %.4f — paper's trend says derivatives degrade more",
				r, lap, curl)
		}
	}
	// More data must help the curl.
	if cell(t, tb, 2, 1) > cell(t, tb, 0, 1) {
		t.Error("curl quality did not improve with more data")
	}
}

func TestTableWriteTo(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"A", "B"}, Rows: [][]string{{"x", "1"}}}
	var sb strings.Builder
	if _, err := tb.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "A") || !strings.Contains(out, "x") {
		t.Errorf("table output %q", out)
	}
}
