package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/interp"
)

// refOption is the option of the two planning solvers solveKnapsack
// replaced: maximizeValue read value, minimizeError read errF.
type refOption struct {
	cost  int
	value int64
	errF  float64
}

// refMaximizeValue is the error-bound mode's former solver, kept verbatim
// as the reference solveKnapsack is held to.
func refMaximizeValue(layers [][]refOption, budget int) []int {
	const neg = int64(math.MinInt64)
	nl := len(layers)
	dp := make([][]int64, nl+1)
	dp[0] = make([]int64, budget+1)
	for li, opts := range layers {
		cur := make([]int64, budget+1)
		prev := dp[li]
		for u := 0; u <= budget; u++ {
			best := neg
			for _, op := range opts {
				if op.cost > u {
					continue
				}
				if v := prev[u-op.cost] + op.value; v > best {
					best = v
				}
			}
			cur[u] = best
		}
		dp[li+1] = cur
	}
	choice := make([]int, nl)
	u := budget
	for li := nl - 1; li >= 0; li-- {
		target := dp[li+1][u]
		for d, op := range layers[li] {
			if op.cost <= u && dp[li][u-op.cost]+op.value == target {
				choice[li] = d
				u -= op.cost
				break
			}
		}
	}
	return choice
}

// refMinimizeError is the fixed-rate mode's former solver, verbatim.
func refMinimizeError(layers [][]refOption, budget int) []int {
	inf := math.Inf(1)
	nl := len(layers)
	dp := make([][]float64, nl+1)
	dp[0] = make([]float64, budget+1)
	for li, opts := range layers {
		cur := make([]float64, budget+1)
		prev := dp[li]
		for u := 0; u <= budget; u++ {
			best := inf
			for _, op := range opts {
				if op.cost > u {
					continue
				}
				if v := prev[u-op.cost] + op.errF; v < best {
					best = v
				}
			}
			cur[u] = best
		}
		dp[li+1] = cur
	}
	choice := make([]int, nl)
	u := budget
	for li := nl - 1; li >= 0; li-- {
		target := dp[li+1][u]
		for k, op := range layers[li] {
			if op.cost <= u && dp[li][u-op.cost]+op.errF == target {
				choice[li] = k
				u -= op.cost
				break
			}
		}
	}
	return choice
}

// refSolveKnapsack is solveKnapsack as it was before it stopped building
// the full table, kept verbatim as the reference the solver is held to.
func refSolveKnapsack(layers [][]dpOption, budget int) []int {
	nl := len(layers)
	dp := make([][]float64, nl+1)
	dp[0] = make([]float64, budget+1) // all zeros: empty assignment
	for li, opts := range layers {
		cur := make([]float64, budget+1)
		prev := dp[li]
		first, rest := opts[0].score, opts[1:]
		for u := range cur {
			best := prev[u] + first
			for _, op := range rest {
				if op.cost <= u {
					if v := prev[u-op.cost] + op.score; v > best {
						best = v
					}
				}
			}
			cur[u] = best
		}
		dp[li+1] = cur
	}
	choice := make([]int, nl)
	u := budget
	for li := nl - 1; li >= 0; li-- {
		target := dp[li+1][u]
		for d, op := range layers[li] {
			if op.cost <= u && dp[li][u-op.cost]+op.score == target {
				choice[li] = d
				u -= op.cost
				break
			}
		}
	}
	return choice
}

// refPlanErrorBound is PlanErrorBoundMode as it was, on refMaximizeValue.
func (a *Archive) refPlanErrorBound(bound float64) Plan {
	budget := bound - a.h.eb - a.slack
	plan := a.fullPlan()
	if a.h.prog == 0 || budget <= 0 {
		return plan
	}
	unit := budget / errorUnits
	layers := make([][]refOption, a.h.prog)
	for l := 1; l <= a.h.prog; l++ {
		m := a.h.metaOf(l)
		opts := make([]refOption, m.usedPlanes+1)
		var cum int64
		for d := 0; d <= m.usedPlanes; d++ {
			if d > 0 {
				cum += int64(m.blockSizes[m.usedPlanes-d])
			}
			errCost := a.truncErr(l, m.usedPlanes-d)
			c := 0
			switch {
			case errCost <= 0:
			case errCost > budget:
				c = errorUnits + 1
			default:
				c = int(math.Ceil(errCost / unit))
			}
			opts[d] = refOption{cost: c, value: cum, errF: errCost}
		}
		layers[l-1] = opts
	}
	drops := refMaximizeValue(layers, errorUnits)
	for l := 1; l <= a.h.prog; l++ {
		plan.Keep[l-1] = a.h.metaOf(l).usedPlanes - drops[l-1]
	}
	return plan
}

// refPlanBitrate is PlanBitrateMode as it was, on refMinimizeError.
func (a *Archive) refPlanBitrate(maxBytes int64) Plan {
	minimal := a.minimalPlan()
	remaining := maxBytes - a.PlanBytes(minimal)
	if a.h.prog == 0 || remaining <= 0 {
		return minimal
	}
	if full := a.fullPlan(); a.PlanBytes(full) <= maxBytes {
		return full
	}
	unit := float64(remaining) / sizeUnits
	layers := make([][]refOption, a.h.prog)
	for l := 1; l <= a.h.prog; l++ {
		m := a.h.metaOf(l)
		opts := make([]refOption, m.usedPlanes+1)
		var cum int64
		for k := 0; k <= m.usedPlanes; k++ {
			if k > 0 {
				cum += int64(m.blockSizes[k-1])
			}
			c := 0
			if cum > 0 {
				if cum > remaining {
					c = sizeUnits + 1
				} else {
					c = int(math.Ceil(float64(cum) / unit))
				}
			}
			opts[k] = refOption{cost: c, errF: a.truncErr(l, k)}
		}
		layers[l-1] = opts
	}
	keeps := refMinimizeError(layers, sizeUnits)
	plan := minimal.clone()
	copy(plan.Keep, keeps)
	return plan
}

// progArchives returns three archives at the default progressive
// threshold, one per number of progressive levels a served tile has: a 32³
// tile (prog 1), a 64³ tile (prog 2) and a 128³ field (prog 3). They are
// built once per test binary.
var progArchives = sync.OnceValues(func() ([]*Archive, error) {
	var archives []*Archive
	for i, edge := range []int{32, 64, 128} {
		blob, err := Compress(smoothField(grid.Shape{edge, edge, edge}, int64(40+i)),
			Options{ErrorBound: 1e-8, Interpolation: interp.Cubic})
		if err != nil {
			return nil, err
		}
		a, err := NewArchive(blob)
		if err != nil {
			return nil, err
		}
		if a.h.prog != i+1 {
			return nil, fmt.Errorf("%d³ archive has %d progressive levels, want %d", edge, a.h.prog, i+1)
		}
		archives = append(archives, a)
	}
	return archives, nil
})

// randomLayers draws a knapsack instance: 1–6 layers of 1–24 options whose
// scores come from a handful of values, so most instances are decided by
// ties, and whose costs reach budget+1, so some options never fit. Option
// 0 costs nothing, as in both planning modes.
func randomLayers(rng *rand.Rand, budget int) [][]refOption {
	errs := []float64{0, 0.1, 0.2, 0.3, 1e-9, 7}
	layers := make([][]refOption, 1+rng.Intn(6))
	for li := range layers {
		opts := make([]refOption, 1+rng.Intn(24))
		for k := range opts {
			if k > 0 {
				switch rng.Intn(4) {
				case 0:
					opts[k].cost = budget + 1
				case 1:
					opts[k].cost = budget - rng.Intn(3)
				default:
					opts[k].cost = rng.Intn(budget + 2)
				}
				opts[k].cost = max(opts[k].cost, 0)
			}
			opts[k].value = int64(rng.Intn(4))
			opts[k].errF = errs[rng.Intn(len(errs))]
		}
		layers[li] = opts
	}
	return layers
}

// TestKnapsackMatchesFormerSolvers holds solveKnapsack to the full-table
// solver it replaced and to the two solvers before that, on random
// instances with budgets up to sizeUnits; a share of them also carries
// NaN, infinite and signed-zero scores, which only refSolveKnapsack reads.
// Then both planning modes are swept over archives with one, two and three
// progressive levels, whose plans must come out identical.
func TestKnapsackMatchesFormerSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, -1}
	for trial := 0; trial < 3000; trial++ {
		budget := rng.Intn(48)
		if trial%10 == 0 {
			budget = []int{errorUnits, sizeUnits, rng.Intn(sizeUnits + 1)}[rng.Intn(3)]
		}
		layers := randomLayers(rng, budget)
		byValue := make([][]dpOption, len(layers))
		byErr := make([][]dpOption, len(layers))
		byOdd := make([][]dpOption, len(layers))
		for li, opts := range layers {
			for _, op := range opts {
				byValue[li] = append(byValue[li], dpOption{cost: op.cost, score: float64(op.value)})
				byErr[li] = append(byErr[li], dpOption{cost: op.cost, score: -op.errF})
				byOdd[li] = append(byOdd[li], dpOption{cost: op.cost, score: odd[rng.Intn(len(odd))]})
			}
		}
		for _, c := range []struct {
			what   string
			layers [][]dpOption
			former []int
		}{
			{"bytes saved", byValue, refMaximizeValue(layers, budget)},
			{"error", byErr, refMinimizeError(layers, budget)},
			{"odd scores", byOdd, nil},
		} {
			got, want := solveKnapsack(c.layers, budget), refSolveKnapsack(c.layers, budget)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, %s: chose %v, full table %v (layers %v, budget %d)", trial, c.what, got, want, c.layers, budget)
			}
			if c.former != nil && !slices.Equal(got, c.former) {
				t.Fatalf("trial %d, %s: chose %v, former solver %v (layers %v, budget %d)", trial, c.what, got, c.former, layers, budget)
			}
		}
	}

	a, _, eb := archiveForProps(t)
	archives, err := progArchives()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range append([]*Archive{a}, archives...) {
		for i := 0; i <= 400; i++ {
			bound := eb * math.Exp2(float64(i)*24/400)
			got, err := a.PlanErrorBoundMode(bound)
			if err != nil {
				t.Fatal(err)
			}
			if want := a.refPlanErrorBound(bound); !slices.Equal(got.Keep, want.Keep) {
				t.Fatalf("prog %d: PlanErrorBoundMode(%g) = %v, former solver %v", a.h.prog, bound, got.Keep, want.Keep)
			}
		}
		total := a.TotalSize()
		for i := 0; i <= 400; i++ {
			maxBytes := total * int64(i) / 400
			got, err := a.PlanBitrateMode(maxBytes)
			if err != nil {
				t.Fatal(err)
			}
			if want := a.refPlanBitrate(maxBytes); !slices.Equal(got.Keep, want.Keep) {
				t.Fatalf("prog %d: PlanBitrateMode(%d) = %v, former solver %v", a.h.prog, maxBytes, got.Keep, want.Keep)
			}
		}
	}
}

// TestPlanAllocatesNoFullTable pins what error-bound planning allocates: a
// one-layer knapsack (a 32³ tile) builds no budget+1 row at all, a
// two-layer one (a 64³ tile) at most one. Besides its rows, a plan
// allocates its Keep, the option table and one option slice per level, and
// the solver's choice.
func TestPlanAllocatesNoFullTable(t *testing.T) {
	archives, err := progArchives()
	if err != nil {
		t.Fatal(err)
	}
	const row = 8 * (errorUnits + 1)
	for _, a := range archives[:2] {
		prog := a.h.prog
		bound := 300 * 1e-8 // 300·eb: the knapsack runs
		if _, err := a.PlanErrorBoundMode(bound); err != nil {
			t.Fatal(err)
		}
		rows := prog - 1
		allocs := testing.AllocsPerRun(50, func() { a.PlanErrorBoundMode(bound) })
		if want := float64(3 + prog + rows); allocs > want {
			t.Errorf("prog %d: %v allocations per plan, want at most %v", prog, allocs, want)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 50
		for range runs {
			a.PlanErrorBoundMode(bound)
		}
		runtime.ReadMemStats(&after)
		if perPlan := (after.TotalAlloc - before.TotalAlloc) / runs; perPlan >= uint64((rows+1)*row) {
			t.Errorf("prog %d: %d B per plan holds more than %d row(s) of %d B", prog, perPlan, rows, row)
		}
	}
}
