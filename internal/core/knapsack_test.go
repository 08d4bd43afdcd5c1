package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
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

// TestKnapsackMatchesFormerSolvers holds solveKnapsack to the two solvers
// it replaced. Random layers draw scores from a handful of values, so most
// instances are decided by ties, and costs past the budget, so some options
// never fit; then both planning modes are swept over one archive, whose
// plans must come out identical.
func TestKnapsackMatchesFormerSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	errs := []float64{0, 0.1, 0.2, 0.3, 1e-9, 7}
	for trial := 0; trial < 3000; trial++ {
		budget := rng.Intn(48)
		layers := make([][]refOption, 1+rng.Intn(6))
		byValue := make([][]dpOption, len(layers))
		byErr := make([][]dpOption, len(layers))
		for li := range layers {
			opts := make([]refOption, 1+rng.Intn(8))
			for k := range opts {
				if k > 0 {
					opts[k].cost = rng.Intn(budget + 3)
				}
				opts[k].value = int64(rng.Intn(4))
				opts[k].errF = errs[rng.Intn(len(errs))]
				byValue[li] = append(byValue[li], dpOption{cost: opts[k].cost, score: float64(opts[k].value)})
				byErr[li] = append(byErr[li], dpOption{cost: opts[k].cost, score: -opts[k].errF})
			}
			layers[li] = opts
		}
		if got, want := solveKnapsack(byValue, budget), refMaximizeValue(layers, budget); !slices.Equal(got, want) {
			t.Fatalf("trial %d, bytes saved: chose %v, maximizeValue %v (layers %v, budget %d)", trial, got, want, layers, budget)
		}
		if got, want := solveKnapsack(byErr, budget), refMinimizeError(layers, budget); !slices.Equal(got, want) {
			t.Fatalf("trial %d, error: chose %v, minimizeError %v (layers %v, budget %d)", trial, got, want, layers, budget)
		}
	}

	a, _, eb := archiveForProps(t)
	for i := 0; i <= 400; i++ {
		bound := eb * math.Exp2(float64(i)*24/400)
		got, err := a.PlanErrorBoundMode(bound)
		if err != nil {
			t.Fatal(err)
		}
		if want := a.refPlanErrorBound(bound); !slices.Equal(got.Keep, want.Keep) {
			t.Fatalf("PlanErrorBoundMode(%g) = %v, former solver %v", bound, got.Keep, want.Keep)
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
			t.Fatalf("PlanBitrateMode(%d) = %v, former solver %v", maxBytes, got.Keep, want.Keep)
		}
	}
}
