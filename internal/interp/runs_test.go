package interp

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
)

// visitFunc receives a target point's flat index and its prediction and
// returns the value to store there.
type visitFunc = func(idx int, pred float64) float64

// visitPoints walks level l of d one point at a time in canonical order by
// driving LevelPasses/VisitRuns directly. When data is nil the predictions
// are zero and nothing is stored.
func visitPoints(d *Decomposition, data []float64, l int, kind Kind, fn visitFunc) {
	for _, p := range d.LevelPasses(l) {
		p.VisitRuns(kind, 0, p.Targets(), func(r *Run) {
			for i, f := 0, r.Flat; i < r.N; i, f = i+1, f+r.Step {
				pred := 0.0
				if data != nil {
					pred = r.Predict(data, f)
				}
				v := fn(f, pred)
				if data != nil {
					data[f] = v
				}
			}
		})
	}
}

// refVisitLevel is the original per-point closure implementation, kept
// verbatim as the oracle the batched run engine must match exactly: same
// visit order, same flat indices, bit-identical predictions.
func refVisitLevel(d *Decomposition, data []float64, l int, kind Kind, fn visitFunc) {
	s := 1 << uint(l-1)
	for dim := 0; dim < len(d.shape); dim++ {
		nd := len(d.shape)
		steps := make([]coordStep, nd)
		for j := 0; j < nd; j++ {
			switch {
			case j < dim:
				steps[j] = coordStep{start: 0, step: s, limit: d.shape[j]}
			case j == dim:
				steps[j] = coordStep{start: s, step: 2 * s, limit: d.shape[j]}
			default:
				steps[j] = coordStep{start: 0, step: 2 * s, limit: d.shape[j]}
			}
		}
		extent := d.shape[dim]
		stride := d.strides[dim]
		refIterateWithCoord(d, steps, dim, func(flat, c int) {
			pred := 0.0
			if data != nil {
				pred = refPredict1D(data, flat, c, s, stride, extent, kind)
			}
			v := fn(flat, pred)
			if data != nil {
				data[flat] = v
			}
		})
	}
}

func refPredict1D(data []float64, flat, c, s, stride, extent int, kind Kind) float64 {
	if c+s >= extent {
		return data[flat-s*stride]
	}
	if kind == Cubic && c-3*s >= 0 && c+3*s < extent {
		return (-data[flat-3*s*stride] + 9*data[flat-s*stride] +
			9*data[flat+s*stride] - data[flat+3*s*stride]) / 16
	}
	return 0.5 * (data[flat-s*stride] + data[flat+s*stride])
}

func refIterateWithCoord(d *Decomposition, steps []coordStep, watchDim int, fn func(flat, c int)) {
	idx := make([]int, len(steps))
	for i := range idx {
		idx[i] = steps[i].start
		if idx[i] >= steps[i].limit {
			return
		}
	}
	for {
		flat := 0
		for i, c := range idx {
			flat += c * d.strides[i]
		}
		fn(flat, idx[watchDim])
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i] += steps[i].step
			if idx[i] < steps[i].limit {
				break
			}
			idx[i] = steps[i].start
		}
		if i < 0 {
			return
		}
	}
}

var crossShapes = []grid.Shape{
	{1}, {2}, {3}, {7}, {64}, {65}, {257},
	{5, 9}, {16, 16}, {1, 12}, {2, 2}, {33, 29},
	{7, 6, 5}, {8, 8, 8}, {3, 1, 9}, {17, 19, 23},
	{3, 4, 5, 2}, {7, 9, 11, 13}, {1, 1, 1, 5},
}

// TestRunEngineMatchesReference replays every level of many shapes through
// both the batched engine (LevelPasses/VisitRuns) and the original
// per-point walk, asserting identical visit order, indices, and predictions.
func TestRunEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, shape := range crossShapes {
		for _, kind := range []Kind{Linear, Cubic} {
			d, err := NewDecomposition(shape)
			if err != nil {
				t.Fatal(err)
			}
			orig := make([]float64, shape.Len())
			for i := range orig {
				orig[i] = rng.NormFloat64()
			}
			type visit struct {
				idx  int
				pred float64
			}
			collect := func(walk func(data []float64, l int, fn visitFunc)) []visit {
				data := append([]float64(nil), orig...)
				var out []visit
				for l := d.NumLevels(); l >= 1; l-- {
					walk(data, l, func(idx int, pred float64) float64 {
						out = append(out, visit{idx, pred})
						return data[idx] // lossless pass-through
					})
				}
				return out
			}
			got := collect(func(data []float64, l int, fn visitFunc) {
				visitPoints(d, data, l, kind, fn)
			})
			want := collect(func(data []float64, l int, fn visitFunc) {
				refVisitLevel(d, data, l, kind, fn)
			})
			if len(got) != len(want) {
				t.Fatalf("shape %v %v: %d visits, reference %d", shape, kind, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shape %v %v visit %d: got {%d %v}, reference {%d %v}",
						shape, kind, i, got[i].idx, got[i].pred, want[i].idx, want[i].pred)
				}
			}
		}
	}
}

// TestLevelCountClosedForm pins the arithmetic LevelCount to the actual
// walk length for many shapes.
func TestLevelCountClosedForm(t *testing.T) {
	for _, shape := range crossShapes {
		d, err := NewDecomposition(shape)
		if err != nil {
			t.Fatal(err)
		}
		for l := 1; l <= d.NumLevels(); l++ {
			walked := 0
			visitPoints(d, nil, l, Linear, func(int, float64) float64 { walked++; return 0 })
			ref := 0
			refVisitLevel(d, nil, l, Linear, func(int, float64) float64 { ref++; return 0 })
			if got := d.LevelCount(l); got != ref || walked != ref {
				t.Fatalf("shape %v level %d: LevelCount=%d walked=%d reference=%d",
					shape, l, got, walked, ref)
			}
		}
	}
}

// TestVisitRunsSharding asserts that any target-range partition of a pass
// visits exactly the canonical targets, with correct Seq bookkeeping.
func TestVisitRunsSharding(t *testing.T) {
	for _, shape := range crossShapes {
		d, err := NewDecomposition(shape)
		if err != nil {
			t.Fatal(err)
		}
		for l := 1; l <= d.NumLevels(); l++ {
			for _, kind := range []Kind{Linear, Cubic} {
				// Serial canonical order first.
				type target struct{ flat, seq int }
				var canon []target
				for _, p := range d.LevelPasses(l) {
					p.VisitRuns(kind, 0, p.Targets(), func(r *Run) {
						for i := 0; i < r.N; i++ {
							canon = append(canon, target{r.Flat + i*r.Step, r.Seq + i})
						}
					})
				}
				// Then an uneven 3-way sharding of each pass.
				bySeq := make(map[int]int, len(canon))
				for _, p := range d.LevelPasses(l) {
					n := p.Targets()
					cuts := []int{0, n / 3, n / 3 * 2, n}
					for c := 0; c+1 < len(cuts); c++ {
						p.VisitRuns(kind, cuts[c], cuts[c+1], func(r *Run) {
							for i := 0; i < r.N; i++ {
								bySeq[r.Seq+i] = r.Flat + i*r.Step
							}
						})
					}
				}
				if len(bySeq) != len(canon) {
					t.Fatalf("shape %v level %d: sharded visits %d, canonical %d",
						shape, l, len(bySeq), len(canon))
				}
				for i, tg := range canon {
					if tg.seq != i {
						t.Fatalf("shape %v level %d: canonical seq %d at position %d", shape, l, tg.seq, i)
					}
					if bySeq[i] != tg.flat {
						t.Fatalf("shape %v level %d seq %d: sharded flat %d, canonical %d",
							shape, l, i, bySeq[i], tg.flat)
					}
				}
			}
		}
	}
}

// TestWalkCoversPass asserts that any line partition of a pass — thirds,
// and random shardings — walks every target exactly once, each with its
// canonical flat index, prediction formula and neighbour offsets, whatever
// the order; that every block stays inside its shard's lines, holds at
// most rowBlock rows and walks to the same targets as rows and as columns
// (Transpose); and that FlatIndex agrees with the canonical walk. Two
// extra shapes have more rows than a block.
func TestWalkCoversPass(t *testing.T) {
	type target struct {
		flat, off1, off3 int
		mode             RunMode
	}
	rng := rand.New(rand.NewSource(7))
	for _, shape := range append(crossShapes, grid.Shape{70, 45}, grid.Shape{3, 100, 7}) {
		d, err := NewDecomposition(shape)
		if err != nil {
			t.Fatal(err)
		}
		for l := 1; l <= d.NumLevels(); l++ {
			for _, kind := range []Kind{Linear, Cubic} {
				for _, p := range d.LevelPasses(l) {
					canon := make(map[int]target)
					p.VisitRuns(kind, 0, p.Targets(), func(r *Run) {
						if r.Rows != 1 {
							t.Fatalf("shape %v level %d: VisitRuns run of %d rows", shape, l, r.Rows)
						}
						for i := 0; i < r.N; i++ {
							canon[r.Seq+i] = target{r.Flat + i*r.Step, r.Off1, r.Off3, r.Mode}
						}
					})
					lines, width := p.Lines()
					if lines*width != p.Targets() {
						t.Fatalf("shape %v level %d: %d lines of %d for %d targets", shape, l, lines, width, p.Targets())
					}
					for trial := 0; trial < 4; trial++ {
						cuts := []int{0, lines / 3, lines / 3 * 2, lines}
						if trial > 0 {
							cuts = randomCuts(rng, lines)
						}
						seen := make(map[int]bool, len(canon))
						for c := 0; c+1 < len(cuts); c++ {
							var r Run
							w := p.Walk(kind, cuts[c], cuts[c+1])
							for w.Next(&r) {
								if r.Rows < 1 || r.Rows > rowBlock || r.N < 1 {
									t.Fatalf("shape %v level %d: block of %d rows × %d", shape, l, r.Rows, r.N)
								}
								tr := r
								tr.Transpose()
								for i := 0; i < r.Rows; i++ {
									for k := 0; k < r.N; k++ {
										seq := r.Seq + i*r.RowSeqStep + k*r.SeqStep
										got := target{r.Flat + i*r.RowStep + k*r.Step, r.Off1, r.Off3, r.Mode}
										if want, ok := canon[seq]; !ok || got != want || seen[seq] {
											t.Fatalf("shape %v level %d %s seq %d: walked %+v (again: %v), canonical %+v",
												shape, l, kind, seq, got, seen[seq], want)
										}
										if seq < p.SeqOffset()+cuts[c]*width || seq >= p.SeqOffset()+cuts[c+1]*width {
											t.Fatalf("shape %v level %d: seq %d outside lines [%d, %d)", shape, l, seq, cuts[c], cuts[c+1])
										}
										cf, cs := tr.Flat+k*tr.RowStep+i*tr.Step, tr.Seq+k*tr.RowSeqStep+i*tr.SeqStep
										if cf != got.flat || cs != seq {
											t.Fatalf("shape %v level %d: column %d row %d at %d/%d, row walk %d/%d", shape, l, k, i, cf, cs, got.flat, seq)
										}
										seen[seq] = true
									}
								}
							}
						}
						if len(seen) != len(canon) {
							t.Fatalf("shape %v level %d %s cuts %v: walked %d of %d targets", shape, l, kind, cuts, len(seen), len(canon))
						}
					}
					for seq, tg := range canon {
						if f := p.FlatIndex(seq - p.SeqOffset()); f != tg.flat {
							t.Fatalf("shape %v level %d: FlatIndex(%d) = %d, canonical %d", shape, l, seq-p.SeqOffset(), f, tg.flat)
						}
					}
				}
			}
		}
	}
}

// randomCuts returns a random partition of [0, lines) into 1 to 6 line
// ranges, some of them empty.
func randomCuts(rng *rand.Rand, lines int) []int {
	cuts := []int{0, lines}
	for n := rng.Intn(6); n > 0; n-- {
		cuts = append(cuts, rng.Intn(lines+1))
	}
	slices.Sort(cuts)
	return cuts
}
