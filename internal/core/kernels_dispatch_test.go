package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bitplane"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/nb"
	"repro/internal/quant"
)

// vectorPath switches the core kernels onto the AVX2 path (skipping the
// test when the host has none) or forces the generic path, and restores
// the hardware default on cleanup.
func vectorPath(t *testing.T, on bool) {
	t.Helper()
	if got := setAVX2(on); on && !got {
		t.Skip("AVX2 kernels unavailable on this host")
	}
	t.Cleanup(func() { setAVX2(true) })
}

// TestQuantizeDispatchDifferential compresses the golden datasets (which
// include outlier spikes, so the bail-to-scalar protocol is exercised at
// group boundaries) down both kernel paths and requires byte-identical
// archives for both scalar widths. Its columns/* subtests quantize
// columnShapes, whose level-1 columns carry planted outliers — at a
// column's ends and inside it — and whose columns run from one point to
// several groups, down both paths, and hold each to the spec functions in
// canonical order (checkQuantizerSpec): indices, outlier order and values,
// work array.
func TestQuantizeDispatchDifferential(t *testing.T) {
	t.Cleanup(func() { setAVX2(true) })
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			if !setAVX2(true) {
				t.Skip("AVX2 kernels unavailable on this host")
			}
			opt := Options{ErrorBound: 1e-6, Interpolation: tc.kind}
			g64 := goldenField(t, tc.shape)
			setAVX2(true)
			asm64, err := Compress(g64, opt)
			if err != nil {
				t.Fatal(err)
			}
			setAVX2(false)
			gen64, err := Compress(g64, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(asm64, gen64) {
				t.Errorf("float64 archive differs between AVX2 and generic kernels (%d vs %d bytes)", len(asm64), len(gen64))
			}

			g32 := goldenField32(t, tc.shape)
			setAVX2(true)
			asm32, err := Compress(g32, opt)
			if err != nil {
				t.Fatal(err)
			}
			setAVX2(false)
			gen32, err := Compress(g32, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(asm32, gen32) {
				t.Errorf("float32 archive differs between AVX2 and generic kernels (%d vs %d bytes)", len(asm32), len(gen32))
			}
		})
	}
	for _, cs := range columnShapes {
		for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
			t.Run(fmt.Sprintf("columns/%s/%s", cs.tag, kind), func(t *testing.T) {
				g := goldenField(t, cs.shape)
				plantColumnOutliers(t, g.Data(), cs.shape, kind)
				dec, err := interp.NewDecomposition(cs.shape)
				if err != nil {
					t.Fatal(err)
				}
				q := quant.New(1e-6)
				for _, avx := range []bool{true, false} {
					if setAVX2(avx) != avx {
						continue // no AVX2 here: the generic path alone
					}
					checkQuantizerSpec(t, g.Data(), dec, kind, q)
					checkQuantizerSpec(t, grid.Narrow(g).Data(), dec, kind, q)
				}
			})
		}
	}
}

// TestApplyDispatchDifferential retrieves the same archive down both
// kernel paths — full fidelity and a truncated progressive plan — and
// requires bit-identical reconstructions (outlier overrides included).
// Beside goldenCases it runs columnShapes, whose level-1 columns carry
// planted outliers, and holds both paths there to refRebuild too: a
// reconstruction that drops the outliers would pass a differential alone.
func TestApplyDispatchDifferential(t *testing.T) {
	if !setAVX2(true) {
		t.Skip("AVX2 kernels unavailable on this host")
	}
	t.Cleanup(func() { setAVX2(true) })
	retrieve := func(t *testing.T, blob []byte, bound float64) []float64 {
		t.Helper()
		a, err := NewArchive(blob)
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		if bound > 0 {
			res, err = a.RetrieveErrorBound(bound)
		} else {
			res, err = a.RetrieveAll()
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.Data()
	}
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{ErrorBound: 1e-6, Interpolation: tc.kind}
			for _, width := range []string{"f64", "f32"} {
				var blob []byte
				var err error
				if width == "f64" {
					blob, err = Compress(goldenField(t, tc.shape), opt)
				} else {
					blob, err = Compress(goldenField32(t, tc.shape), opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, bound := range []float64{0, 1e-3} {
					setAVX2(true)
					asm := retrieve(t, blob, bound)
					setAVX2(false)
					gen := retrieve(t, blob, bound)
					if len(asm) != len(gen) {
						t.Fatalf("%s bound=%v: length mismatch", width, bound)
					}
					for i := range asm {
						if asm[i] != gen[i] && !(math.IsNaN(asm[i]) && math.IsNaN(gen[i])) {
							t.Fatalf("%s bound=%v: value %d differs: asm=%v generic=%v", width, bound, i, asm[i], gen[i])
						}
					}
				}
			}
		})
	}
	for _, cs := range columnShapes {
		for _, kind := range []interp.Kind{interp.Linear, interp.Cubic} {
			t.Run(fmt.Sprintf("columns/%s/%s", cs.tag, kind), func(t *testing.T) {
				g := goldenField(t, cs.shape)
				planted := plantColumnOutliers(t, g.Data(), cs.shape, kind)
				opt := Options{ErrorBound: 1e-6, Interpolation: kind}
				blob64, err := Compress(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				blob32, err := Compress(grid.Narrow(g), opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, bound := range []float64{0, 1e-3} {
					checkColumnRebuild[float64](t, blob64, bound, planted)
					checkColumnRebuild[float32](t, blob32, bound, planted)
				}
			})
		}
	}
}

// columnShapes are the fields TestApplyDispatchDifferential and
// TestQuantizeDispatchDifferential walk for the block walk
// (interp.Pass.Walk): rows that fill pair groups or not, and columns;
// goldenCases stays as it is, its archive SHAs being pinned.
var columnShapes = []struct {
	tag   string
	shape grid.Shape
}{
	{"3Dx32x32x32", grid.Shape{32, 32, 32}}, // a store tile: level-1 blocks of 32 rows, interiors of 14
	{"3Dx9x5x41", grid.Shape{9, 5, 41}},     // columns of 5, 3, 2, 1: shorter than a vector; rows of 21 and 17
	{"3Dx6x29x21", grid.Shape{6, 29, 21}},   // columns of 29: a full group, then an overlapped one
	{"2Dx70x45", grid.Shape{70, 45}},        // 2-D: 70 rows, walked as blocks of 24, 23 and 23
	{"4Dx3x5x27x11", grid.Shape{3, 5, 27, 11}},
}

// plantColumnOutliers spikes targets of every pass of level 1, in every
// third block of its walk: the first and last row and column of the
// block, and the first row and column of the last, overlapped group of a
// row or column at either vector width. It returns their flat indices.
func plantColumnOutliers(t *testing.T, data []float64, shape grid.Shape, kind interp.Kind) map[int]bool {
	t.Helper()
	dec, err := interp.NewDecomposition(shape)
	if err != nil {
		t.Fatal(err)
	}
	// ends returns 0, n-1 and the start of an overlapped last group.
	ends := func(n int) []int {
		at := []int{0, n - 1}
		for _, lanes := range []int{4, 8} {
			if n > lanes && n%lanes != 0 {
				at = append(at, n-lanes)
			}
		}
		return at
	}
	planted := make(map[int]bool)
	spike := 1e6
	for _, p := range dec.LevelPasses(1) {
		lines, _ := p.Lines()
		var r interp.Run
		w := p.Walk(kind, 0, lines)
		for c := 0; w.Next(&r); c++ {
			if c%3 != 0 {
				continue
			}
			for _, i := range ends(r.Rows) {
				for _, k := range ends(r.N) {
					if f := r.Flat + i*r.RowStep + k*r.Step; !planted[f] {
						planted[f] = true
						data[f] += spike
					}
				}
			}
		}
		// A pass predicts from the targets of the passes before it, at
		// most 1.25 times their spike: doubled with the sign flipped, a
		// spike stays an outlier whatever its neighbours hold.
		spike *= -2
	}
	return planted
}

// checkColumnRebuild retrieves blob at bound down both kernel paths and
// requires both to be refRebuild's reconstruction bit for bit, and every
// planted point to be one of the archive's outliers.
func checkColumnRebuild[T grid.Scalar](t *testing.T, blob []byte, bound float64, planted map[int]bool) {
	t.Helper()
	a, err := NewArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	stored := make(map[int]bool)
	m := a.h.metaOf(1)
	for _, p := range a.dec.LevelPasses(1) {
		p.VisitRuns(a.h.kind, 0, p.Targets(), func(r *interp.Run) {
			for k := 0; k < r.N; k++ {
				if _, ok := slices.BinarySearch(m.outlierIdx, uint32(r.Seq+k)); ok {
					stored[r.Flat+k*r.Step] = true
				}
			}
		})
	}
	for f := range planted {
		if !stored[f] {
			t.Fatalf("planted point %d is not an outlier of the archive", f)
		}
	}
	for _, avx := range []bool{true, false} {
		setAVX2(avx)
		var res *Result
		if bound > 0 {
			res, err = a.RetrieveErrorBound(bound)
		} else {
			res, err = a.RetrieveAll()
		}
		if err != nil {
			t.Fatal(err)
		}
		got, want := DataOf[T](res), refRebuild[T](a, planIndices(t, a, res.plan))
		for i := range want {
			if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
				t.Fatalf("%T avx2=%v bound=%v: value %d = %v, reference %v (planted %v)", got[i], avx, bound, i, got[i], want[i], planted[i])
			}
		}
	}
}

// planIndices returns the truncated indices of plan, decoded without the
// kernel a rebuild merges with: fetch decodes every plane the plan loads
// into a fresh backing, and each level's are un-predicted plane by plane
// (bitplane.PredictDecode), merged by the plain-Go block merge
// (bitplane.MergeInto) and negabinary-decoded value by value.
func planIndices(tb testing.TB, a *Archive, plan Plan) [][]int32 {
	tb.Helper()
	planes := fetchAll(tb, &Result{arch: a, plan: Plan{Keep: make([]int, a.h.levels)}}, plan)
	ks := make([][]int32, a.h.levels)
	for l := 1; l <= a.h.levels; l++ {
		m := a.h.metaOf(l)
		keep := min(a.keepOf(plan, l), m.usedPlanes)
		slots := a.h.levelSlots(planes, l)
		var loaded [bitplane.Planes][]byte
		used := loaded[bitplane.Planes-m.usedPlanes:]
		for p := range keep {
			used[p] = m.plane(slots, p)
		}
		bitplane.PredictDecode(used[:keep])
		codes := make([]uint32, m.count)
		bitplane.MergeInto(codes, loaded[:])
		ks[l-1] = make([]int32, m.count)
		for i, c := range codes {
			ks[l-1][i] = nb.Decode32(c)
		}
	}
	return ks
}

// fetchAll runs fetch for a raise of r to plan into a fresh plane backing
// and returns it; header.levelSlots cuts each level's planes out of it.
func fetchAll(tb testing.TB, r *Result, plan Plan) []byte {
	tb.Helper()
	planes := make([]byte, r.arch.h.planeSlots())
	if _, err := r.fetch(plan, planes, nil); err != nil {
		tb.Fatal(err)
	}
	return planes
}

// refRebuild is the reconstruction before the column walk: every pass in
// canonical order (VisitRuns), one point at a time, the outlier cursor
// advancing with the sequence index.
func refRebuild[T grid.Scalar](a *Archive, indices [][]int32) []T {
	data := make([]T, a.h.shape.Len())
	for i, f := range a.dec.Anchors() {
		data[f] = T(a.h.anchors[i])
	}
	step := T(a.quant.Step())
	for l := a.h.levels; l >= 1; l-- {
		m, ks, oi := a.h.metaOf(l), indices[l-1], 0
		for _, p := range a.dec.LevelPasses(l) {
			p.VisitRuns(a.h.kind, 0, p.Targets(), func(r *interp.Run) {
				for k := 0; k < r.N; k++ {
					f, seq := r.Flat+k*r.Step, r.Seq+k
					v := interp.Predict(r, data, f) + T(ks[seq])*step
					if oi < len(m.outlierIdx) && int(m.outlierIdx[oi]) == seq {
						v = T(m.outlierVal[oi])
						oi++
					}
					data[f] = v
				}
			})
		}
	}
	return data
}

// TestQuantizeAccelCommits drives the strided kernels directly on a block
// of three in-window rows of 24 targets 3 elements apart — whole groups at
// either width — and wants quantizeAccel to commit every group (a kernel
// that bails on each would pass every differential test and lose the
// speedup) with the scalar loop's indices and values, and applyAccel to
// take the block and rebuild those values from the indices. Targets sit
// where the flat index is 1 mod 3 and predictions read the points before
// them, matching the pass invariant that a run never predicts from its own
// writes.
func TestQuantizeAccelCommits(t *testing.T) {
	vectorPath(t, true)
	checkKernelsCommit[float64](t, 1e-6, 3, 24)
	checkKernelsCommit[float32](t, 1e-3, 3, 24)
}

// TestPairKernelsCommit is TestQuantizeAccelCommits for the pair kernels:
// rows of 13 targets 2 elements apart — full groups, then an overlapped
// one at either width.
func TestPairKernelsCommit(t *testing.T) {
	vectorPath(t, true)
	checkKernelsCommit[float64](t, 1e-6, 2, 13)
	checkKernelsCommit[float32](t, 1e-3, 2, 13)
}

func checkKernelsCommit[T grid.Scalar](t *testing.T, eb float64, step, n int) {
	const rows = 3
	width := step*n + 2
	q := newLevelQuantizer(make([]T, width*rows), quant.New(eb))
	for i := range q.work {
		q.work[i] = T(math.Sin(float64(i) * 0.05))
	}
	want := append([]T(nil), q.work...)
	r := interp.Run{Flat: 1, Step: step, SeqStep: 1, N: n, Off1: 1, Mode: interp.RunCopyLeft,
		Rows: rows, RowStep: width, RowSeqStep: n}
	ks := make([]int32, n*rows)
	if at := quantizeAccel(q.work, ks, &r, 0, q.step, q.invStep, q.eb); at != -1 {
		t.Fatalf("%T step %d: quantizeAccel stopped at group %d", want[0], step, at)
	}
	ref := levelQuantizer[T]{work: want, step: q.step, invStep: q.invStep, eb: q.eb}
	wantKs := make([]int32, n*rows)
	for i := range rows {
		if out := ref.quantizeScalar(&r, wantKs, r.Flat+i*width, i*n, n, nil); len(out) != 0 {
			t.Fatalf("%T step %d: fixture row %d has outliers; tighten the test data", want[0], step, i)
		}
	}
	if !slices.Equal(ks, wantKs) || !slices.Equal(q.work, want) {
		t.Fatalf("%T step %d: quantize kernel differs from the scalar loop", want[0], step)
	}
	data := append([]T(nil), want...)
	for i := range rows {
		for k := range n {
			data[r.Flat+i*width+k*r.Step] = 0
		}
	}
	if !applyAccel(data, ks, &r, q.step) {
		t.Fatalf("%T step %d: applyAccel left the block to the caller", want[0], step)
	}
	if !slices.Equal(data, want) {
		t.Fatalf("%T step %d: apply kernel does not rebuild the quantized values", want[0], step)
	}
}

// TestStridedQuantizeResumes drives the strided quantize kernels through
// the resume protocol of quantizeBlock on blocks of several rows whose
// length ends in a partial group: a block of rows 3 elements apart, and a
// boundary block of rows of 3 targets that lineup turns into columns. One
// outlier sits in a middle row's second group. The kernel must return
// exactly that group, then the partial last group of every row, numbered
// g·rows + row, then −1; and the indices, work array and outliers of the
// driven block, and of quantizeBlock, must be the scalar loop's.
func TestStridedQuantizeResumes(t *testing.T) {
	vectorPath(t, true)
	checkStridedResume[float64](t, 1e-6)
	checkStridedResume[float32](t, 1e-3)
}

func checkStridedResume[T grid.Scalar](t *testing.T, eb float64) {
	lanes := lanes[T]()
	rowN := 2*lanes + 3 // two full groups and a partial one
	blocks := []struct {
		name string
		r    interp.Run // before lineup
		size int        // of the work array
	}{
		{"rows", interp.Run{Flat: 1, Step: 3, SeqStep: 1, N: rowN, Off1: 1, Mode: interp.RunCopyLeft,
			Rows: 5, RowStep: 3*rowN + 2, RowSeqStep: rowN}, 5 * (3*rowN + 2)},
		{"columns", interp.Run{Flat: 1, Step: 2, SeqStep: 1, N: 3, Off1: 1, Mode: interp.RunCopyLeft,
			Rows: rowN, RowStep: 8, RowSeqStep: 3}, 8 * rowN},
	}
	for _, b := range blocks {
		r := b.r
		lineup[T](&r)
		if r.N != rowN || r.Step == 2 {
			t.Fatalf("%T %s: lineup gives rows of %d targets %d apart", T(0), b.name, r.N, r.Step)
		}
		mid := r.Rows / 2
		fresh := func() levelQuantizer[T] {
			q := newLevelQuantizer(make([]T, b.size), quant.New(eb))
			for i := range q.work {
				q.work[i] = T(math.Sin(float64(i) * 0.05))
			}
			q.work[r.Flat+mid*r.RowStep+(lanes+1)*r.Step] = 1e9
			return q
		}
		nks := r.Rows * r.N
		want := fresh()
		wantKs := make([]int32, nks)
		var wantOut []outlier
		for i := range r.Rows {
			wantOut = want.quantizeScalar(&r, wantKs, r.Flat+i*r.RowStep, i*r.RowSeqStep, r.N, wantOut)
		}
		if len(wantOut) != 1 {
			t.Fatalf("%T %s: the fixture has %d outliers, want the planted one", T(0), b.name, len(wantOut))
		}
		check := func(how string, q levelQuantizer[T], ks []int32, out []outlier) {
			t.Helper()
			slices.SortFunc(out, func(a, b outlier) int { return int(a.seq) - int(b.seq) })
			if !slices.Equal(ks, wantKs) || !slices.Equal(q.work, want.work) || !slices.Equal(out, wantOut) {
				t.Fatalf("%T %s: %s differs from the scalar loop", T(0), b.name, how)
			}
		}

		wantAt := []int{1*r.Rows + mid}
		for row := range r.Rows {
			wantAt = append(wantAt, 2*r.Rows+row)
		}
		// The groups the kernel returns, driven as quantizeBlock does (a
		// few more than wanted at most: a wrong numbering may never end).
		q, ks := fresh(), make([]int32, nks)
		var out []outlier
		var got []int
		at := quantizeAccel(q.work, ks, &r, 0, q.step, q.invStep, q.eb)
		for ; at >= 0 && len(got) <= len(wantAt); at = quantizeAccel(q.work, ks, &r, at+1, q.step, q.invStep, q.eb) {
			got = append(got, at)
			g, row := at/r.Rows, at%r.Rows
			lo := g * lanes
			out = q.quantizeScalar(&r, ks, r.Flat+row*r.RowStep+lo*r.Step, r.Seq+row*r.RowSeqStep+lo*r.SeqStep, min(lanes, r.N-lo), out)
		}
		if at != -1 || !slices.Equal(got, wantAt) {
			t.Fatalf("%T %s: the kernel returns groups %v then %d, want %v then -1", T(0), b.name, got, at, wantAt)
		}
		check("the driven kernel", q, ks, out)

		q, ks = fresh(), make([]int32, nks)
		rb := b.r
		check("quantizeBlock", q, ks, q.quantizeBlock(&rb, ks, nil))
	}
}
