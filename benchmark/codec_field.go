package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/ipcomp"
)

// codec_field is the paper's own experiment: one caller, the library
// only. Per field and cycle it compresses, opens, retrieves at the first
// rung, refines in place to the second and then to full fidelity, and
// finally retrieves everything afresh. No store, server, backend, cas or
// wire code runs.

// The progressive rungs, relative to the value range. A float32 field is
// compressed at 1e-5 of its range, and the issue's 1e-4 rung already
// loads every plane of it (RefineAll then has nothing to do), so its
// second rung is 1e-3: every step of a cycle must load something, and
// run checks that it did.
var (
	codecRungs64 = [2]float64{1e-2, 1e-4}
	codecRungs32 = [2]float64{1e-2, 1e-3}
)

var codecFieldNames = [3]string{"Density", "Wave", "CH4"}
var codecFieldF32 = [3]bool{true, false, true}

// codecOps names the five timed steps of a field cycle, in order.
var codecOps = [5]string{"compress", "retrieve", "refine", "refine_all", "retrieve_all"}

// fieldCycle holds one field's measurements across cycles.
type fieldCycle struct {
	f      *field
	relEB  float64
	rungs  [2]float64 // absolute bounds of the two progressive steps
	op     [5]durs    // per codecOps
	cycle  durs       // sum of the five timed steps
	blob   int64      // archive bytes (identical every cycle)
	loaded [2]int64
}

func (fc *fieldCycle) whole() (lo, hi []int) {
	return make([]int, len(fc.f.shape)), []int(fc.f.shape)
}

// checkResult runs the oracle over the whole field.
func (fc *fieldCycle) checkResult(route string, res *ipcomp.Result, requested float64) error {
	lo, hi := fc.whole()
	a := advert{requested: requested, guaranteed: res.GuaranteedError()}
	if fc.f.f32 != nil {
		return checkBox(fc.f, route, lo, hi, res.DataFloat32(), a)
	}
	return checkBox(fc.f, route, lo, hi, res.Data(), a)
}

// run performs one cycle through the public façade. Every step is timed
// on its own and checked by the oracle with the clock stopped; the
// refinements mutate the reconstruction in place, so each check has to
// happen before the next step. record=false is the warm-up.
func (fc *fieldCycle) run(t *tally, record bool) {
	f := fc.f
	opt := ipcomp.Options{ErrorBound: fc.relEB, Relative: true}
	var step [5]time.Duration

	start := time.Now()
	var blob []byte
	var err error
	if f.f32 != nil {
		blob, err = ipcomp.CompressFloat32(f.f32, f.shape, opt)
	} else {
		blob, err = ipcomp.Compress(f.f64, f.shape, opt)
	}
	step[0] = time.Since(start)
	if !t.count(err) {
		return // counted as failed; nothing to retrieve
	}

	start = time.Now()
	ar, err := ipcomp.Open(blob)
	var res *ipcomp.Result
	if err == nil {
		res, err = ar.RetrieveErrorBound(fc.rungs[0])
	}
	step[1] = time.Since(start)
	if err == nil {
		err = fc.checkResult("codec retrieve", res, fc.rungs[0])
	}
	if !t.count(err) {
		return
	}
	loaded0 := res.LoadedBytes()

	start = time.Now()
	err = res.RefineErrorBound(fc.rungs[1])
	step[2] = time.Since(start)
	if err == nil {
		err = fc.checkResult("codec refine", res, fc.rungs[1])
	}
	loaded1 := res.LoadedBytes()
	if err == nil && loaded1 <= loaded0 {
		err = fmt.Errorf("codec refine: %s loaded nothing going from %g to %g (%d bytes before and after)", f.name, fc.rungs[0], fc.rungs[1], loaded0)
	}
	if !t.count(err) {
		return
	}

	start = time.Now()
	err = res.RefineAll()
	step[3] = time.Since(start)
	if err == nil {
		err = fc.checkResult("codec refine-all", res, ar.ErrorBound())
	}
	if err == nil && res.LoadedBytes() <= loaded1 {
		err = fmt.Errorf("codec refine-all: %s loaded nothing beyond the %g rung (%d bytes before and after)", f.name, fc.rungs[1], loaded1)
	}
	if !t.count(err) {
		return
	}

	start = time.Now()
	full, err := ar.RetrieveAll()
	step[4] = time.Since(start)
	if err == nil {
		err = fc.checkResult("codec retrieve-all", full, ar.ErrorBound())
	}
	if !t.count(err) {
		return
	}

	if record {
		total := time.Duration(0)
		for i, d := range step {
			fc.op[i].add(d)
			total += d
		}
		fc.cycle.add(total)
		fc.blob = int64(len(blob))
		fc.loaded = [2]int64{loaded0, loaded1}
	}
}

func makeCodecFields(ctx *runCtx) ([]*fieldCycle, error) {
	var out []*fieldCycle
	for i, name := range codecFieldNames {
		f, err := makeField(ctx.root, name, ctx.sz.codecShapes[i], codecFieldF32[i], ctx.seed, &ctx.gen)
		if err != nil {
			return nil, err
		}
		rel, rungs := relEB64, codecRungs64
		if codecFieldF32[i] {
			rel, rungs = relEB32, codecRungs32
		}
		out = append(out, &fieldCycle{f: f, relEB: rel, rungs: [2]float64{rungs[0] * f.vrange, rungs[1] * f.vrange}})
	}
	return out, nil
}

func runCodecField(ctx *runCtx) (*result, error) {
	res := newResult("codec_field", ctx.trace)
	t := &tally{}
	fields, err := makeCodecFields(ctx)
	if err != nil {
		return nil, err
	}
	if ctx.trace {
		if err := traceCodecField(ctx, res, t, fields); err != nil {
			return nil, err
		}
		return res, res.finish(t, true)
	}

	// Set-up: the warm-up pass — pools, lazy tables and the page faults of
	// first-touch work arrays are paid here, before the first timed step.
	var setups []float64
	for rep := 0; rep < ctx.sz.setupReps; rep++ {
		start := time.Now()
		for _, fc := range fields {
			fc.run(t, false)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.phase("setup", time.Duration(sum(setups)*float64(time.Second)))

	cycles := max(3, int(math.Round(ctx.sz.codecCyclesPS*ctx.seconds)))
	start := time.Now()
	for c := 0; c < cycles; c++ {
		for _, fc := range fields {
			fc.run(t, true)
		}
	}
	res.phase("measure", time.Since(start))

	// Throughputs are bytes over the sum of each field's median step time.
	var raw, stored, loaded, decoded float64
	var tCompress, tRetrieve, tRefine, tFirstRead, tCycle float64
	var cycleMs []float64
	for i, fc := range fields {
		if len(fc.cycle) == 0 {
			return nil, fmt.Errorf("field %s completed no cycle: %v", fc.f.name, t.first)
		}
		name := codecFieldNames[i]
		for j, op := range codecOps {
			res.timing(op+"."+name, fc.op[j])
		}
		raw += float64(fc.f.rawBytes())
		stored += float64(fc.blob)
		loaded += float64(fc.loaded[0] + fc.loaded[1])
		decoded += 2 * float64(fc.f.rawBytes())
		tCompress += median(fc.op[0])
		tRetrieve += median(fc.op[1]) + median(fc.op[4])
		tRefine += median(fc.op[2]) + median(fc.op[3])
		tFirstRead += median(fc.op[1])
		tCycle += median(fc.cycle)
		cycleMs = append(cycleMs, fc.cycle...)
	}
	lat := summarizeAt(cycleMs, codecTailPct)
	res.Timings["cycle"] = lat
	res.Counts["cycles"] = float64(cycles)
	res.Counts["latency_tail_pct"] = lat.TailPct

	const mb = 1e6
	res.set("setup_s", median(setups))
	res.set("compress_mbps", raw/mb/(tCompress/1e3))
	res.set("retrieve_mbps", decoded/mb/(tRetrieve/1e3))
	res.set("refine_mbps", decoded/mb/(tRefine/1e3))
	res.set("ratio", raw/stored)
	res.set("loaded_frac", loaded/(2*stored))
	res.set("peak_rss_mb", peakRSSMB(0))
	// Carried (see native in spec.go): the one caller's closed loop seen as
	// a service — the fifteen steps of a pass over the three fields per
	// second, the bytes they move (raw in once, decoded out four times),
	// the median field cycle, and the first retrieval of a just-compressed
	// archive.
	res.set("capacity_rps", float64(len(codecOps)*len(fields))/(tCycle/1e3))
	res.set("goodput_mbps", (raw+2*decoded)/mb/(tCycle/1e3))
	res.set("latency_p50_ms", lat.P50)
	res.set("read_after_write_ms", tFirstRead/float64(len(fields)))
	return res, res.finish(t, false)
}

// traceCodecField is the traced run: a few untraced façade cycles for
// the reference latency, then the same steps through internal/core with a
// span around every call, DecodeStats hooks splitting each retrieval into
// codec, read and self time, and the kernel probes on each field's shape.
func traceCodecField(ctx *runCtx, res *result, t *tally, fields []*fieldCycle) error {
	cycles := max(2, int(math.Round(ctx.sz.codecCyclesPS*ctx.seconds/3)))
	for _, fc := range fields { // warm-up
		fc.run(t, false)
	}
	start := time.Now()
	for c := 0; c < cycles; c++ {
		for _, fc := range fields {
			fc.run(t, true)
		}
	}
	res.phase("untraced", time.Since(start))
	var untraced []float64
	for _, fc := range fields {
		untraced = append(untraced, fc.cycle...)
	}

	tr := newTracer()
	before := codec.Stats()
	var traced []float64
	var st cycleStats
	steps := make([]map[string][]float64, len(fields)) // per field, per core call
	start = time.Now()
	op := 0
	for c := 0; c < cycles; c++ {
		for i, fc := range fields {
			op++
			timed, err := tracedCodecCycle(tr, op, fc, t, &st)
			if err != nil {
				return err
			}
			if timed == nil {
				continue // a step failed and was counted
			}
			if steps[i] == nil {
				steps[i] = make(map[string][]float64)
			}
			total := time.Duration(0)
			for name, d := range timed {
				steps[i][name] = append(steps[i][name], ms(d))
				total += d
			}
			traced = append(traced, ms(total))
		}
	}
	res.phase("traced", time.Since(start))

	start = time.Now()
	var pk probeKernels
	for _, fc := range fields {
		eb := fc.relEB * fc.f.vrange
		pk.add(probeKernelsOn(fc.f.asF64(), fc.f.shape, eb, 3))
	}
	res.phase("probes", time.Since(start))

	lts := layerTimes(tr.spans)
	res.Layers, res.Spans = lts, tr.spans
	compressMs, _ := meanMs(lts, "core.Compress")
	retrieveMs, _ := meanMs(lts, "core.Retrieve", "core.RetrieveAll")
	refineMs, _ := meanMs(lts, "core.RefineErrorBound", "core.RefineAll")
	res.set("core.compress_ms", compressMs)
	res.set("core.retrieve_ms", retrieveMs)
	res.set("core.refine_ms", refineMs)
	res.set("core.self_ms", selfMeanMs(lts, "core.Retrieve", "core.RetrieveAll"))
	res.set("core.plan_us", mean(st.planUs))
	pk.report(res)
	res.set("codec.decode_ms_per_req", mean(st.codecMs))
	res.set("codec.deflate_byte_share", deflateDecodeShare(before, codec.Stats()))
	res.set("backend.read_ms_per_req", mean(st.readMs))
	res.set("backend.bytes_per_req", mean(st.loadedBytes))
	res.set("backend.reads_per_req", mean(st.reads))
	res.set("obs.trace_overhead_frac", median(traced)/median(untraced)-1)
	res.set("gen.datagen_s", ctx.gen.datagen.Seconds())

	// Budget: one pass over the three fields. Each term is the sum over
	// the fields of the median time of one core call; the end-to-end figure
	// is the sum over the fields of the median untraced façade cycle. What
	// is left is the façade (option mapping, Open) and timer noise.
	p50 := 0.0
	for _, fc := range fields {
		p50 += median(fc.cycle)
	}
	var terms []budgetTerm
	for _, name := range []string{"core.Compress", "core.PlanErrorBoundMode", "core.Retrieve", "core.RefineErrorBound", "core.RefineAll", "core.RetrieveAll"} {
		total := 0.0
		for i := range fields {
			if steps[i] == nil {
				return fmt.Errorf("field %s completed no traced cycle: %v", fields[i].f.name, t.first)
			}
			total += median(steps[i][name])
		}
		terms = append(terms, budgetTerm{name, total})
	}
	res.Budget = closeBudget(res, terms, p50)
	return nil
}

// closeBudget appends the end-to-end median and the remainder to a list
// of blocking-path terms and reports budget.remainder_frac.
func closeBudget(res *result, terms []budgetTerm, p50 float64) []budgetTerm {
	explained := 0.0
	for _, b := range terms {
		explained += b.Ms
	}
	res.set("budget.remainder_frac", (p50-explained)/p50)
	return append(terms,
		budgetTerm{"= explained", explained},
		budgetTerm{"end-to-end p50", p50},
		budgetTerm{"remainder", p50 - explained})
}

// deflateDecodeShare is the share of the compressed bytes decoded between
// two codec.Stats snapshots that went through DEFLATE.
func deflateDecodeShare(before, after []codec.MethodStat) float64 {
	base := make(map[string]int64)
	for _, m := range before {
		base[m.Method] = m.DecodedBytes
	}
	var total, deflate int64
	for _, m := range after {
		d := m.DecodedBytes - base[m.Method]
		total += d
		if m.Method == "deflate" {
			deflate += d
		}
	}
	if total == 0 {
		return 0
	}
	return float64(deflate) / float64(total)
}

// cycleStats collects what the hooks and plans of the traced cycles
// report, one entry per retrieval or refinement.
type cycleStats struct {
	codecMs, readMs []float64 // DecodeStats: entropy-codec and block-read time
	loadedBytes     []float64 // archive bytes the step loaded
	planUs          []float64 // PlanErrorBoundMode
	reads           []float64 // spans in the first retrieval's plan, header included
}

// tracedCodecCycle is one field cycle through internal/core with spans.
func tracedCodecCycle(tr *tracer, op int, fc *fieldCycle, t *tally, st *cycleStats) (map[string]time.Duration, error) {
	if fc.f.f32 != nil {
		return tracedCycleAs(tr, op, fc, fc.f.f32, t, st)
	}
	return tracedCycleAs(tr, op, fc, fc.f.f64, t, st)
}

func tracedCycleAs[T grid.Scalar](tr *tracer, op int, fc *fieldCycle, data []T, t *tally, cs *cycleStats) (map[string]time.Duration, error) {
	f := fc.f
	lo, hi := fc.whole()
	g, err := grid.FromSlice(data, f.shape)
	if err != nil {
		return nil, err
	}
	eb := fc.relEB * f.vrange
	root := tr.begin(op, 0, "cycle/"+f.name)
	defer tr.end(root)

	// step brackets one core call with a span, records how long it took
	// (the oracle runs with the clock stopped, as in the untraced cycle)
	// and counts the operation once.
	timed := make(map[string]time.Duration)
	step := func(name string, call, verify func() error) (int, bool) {
		id := tr.begin(op, root, name)
		start := time.Now()
		err := call()
		timed[name] = time.Since(start)
		tr.end(id)
		if err == nil && verify != nil {
			err = verify()
		}
		return id, t.count(err)
	}
	// hang puts the codec and read time a retrieval's DecodeStats
	// collected under its span as hook-reported children.
	hang := func(id int, st *core.DecodeStats, loaded int64) {
		c, r := tr.hangDecodeStats(op, id, st)
		cs.codecMs = append(cs.codecMs, ms(c))
		cs.readMs = append(cs.readMs, ms(r))
		cs.loadedBytes = append(cs.loadedBytes, float64(loaded))
	}
	check := func(route string, r **core.Result, requested float64) func() error {
		return func() error {
			return checkBox(f, route, lo, hi, core.DataOf[T](*r), advert{requested: requested, guaranteed: (*r).GuaranteedError()})
		}
	}

	var blob []byte
	if _, ok := step("core.Compress", func() (err error) {
		blob, err = core.Compress(g, core.Options{ErrorBound: eb})
		return err
	}, nil); !ok {
		return nil, nil
	}
	ar, err := core.NewArchive(blob)
	if err != nil {
		return nil, err
	}
	var plan core.Plan
	pstart := time.Now()
	if _, ok := step("core.PlanErrorBoundMode", func() (err error) {
		plan, err = ar.PlanErrorBoundMode(fc.rungs[0])
		return err
	}, nil); !ok {
		return nil, nil
	}
	cs.planUs = append(cs.planUs, float64(time.Since(pstart))/1e3)
	cs.reads = append(cs.reads, float64(1+len(ar.PlanSpans(core.Plan{}, plan))))

	var res *core.Result
	var st [3]core.DecodeStats
	id, ok := step("core.Retrieve", func() (err error) {
		res, err = ar.RetrieveErrorBoundStats(fc.rungs[0], &st[0])
		return err
	}, check("core retrieve", &res, fc.rungs[0]))
	if !ok {
		return nil, nil
	}
	hang(id, &st[0], res.LoadedBytes())

	res.SetDecodeStats(&st[1])
	had := res.LoadedBytes()
	id, ok = step("core.RefineErrorBound", func() error { return res.RefineErrorBound(fc.rungs[1]) },
		check("core refine", &res, fc.rungs[1]))
	if !ok {
		return nil, nil
	}
	hang(id, &st[1], res.LoadedBytes()-had)

	res.SetDecodeStats(&st[2])
	had = res.LoadedBytes()
	id, ok = step("core.RefineAll", res.RefineAll, check("core refine-all", &res, eb))
	if !ok {
		return nil, nil
	}
	hang(id, &st[2], res.LoadedBytes()-had)

	var full *core.Result
	if _, ok := step("core.RetrieveAll", func() (err error) {
		full, err = ar.RetrieveAll()
		return err
	}, check("core retrieve-all", &full, eb)); !ok {
		return nil, nil
	}
	return timed, nil
}
