package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/grid"
	"repro/internal/store"
	"repro/ipcomp"
	"repro/ipcomp/client"
)

// The two serving workloads share everything but their numbers and their
// operation mix: a container is packed, ipcompd is started on it as a
// child process, phase A (closed loop) finds capacity and phase B (open
// loop, Poisson arrivals at a frozen rate) finds latency.
//
// serve_cold_roi: working set several times the tile cache, so nearly
// every request plans, reads spans, entropy-decodes, merges planes,
// dequantises and copies. Every operation is one raw GET of a seeded box
// at a bound from the ladder.
//
// serve_warm_refine: every tile pre-decoded and the cache thirty times
// the field, so the server decodes nothing: raw GETs of one fixed box are
// tile-cache hits, and planes requests — one-shot or token refine chains
// through ipcomp/client — are planned, read and framed but never decoded
// server-side.

type serveSpec struct {
	workload string
	dataset  string // name the field is served under
	gen      string // datagen field
	f32      bool
	shape    grid.Shape
	cacheMB  int
	rate     float64 // phase B operations per second
	warm     bool
}

func coldSpec(sz sizes) serveSpec {
	return serveSpec{workload: "serve_cold_roi", dataset: "density", gen: "Density", f32: true,
		shape: sz.coldShape, cacheMB: sz.coldCacheMB, rate: sz.coldRate}
}

func warmSpec(sz sizes) serveSpec {
	return serveSpec{workload: "serve_warm_refine", dataset: "pressure", gen: "Pressure", f32: false,
		shape: sz.warmShape, cacheMB: sz.warmCacheMB, rate: sz.warmRate, warm: true}
}

func runServeCold(ctx *runCtx) (*result, error) { return runServe(ctx, coldSpec(ctx.sz)) }
func runServeWarm(ctx *runCtx) (*result, error) { return runServe(ctx, warmSpec(ctx.sz)) }

// Operation kinds and the sample class of each of their rounds.
const (
	opFresh  = iota // cold: one raw GET
	opHit           // warm: raw GET of the fixed centred box
	opPlanes        // warm: one-shot planes fetch through the client
	opChain         // warm: planes fetch, then two token refinements
)

var opNames = map[int]string{opFresh: "fresh", opHit: "hit", opPlanes: "planes", opChain: "chain"}

var roundKinds = map[int][]string{
	opFresh:  {"fresh"},
	opHit:    {"hit"},
	opPlanes: {"planes"},
	opChain:  {"chain", "refine1", "refine2"},
}

// opWeights is the operation mix of each serving workload; genOps draws
// from it and roundShares derives from it what share of all rounds each
// sample class makes up.
var opWeights = map[bool][]struct {
	kind, weight int
}{
	false: {{opFresh, 1}},
	true:  {{opHit, 5}, {opPlanes, 1}, {opChain, 2}},
}

// roundShares returns, per sample class, its nominal share of a
// workload's rounds.
func roundShares(warm bool) map[string]float64 {
	shares := make(map[string]float64)
	total := 0.0
	for _, ow := range opWeights[warm] {
		for _, k := range roundKinds[ow.kind] {
			shares[k] += float64(ow.weight)
			total += float64(ow.weight)
		}
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares
}

type serveOp struct {
	kind   int
	lo, hi []int
	mult   []float64 // bound of each round, in units of the dataset bound
}

// hitMult is the bound of the warm workload's raw GETs, and therefore the
// fidelity set-up pre-decodes every tile to.
const hitMult = 64

// genOps draws n operations for one purpose (phase A, phase B, replay…),
// each purpose from its own stream.
func (b *serveBench) genOps(purpose string, n int) []serveOp {
	r := subRand(b.ctx.seed, b.spec.workload+"/ops/"+purpose)
	sz := b.ctx.sz
	weights := opWeights[b.spec.warm]
	sum := 0
	for _, ow := range weights {
		sum += ow.weight
	}
	ops := make([]serveOp, n)
	for i := range ops {
		op := &ops[i]
		draw := r.Intn(sum)
		for _, ow := range weights {
			if draw < ow.weight {
				op.kind = ow.kind
				break
			}
			draw -= ow.weight
		}
		op.lo, op.hi = latticeBox(r, b.spec.shape, sz.box, sz.lattice)
		switch op.kind {
		case opFresh:
			op.mult = []float64{boundLadder[r.Intn(len(boundLadder))]}
		case opHit:
			op.lo, op.hi = centredBox(b.spec.shape, sz.box)
			op.mult = []float64{hitMult}
		case opPlanes:
			op.mult = []float64{[]float64{16, 64}[r.Intn(2)]}
		case opChain:
			op.mult = []float64{256, 16, 4}
		}
	}
	return ops
}

type serveBench struct {
	ctx  *runCtx
	spec serveSpec
	f    *field
	path string  // the packed container
	eb   float64 // the dataset's absolute bound, as the server states it
	c    *child
	tg   *target
}

// setupTimes is one set-up, split the way the result file reports it.
type setupTimes struct {
	pack, ready, warm time.Duration
	firstRead         float64 // ms: the first region read after start
	stored            int64   // container bytes
}

func (s setupTimes) total() time.Duration { return s.pack + s.ready + s.warm }

// pack writes the container through the public façade.
func (b *serveBench) pack() (time.Duration, int64, error) {
	start := time.Now()
	w, err := os.Create(b.path)
	if err != nil {
		return 0, 0, err
	}
	defer w.Close()
	sw, err := ipcomp.NewStoreWriter(w)
	if err != nil {
		return 0, 0, err
	}
	t := b.ctx.sz.tile
	opt := ipcomp.StoreOptions{Relative: true, ChunkShape: []int{t, t, t}}
	if b.f.f32 != nil {
		opt.ErrorBound = relEB32
		err = sw.AddFloat32(b.spec.dataset, b.f.f32, b.f.shape, opt)
	} else {
		opt.ErrorBound = relEB64
		err = sw.Add(b.spec.dataset, b.f.f64, b.f.shape, opt)
	}
	if err == nil {
		err = sw.Close()
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		return 0, 0, err
	}
	st, err := os.Stat(b.path)
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), st.Size(), nil
}

// setup is the program-side preparation: pack the container, start
// ipcompd on it and wait for /readyz, read a first region, and — warm
// workload — decode every tile into the cache. The child is left running.
// traced starts it with -trace-sample 1 and a -debug-addr listener.
func (b *serveBench) setup(traced bool) (setupTimes, error) {
	var st setupTimes
	var err error
	if st.pack, st.stored, err = b.pack(); err != nil {
		return st, err
	}
	bin, err := b.ctx.buildServer()
	if err != nil {
		return st, err
	}
	args := []string{"-cache-mb", strconv.Itoa(b.spec.cacheMB)}
	if traced {
		args = append(args, "-trace-sample", "1")
	}
	b.c, err = startChild(bin, traced, append(args, b.path)...)
	if err != nil {
		return st, err
	}
	st.ready = b.c.ready
	hc := newHTTPClient(conns())
	b.tg.hc, b.tg.base = hc, b.c.base
	b.tg.cl = client.New(b.c.base, client.WithHTTPClient(hc))

	start := time.Now()
	meta, err := b.tg.cl.Dataset(context.Background(), b.spec.dataset)
	if err != nil {
		return st, err
	}
	b.eb, b.tg.eb = meta.ErrorBound, meta.ErrorBound
	lo, hi := centredBox(b.spec.shape, b.ctx.sz.box)
	first, ok := b.tg.raw("first", b.spec.dataset, lo, hi, hitMult*b.eb, &scratch{})
	if !ok {
		return st, fmt.Errorf("first read after start failed: %v", b.tg.t.first)
	}
	st.firstRead = ms(first.done.Sub(first.start))
	if b.spec.warm {
		// Every tile pre-decoded, at the fidelity the hit traffic asks for.
		whole := make([]int, len(b.spec.shape))
		if _, ok := b.tg.raw("predecode", b.spec.dataset, whole, b.spec.shape, hitMult*b.eb, &scratch{}); !ok {
			return st, fmt.Errorf("pre-decoding the field failed: %v", b.tg.t.first)
		}
	}
	st.warm = time.Since(start)
	return st, nil
}

// do turns an operation list into the loops' doer.
func (b *serveBench) do(ops []serveOp) doer {
	scs := make([]scratch, conns())
	return func(w, i int) []round {
		op := &ops[i%len(ops)]
		kinds := roundKinds[op.kind]
		var out []round
		switch op.kind {
		case opFresh, opHit:
			for k, m := range op.mult {
				r, ok := b.tg.raw(kinds[k], b.spec.dataset, op.lo, op.hi, m*b.eb, &scs[w])
				if !ok {
					return out
				}
				out = append(out, r)
			}
		case opPlanes, opChain:
			reg, r, ok := b.tg.region(kinds[0], b.spec.dataset, op.lo, op.hi, op.mult[0]*b.eb)
			if !ok {
				return out
			}
			out = append(out, r)
			for k := 1; k < len(op.mult); k++ {
				r, ok := b.tg.refine(kinds[k], reg, op.lo, op.hi, op.mult[k]*b.eb)
				if !ok {
					return out
				}
				out = append(out, r)
			}
		}
		return out
	}
}

// phaseB draws the arrival schedule of the open-loop phase and runs it.
func (b *serveBench) phaseB(purpose string, d time.Duration) loopOut {
	n := int(b.spec.rate * d.Seconds())
	due := poissonArrivals(subRand(b.ctx.seed, b.spec.workload+"/arrivals/"+purpose), b.spec.rate, n)
	return openLoop(conns(), due, b.do(b.genOps(purpose, n)))
}

func newServeBench(ctx *runCtx, spec serveSpec, t *tally) (*serveBench, error) {
	f, err := makeField(ctx.root, spec.gen, spec.shape, spec.f32, ctx.seed, &ctx.gen)
	if err != nil {
		return nil, err
	}
	return &serveBench{ctx: ctx, spec: spec, f: f,
		path: filepath.Join(ctx.work, spec.dataset+".ipcs"),
		tg:   &target{f: f, t: t}}, nil
}

func runServe(ctx *runCtx, spec serveSpec) (*result, error) {
	res := newResult(spec.workload, ctx.trace)
	t := &tally{}
	b, err := newServeBench(ctx, spec, t)
	if err != nil {
		return nil, err
	}
	defer func() { b.c.kill() }()
	if ctx.trace {
		if err := traceServe(b, res); err != nil {
			return nil, err
		}
		return res, res.finish(t, true)
	}

	// Set-up several times over; the last child stays for the phases.
	var setups, packs, firsts []float64
	var last setupTimes
	for rep := 0; rep < ctx.sz.setupReps; rep++ {
		b.c.kill()
		// pack runs in this process: start every set-up from the same
		// point of the collector's cycle, or whether a collection falls
		// into the 35 ms of a pack varies from run to run.
		runtime.GC()
		if last, err = b.setup(false); err != nil {
			return nil, err
		}
		setups = append(setups, last.total().Seconds())
		packs = append(packs, last.pack.Seconds())
		firsts = append(firsts, last.firstRead)
	}
	res.phase("setup", time.Duration(sum(setups)*float64(time.Second)))
	res.Counts["setup.pack_s"] = median(packs)
	res.timing("setup.first_read", firsts)
	res.Counts["setup.ready_s"] = last.ready.Seconds()
	res.Counts["setup.warm_s"] = last.warm.Seconds()

	total := time.Duration(ctx.seconds * float64(time.Second))
	dA := time.Duration(float64(total) * ctx.sz.phaseAShare)
	// Every connection opened and the tile cache in its steady state
	// before the first timed request.
	closedLoop(conns(), dA/30, b.do(b.genOps("warmup", 1<<10)))
	a := closedLoop(conns(), dA, b.do(b.genOps("phaseA", 1<<14)))
	res.phase("phaseA", a.elapsed)
	pb := b.phaseB("phaseB", total-dA)
	res.phase("phaseB", pb.elapsed)

	loaded, err := b.loadedFrac()
	if err != nil {
		return nil, err
	}
	rss := b.c.peakRSSMB()

	lat := pb.latencies("")
	if len(a.samples) == 0 || len(lat) == 0 {
		return nil, fmt.Errorf("too few requests succeeded to measure: %v", t.first)
	}
	bl := summarizeAt(lat, serveTailPct)
	for _, kinds := range roundKinds {
		for _, k := range kinds {
			res.timing("phaseA."+k, a.services(k))
			res.timing("phaseB."+k, pb.latencies(k))
		}
	}
	res.Timings["phaseB"] = bl
	res.Counts["phaseA.clients"] = float64(conns())
	res.Counts["phaseA.rounds"] = float64(len(a.samples))
	res.Counts["phaseB.rate_ops"] = spec.rate
	res.Counts["phaseB.ops"] = float64(pb.ops)
	res.Counts["phaseB.rounds"] = float64(len(pb.samples))
	res.Counts["latency_tail_pct"] = bl.TailPct
	res.timing("gen.lateness", pb.late)
	// A generator whose own tail lateness exceeds what the tail latency
	// metric may move by has measured itself: such a run's latency figures
	// are to be disregarded, and it says so.
	late := quantile(sorted(pb.late), 0.99)
	res.Counts["gen.lateness_p99_ms"] = late
	if late > latencyBound*bl.Tail {
		res.Counts["gen.lateness_over_bound"] = 1
		fmt.Fprintf(os.Stderr, "benchmark: %s: the generator fired up to %.2f ms late (p99), more than %.0f%% of the p%g latency %.2f ms: disregard this run's latency figures\n",
			spec.workload, late, latencyBound*100, bl.TailPct, bl.Tail)
	}

	payload := 0.0
	for _, s := range a.samples {
		payload += float64(s.bytes)
	}
	const mb = 1e6
	res.set("setup_s", median(setups))
	res.set("capacity_rps", float64(len(a.samples))/a.elapsed.Seconds())
	res.set("goodput_mbps", payload/mb/a.elapsed.Seconds())
	res.set("latency_p50_ms", mixMedian(&pb, spec.warm))
	res.set("loaded_frac", loaded) // carried on the cold workload
	res.set("peak_rss_mb", rss)
	// Carried (see native in spec.go): how fast set-up packed the
	// container and how small; how fast one phase-A caller sees one box
	// arrive, per class of round — the rounds that fetch a box afresh and
	// the rounds that refine one. The cold workload refines nothing, so
	// both figures are its fresh rounds there.
	boxBytes := float64(boxLen(centredBox(spec.shape, ctx.sz.box)) * b.f.scalarBytes())
	fresh, refine := []string{"fresh"}, []string{"fresh"}
	if spec.warm {
		fresh, refine = []string{"hit", "planes", "chain"}, []string{"refine1", "refine2"}
	}
	res.set("compress_mbps", float64(b.f.rawBytes())/mb/median(packs))
	res.set("ratio", float64(b.f.rawBytes())/float64(last.stored))
	res.set("retrieve_mbps", throughputOver(&a, boxBytes, fresh))
	res.set("refine_mbps", throughputOver(&a, boxBytes, refine))
	res.set("read_after_write_ms", median(a.services(fresh[0])))
	return res, res.finish(t, false)
}

// mixMedian is the median latency of each class of round in an open-loop
// phase, averaged with the classes' nominal shares of the mix. The pooled
// median of rounds whose classes cost 2 ms and 12 ms sits on the edge
// between two clusters and moves with the seed's draw of the mix; this
// does not.
func mixMedian(o *loopOut, warm bool) float64 {
	total := 0.0
	for k, share := range roundShares(warm) {
		total += share * median(o.latencies(k))
	}
	return total
}

// throughputOver is bytes over the sum of the kinds' median service
// times: how fast one caller sees one box arrive, per sample class.
func throughputOver(a *loopOut, boxBytes float64, kinds []string) float64 {
	totalMs := 0.0
	for _, k := range kinds {
		totalMs += median(a.services(k))
	}
	return float64(len(kinds)) * boxBytes / 1e6 / (totalMs / 1e3)
}

// loadedFracBoxes is how many seeded boxes the retrieval-volume count is
// taken over; every box is counted at every bound of the ladder, so the
// draw of bounds cannot move the figure from seed to seed.
const loadedFracBoxes = 256

// loadedFrac is the paper's retrieval-volume claim as a count that
// repeats exactly per seed, taken outside the timed phases.
//
// Cold workload: over loadedFracBoxes seeded boxes and every bound of
// the ladder, the container bytes a server with an empty cache reads to
// answer at that bound, over the bytes of the same boxes at full
// fidelity — from store.PlanRegion on the packed file, which is what the
// decode path reads on a miss.
//
// Warm workload: the body bytes ipcomp/client has fetched from the child
// when seeded boxes reach each rung of the refine chain's ladder, over
// the body bytes of fetching the same boxes at full fidelity in one go.
func (b *serveBench) loadedFrac() (float64, error) {
	var at, full float64
	if b.spec.warm {
		for _, op := range b.genOps("loaded", 8) {
			op.kind, op.mult = opChain, []float64{256, 16, 4}
			whole, _, ok := b.tg.region("loaded", b.spec.dataset, op.lo, op.hi, 0)
			if !ok {
				return 0, fmt.Errorf("loaded_frac full fetch failed: %v", b.tg.t.first)
			}
			reg, _, ok := b.tg.region("loaded", b.spec.dataset, op.lo, op.hi, op.mult[0]*b.eb)
			for k := 0; ok && k < len(op.mult); k++ {
				if k > 0 {
					_, ok = b.tg.refine("loaded", reg, op.lo, op.hi, op.mult[k]*b.eb)
				}
				at += float64(reg.FetchedBytes())
				full += float64(whole.FetchedBytes())
			}
			if !ok {
				return 0, fmt.Errorf("loaded_frac chain failed: %v", b.tg.t.first)
			}
		}
		return at / full, nil
	}
	f, err := os.Open(b.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	s, err := store.Open(f, st.Size())
	if err != nil {
		return 0, err
	}
	for _, op := range b.genOps("loaded", loadedFracBoxes) {
		fp, err := s.PlanRegion(b.spec.dataset, op.lo, op.hi, 0, 0)
		if err != nil {
			return 0, err
		}
		for _, m := range boundLadder {
			p, err := s.PlanRegion(b.spec.dataset, op.lo, op.hi, m*b.eb, 0)
			if err != nil {
				return 0, err
			}
			at += float64(p.Bytes())
			full += float64(fp.Bytes())
		}
	}
	return at / full, nil
}
