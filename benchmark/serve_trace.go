package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/ipcomp/client"
)

// The traced run of a serving workload, in four parts:
//
//  1. phase B against an untraced child, for the reference latency;
//  2. the same operations and arrivals against a child started with
//     -trace-sample 1 and -debug-addr, scraping /metrics and /debug/vars
//     before and after (source M of the per-layer table);
//  3. an in-process replay of seeded operations with a span around every
//     call the benchmark itself makes into a layer's public API (sources
//     S and H): client → (in-process transport) → server.Handler, a twin
//     store given the same requests with Stage/Decode hooks, and per-tile
//     core retrievals straight off the container file;
//  4. the kernel probes of probes.go on the workload's own tiles.
//
// Nothing inside the program is instrumented by this change.

// tileProbesPerOp bounds the per-tile core retrievals of one replayed
// operation, and compressProbes the tiles compressed from source.
const (
	tileProbesPerOp = 2
	compressProbes  = 16
	kernelProbes    = 4
)

// inproc serves the client's requests by calling the handler directly,
// so client, server and store time nest in one goroutine with no socket
// between them; what the socket costs is measured separately as
// http.transport_ms.
type inproc struct {
	h      http.Handler
	tr     *tracer
	op     int
	parent int
}

func (ip *inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	id := ip.tr.begin(ip.op, ip.parent, "server.ServeHTTP")
	ip.h.ServeHTTP(rec, req)
	ip.tr.end(id)
	return rec.Result(), nil
}

func traceServe(b *serveBench, res *result) error {
	ctx := b.ctx
	total := time.Duration(ctx.seconds * float64(time.Second))
	dWarm, dB := total/10, total*3/10
	warmOps := b.genOps("trace/warm", 1<<12)

	// 1 and 2: the same load against an untraced and a traced child.
	var lat [2]loopOut
	var before, after *scrape
	var packed setupTimes
	for i, traced := range []bool{false, true} {
		st, err := b.setup(traced)
		if err != nil {
			return err
		}
		packed = st
		// A short closed loop first, so that phase B meets the caches and
		// pools in the state the measured run's phase A leaves them in.
		closedLoop(conns(), dWarm, b.do(warmOps))
		if traced {
			if before, err = b.c.scrape(); err != nil {
				return err
			}
		}
		start := time.Now()
		lat[i] = b.phaseB("trace/B", dB)
		res.phase(map[bool]string{false: "phaseB.untraced", true: "phaseB.traced"}[traced], time.Since(start))
		if traced {
			if after, err = b.c.scrape(); err != nil {
				return err
			}
		}
		b.c.kill()
	}
	untraced := summarizeAt(lat[0].latencies(""), serveTailPct)
	traced := summarizeAt(lat[1].latencies(""), serveTailPct)
	if untraced.N == 0 || traced.N == 0 {
		return fmt.Errorf("no request succeeded: %v", b.tg.t.first)
	}
	res.Timings["phaseB.untraced"] = untraced
	res.Timings["phaseB.traced"] = traced
	res.Counts["latency_tail_pct"] = traced.TailPct
	res.set("latency_p99_ms", traced.Tail)

	// Source M: what the traced child exported, per request.
	region := func(name string, labels ...string) float64 {
		return delta(before, after, name, append([]string{`route="region"`}, labels...)...)
	}
	stage := func(name string) float64 {
		return delta(before, after, "ipcomp_stage_seconds_sum", `stage="`+name+`"`)
	}
	n := region("ipcomp_request_seconds_count")
	nRaw := region("ipcomp_request_seconds_count", `format="raw"`)
	if n == 0 {
		return fmt.Errorf("the traced child counted no region request")
	}
	reqSeconds := region("ipcomp_request_seconds_sum")
	requestMs := reqSeconds / n * 1e3
	res.set("server.request_ms", requestMs)
	reportChild(res, before, after, n, n, nRaw)
	dec := delta(before, after, "ipcomp_codec_bytes", `op="decode"`)
	if dec > 0 {
		res.set("codec.deflate_byte_share", delta(before, after, "ipcomp_codec_bytes", `op="decode"`, `method="deflate"`)/dec)
	}
	// Stages that are wall-clock intervals of the request; entropy_decode
	// and backend_fetch are CPU summed across tiles and nested inside
	// tile_decode and relay, so they are left out of the coverage sum.
	res.set("obs.stage_coverage", (stage("admission")+stage("warm_sweep")+stage("tile_decode")+stage("relay"))/reqSeconds)
	res.set("obs.trace_overhead_frac", traced.P50/untraced.P50-1)
	service := mean(lat[1].services(""))
	res.set("gen.lateness_p99_ms", quantile(sorted(append(lat[0].late, lat[1].late...)), 0.99))
	res.set("gen.datagen_s", ctx.gen.datagen.Seconds())
	res.set("gen.build_s", ctx.buildS)
	res.set("store.pack_mbps", float64(b.f.rawBytes())/1e6/packed.pack.Seconds())

	// 3: the in-process replay.
	start := time.Now()
	rp, err := b.replay()
	if err != nil {
		return err
	}
	res.phase("replay", time.Since(start))
	lts := layerTimes(rp.tr.spans)
	res.Layers, res.Spans = lts, rp.tr.spans
	serveMs, _, rounds := pooled(lts, "server.ServeHTTP")
	twinMs, _, _ := pooled(lts, "store.RetrieveRegionOpts", "store.PlanRegion", "store.ReadRange")
	if rounds == 0 {
		return fmt.Errorf("the replay completed no round: %v", b.tg.t.first)
	}
	perRound := func(v float64) float64 { return v / float64(rounds) }
	res.set("server.handler_self_ms", perRound(serveMs-twinMs))
	// What the client observed, less what the server says it spent, less
	// what the client library itself spent decoding planes (a raw round
	// has none): the sockets and the kernel between them.
	_, clientSelfMs, _ := pooled(lts, "client.Region", "client.Refine")
	clientSelf := perRound(clientSelfMs)
	transportMs := service - requestMs - clientSelf
	res.set("http.transport_ms", transportMs)
	regionMs, _ := meanMs(lts, "store.RetrieveRegionOpts")
	res.set("store.region_ms", regionMs)
	res.set("store.copy_self_ms", selfMeanMs(lts, "store.RetrieveRegionOpts"))
	planMs, _ := meanMs(lts, "store.PlanRegion", "store.PlanRegion(probe)")
	res.set("store.plan_region_us", planMs*1e3)
	res.set("client.reassemble_ms", selfMeanMs(lts, "client.Region"))
	res.set("client.refine_ms", selfMeanMs(lts, "client.Refine"))
	res.set("client.fetched_bytes_per_op", mean(rp.fetchedPerOp))
	if rp.planPayload > 0 {
		res.set("wire.frame_overhead_frac", (rp.wireBytes-rp.planPayload)/rp.planPayload)
	}
	res.set("backend.bytes_per_req", mean(rp.bytesPerRound))
	res.set("backend.reads_per_req", mean(rp.readsPerRound))
	fileReadMs, _ := meanMs(lts, "backend.ReadAt")
	res.set("backend.file_read_us", fileReadMs*1e3)
	compressMs, _ := meanMs(lts, "core.Compress")
	retrieveMs, _ := meanMs(lts, "core.Retrieve")
	refineMs, _ := meanMs(lts, "core.RefineErrorBound")
	planUs, _ := meanMs(lts, "core.PlanErrorBoundMode")
	res.set("core.compress_ms", compressMs)
	res.set("core.retrieve_ms", retrieveMs)
	res.set("core.refine_ms", refineMs)
	res.set("core.self_ms", selfMeanMs(lts, "core.Retrieve"))
	res.set("core.plan_us", planUs*1e3)

	// 4: kernel probes on the workload's own tiles.
	start = time.Now()
	var pk probeKernels
	for _, tile := range rp.tiles {
		pk.add(probeKernelsOn(tile, grid.Shape{ctx.sz.tile, ctx.sz.tile, ctx.sz.tile}, b.eb, 3))
	}
	pk.report(res)
	res.phase("probes", time.Since(start))

	// The budget of one single-round raw operation — a fresh box on the
	// cold workload, the cached box on the warm one. Every term is a time
	// some layer was measured to spend on its own: the generator's queue in
	// the traced phase B, and the handler's and the store's in the replay,
	// where they nest. What is left of the end-to-end median is what no
	// layer's own time explains: sockets and the kernel (http.transport_ms
	// is the client-side estimate of that), and requests slowing each
	// other down on two cores, which the one-at-a-time replay cannot see.
	kind := map[bool]string{false: "fresh", true: "hit"}[b.spec.warm]
	klat := lat[1].latencies(kind)
	// The median round does not queue; this is usually 0.
	kwait := lat[1].values(kind, func(s sample) float64 { return s.wait })
	if len(klat) == 0 {
		return fmt.Errorf("phase B completed no %s round", kind)
	}
	inOp := rp.tr.opsNamed("op/" + kind)
	serveK, nK := spanMean(rp.tr.spans, inOp, "server.ServeHTTP")
	storeK, _ := spanMean(rp.tr.spans, inOp, "store.RetrieveRegionOpts")
	res.Counts["budget.rounds"] = float64(nK)
	res.Budget = closeBudget(res, []budgetTerm{
		{"gen: median queue behind busy connections (phase B, " + kind + " rounds)", median(kwait)},
		{"server: handler self time (replay)", serveK - storeK},
		{"store: RetrieveRegionOpts (replay; sweep, tile decodes, copy)", storeK},
	}, median(klat))
	res.Budget = append(res.Budget,
		budgetTerm{"(all rounds) http.transport_ms", transportMs},
		budgetTerm{"(all rounds) server.request_ms, traced child", requestMs},
		budgetTerm{"(all rounds) client reassembly and refine self time", clientSelf})
	return nil
}

// replayOut is what the in-process replay hands back besides its spans.
type replayOut struct {
	tr            *tracer
	fetchedPerOp  []float64 // client.FetchedBytes at the end of each planes operation
	wireBytes     float64   // body bytes of planes rounds
	planPayload   float64   // span payload the twin's plans say those rounds carry
	bytesPerRound []float64 // container bytes a round read (raw) or shipped (planes)
	readsPerRound []float64 // spans in the round's plan
	tiles         [][]float64
}

// replay runs seeded operations against an in-process server built the
// way ipcompd builds it (file backend, same cache budget, warm workload
// pre-decoded), with a twin store fed the same sequence so that the time
// the handler spends inside internal/store can be subtracted from it.
func (b *serveBench) replay() (*replayOut, error) {
	sz := b.ctx.sz
	out := &replayOut{tr: newTracer()}
	tr := out.tr

	be, name, err := backend.Open(b.path)
	if err != nil {
		return nil, err
	}
	defer backend.Close(be)
	open := func() (*store.Store, error) {
		s, err := store.OpenBackend(be, name)
		if err != nil {
			return nil, err
		}
		s.SetCacheBytes(int64(b.spec.cacheMB) << 20)
		if b.spec.warm {
			if _, err := s.RetrieveDataset(b.spec.dataset, hitMult*b.eb); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	served, err := open()
	if err != nil {
		return nil, err
	}
	twin, err := open()
	if err != nil {
		return nil, err
	}
	srv := server.New()
	if err := srv.AddStore(name, served); err != nil {
		return nil, err
	}
	srv.SetReady()
	ip := &inproc{h: srv.Handler(), tr: tr}
	hc := &http.Client{Transport: ip}
	tg := &target{hc: hc, cl: client.New("http://inproc", client.WithHTTPClient(hc)), base: "http://inproc", eb: b.eb, f: b.f, t: b.tg.t}

	file, err := os.Open(b.path)
	if err != nil {
		return nil, err
	}
	defer file.Close()

	var sc scratch
	var reuse *store.Region
	compressed := 0
	ds := b.spec.dataset
	for i, op := range b.genOps("replay", sz.replayOps) {
		ip.op = i + 1
		kinds := roundKinds[op.kind]
		root := tr.begin(ip.op, 0, "op/"+opNames[op.kind])

		// twinRaw gives the twin store the request the handler just had.
		twinRaw := func(bound float64) error {
			var st core.DecodeStats
			id := tr.begin(ip.op, root, "store.RetrieveRegionOpts")
			decodeID := 0
			reg, err := twin.RetrieveRegionOpts(ds, op.lo, op.hi, bound, store.RetrieveOptions{
				Reuse:  reuse,
				Decode: &st,
				Stage: func(s obs.Stage, d time.Duration) {
					sid := tr.add(ip.op, id, "store."+s.String(), time.Now(), d)
					if s == obs.StageTileDecode {
						decodeID = sid
					}
				},
			})
			tr.end(id)
			if err != nil {
				return err
			}
			reuse = reg
			if decodeID != 0 {
				tr.hangDecodeStats(ip.op, decodeID, &st)
			}
			out.bytesPerRound = append(out.bytesPerRound, float64(reg.LoadedBytes()))
			return nil
		}
		// twinPlanes plans and reads what the handler just planned and
		// shipped, and returns the plan's span payload.
		twinPlanes := func(bound, have float64) (float64, error) {
			id := tr.begin(ip.op, root, "store.PlanRegion")
			plan, err := twin.PlanRegion(ds, op.lo, op.hi, bound, have)
			tr.end(id)
			if err != nil {
				return 0, err
			}
			id = tr.begin(ip.op, root, "store.ReadRange")
			for c := range plan.Chunks {
				cp := &plan.Chunks[c]
				for _, sp := range cp.Spans {
					if _, err := twin.ReadRange(cp.BlobOff+sp.Off, sp.Len); err != nil {
						return 0, err
					}
				}
			}
			tr.end(id)
			out.bytesPerRound = append(out.bytesPerRound, float64(plan.Bytes()))
			out.readsPerRound = append(out.readsPerRound, float64(planSpans(plan)))
			return float64(plan.Bytes()), nil
		}

		switch op.kind {
		case opFresh, opHit:
			for k, m := range op.mult {
				id := tr.begin(ip.op, root, "http.round")
				ip.parent = id
				r, ok := tg.raw(kinds[k], ds, op.lo, op.hi, m*b.eb, &sc)
				tr.endAt(id, r.done)
				if !ok {
					break
				}
				if err := twinRaw(m * b.eb); err != nil {
					return nil, err
				}
			}
		case opPlanes, opChain:
			id := tr.begin(ip.op, root, "client.Region")
			ip.parent = id
			reg, r, ok := tg.region(kinds[0], ds, op.lo, op.hi, op.mult[0]*b.eb)
			tr.endAt(id, r.done)
			have := 0.0
			for k := 0; ok; k++ {
				payload, err := twinPlanes(op.mult[k]*b.eb, have)
				if err != nil {
					return nil, err
				}
				out.wireBytes += float64(r.wire)
				out.planPayload += payload
				have = reg.Bound()
				if k+1 == len(op.mult) {
					out.fetchedPerOp = append(out.fetchedPerOp, float64(reg.FetchedBytes()))
					break
				}
				id := tr.begin(ip.op, root, "client.Refine")
				ip.parent = id
				r, ok = tg.refine(kinds[k+1], reg, op.lo, op.hi, op.mult[k+1]*b.eb)
				tr.endAt(id, r.done)
			}
		}

		// Per-tile probes: the first round's bound on a few of the tiles
		// the box touches, straight off the container file.
		bound := op.mult[0] * b.eb
		id := tr.begin(ip.op, root, "store.PlanRegion(probe)")
		plan, err := twin.PlanRegion(ds, op.lo, op.hi, bound, 0)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if op.kind == opFresh || op.kind == opHit {
			out.readsPerRound = append(out.readsPerRound, float64(planSpans(plan)))
		}
		for c := 0; c < len(plan.Chunks) && c < tileProbesPerOp; c++ {
			cp := &plan.Chunks[c]
			if err := b.probeTile(tr, ip.op, root, file, be, name, cp, bound); err != nil {
				return nil, err
			}
			if compressed < compressProbes {
				compressed++
				if err := b.probeCompress(tr, ip.op, root, cp, out); err != nil {
					return nil, err
				}
			}
		}
		tr.end(root)
	}
	return out, nil
}

// planSpans counts the byte ranges a plan reads.
func planSpans(plan *store.RegionPlan) int {
	n := 0
	for c := range plan.Chunks {
		n += len(plan.Chunks[c].Spans)
	}
	return n
}

// probeTile retrieves one tile at the bound through internal/core, off a
// section of the container file, with the DecodeStats hooks splitting the
// time into codec, read and core's own; then plans it, refines it, and
// reads the plan's spans through the file backend.
func (b *serveBench) probeTile(tr *tracer, op, root int, file *os.File, be backend.Backend, name string, cp *store.ChunkPlan, bound float64) error {
	var st core.DecodeStats
	id := tr.begin(op, root, "core.Retrieve")
	ar, err := core.NewArchiveReaderAt(io.NewSectionReader(file, cp.BlobOff, cp.BlobSize), cp.BlobSize)
	var res *core.Result
	if err == nil {
		res, err = ar.RetrieveErrorBoundStats(bound, &st)
	}
	tr.end(id)
	if err != nil {
		return err
	}
	tr.hangDecodeStats(op, id, &st)
	check := func(route string, requested float64) bool {
		a := advert{requested: requested, guaranteed: res.GuaranteedError()}
		if b.f.f32 != nil {
			return b.tg.t.count(checkBox(b.f, route, cp.Lo, cp.Hi, core.DataOf[float32](res), a))
		}
		return b.tg.t.count(checkBox(b.f, route, cp.Lo, cp.Hi, core.DataOf[float64](res), a))
	}
	if !check("core tile retrieve", bound) {
		return nil
	}

	id = tr.begin(op, root, "core.PlanErrorBoundMode")
	_, err = ar.PlanErrorBoundMode(bound)
	tr.end(id)
	if err != nil {
		return err
	}

	tighter := max(b.eb, bound/4)
	id = tr.begin(op, root, "core.RefineErrorBound")
	err = res.RefineErrorBound(tighter)
	tr.end(id)
	if err != nil {
		return err
	}
	check("core tile refine", tighter)

	buf := make([]byte, 0, 1<<16)
	for _, sp := range cp.Spans {
		if int64(cap(buf)) < sp.Len {
			buf = make([]byte, sp.Len)
		}
		id = tr.begin(op, root, "backend.ReadAt")
		_, err := be.ReadAt(name, buf[:sp.Len], cp.BlobOff+sp.Off)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// probeCompress compresses one tile's source values through
// internal/core, as packing did, and keeps the values for the kernel
// probes.
func (b *serveBench) probeCompress(tr *tracer, op, root int, cp *store.ChunkPlan, out *replayOut) error {
	ext := make(grid.Shape, len(cp.Lo))
	for d := range ext {
		ext[d] = cp.Hi[d] - cp.Lo[d]
	}
	var err error
	var vals []float64
	if b.f.f32 != nil {
		crop := cropBox(b.f.f32, b.f.shape, cp.Lo, ext)
		vals = grid.WidenSlice(crop)
		err = compressSpan(tr, op, root, crop, ext, b.eb)
	} else {
		vals = cropBox(b.f.f64, b.f.shape, cp.Lo, ext)
		err = compressSpan(tr, op, root, vals, ext, b.eb)
	}
	if err != nil {
		return err
	}
	// Whole tiles only: the kernel probes are stated per tile shape.
	if len(out.tiles) < kernelProbes && ext.Len() == b.ctx.sz.tile*b.ctx.sz.tile*b.ctx.sz.tile {
		out.tiles = append(out.tiles, vals)
	}
	return nil
}

func compressSpan[T grid.Scalar](tr *tracer, op, root int, vals []T, shape grid.Shape, eb float64) error {
	g, err := grid.FromSlice(vals, shape)
	if err != nil {
		return err
	}
	id := tr.begin(op, root, "core.Compress")
	_, err = core.Compress(g, core.Options{ErrorBound: eb})
	tr.end(id)
	return err
}
