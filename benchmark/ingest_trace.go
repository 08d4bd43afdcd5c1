package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/cas"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/store"
)

// The traced run of ingest_series: a shorter series against an untraced
// and then a traced child (the latter scraped before and after, killed
// and restarted for cas.recover_ms), and an in-process replay of the
// write path with a span around every public call it is made of —
// store.PackSnapshot, cas.ScoreOf, cas.Put, cas.Seal, store.OpenSnapshot,
// the first read, cas.ReadBlob on a freshly opened store — plus
// core.Compress on churned tiles and the kernel probes.

func traceIngest(b *ingestBench, res *result) error {
	ctx := b.ctx
	n := max(ctx.sz.ingestSealEvery+1, int(math.Round(ctx.sz.ingestSnapsPS*ctx.seconds*0.3)))

	var p50 [2]float64
	var tracedPosts, tracedPlain durs
	var before, after *scrape
	for i, traced := range []bool{false, true} {
		b.dir = filepath.Join(ctx.work, fmt.Sprintf("cas-trace-%d", i))
		b.boxes, b.crops = nil, nil
		if _, err := b.setup(traced); err != nil {
			return err
		}
		var err error
		if traced {
			if before, err = b.c.scrape(); err != nil {
				return err
			}
		}
		st, err := b.series(n)
		if err != nil {
			return err
		}
		if len(st.reads) == 0 {
			return fmt.Errorf("no read-after-write succeeded: %v", b.tg.t.first)
		}
		res.phase(map[bool]string{false: "series.untraced", true: "series.traced"}[traced], st.elapsed)
		p50[i] = median(st.posts)
		if !traced {
			b.c.kill()
			continue
		}
		tracedPosts, tracedPlain = st.posts, st.plain
		if after, err = b.c.scrape(); err != nil {
			return err
		}
		recover, _, err := b.restartCheck()
		if err != nil {
			return err
		}
		res.set("cas.recover_ms", ms(recover))
		b.c.kill()
	}
	res.Timings["post.traced"] = summarizeAt(tracedPosts, ingestTailPct)

	// Source M, per request of the route that does the work.
	stage := func(name string) float64 {
		return delta(before, after, "ipcomp_stage_seconds_sum", `stage="`+name+`"`)
	}
	nPost := delta(before, after, "ipcomp_request_seconds_count", `route="ingest"`)
	nGet := delta(before, after, "ipcomp_request_seconds_count", `route="region"`)
	if nPost == 0 || nGet == 0 {
		return fmt.Errorf("the traced child counted %g writes and %g reads", nPost, nGet)
	}
	postSeconds := delta(before, after, "ipcomp_request_seconds_sum", `route="ingest"`)
	getSeconds := delta(before, after, "ipcomp_request_seconds_sum", `route="region"`)
	requestMs := postSeconds / nPost * 1e3
	compressMs := stage("ingest_compress") / nPost * 1e3
	all := nPost + nGet
	res.set("server.request_ms", requestMs)
	res.set("server.ingest_compress_ms", compressMs)
	// Everything a write does outside the compress stage: reading and
	// decoding the body, OpenSnapshot, registering, the seal, the reply.
	res.set("server.handler_self_ms", requestMs-compressMs)
	reportChild(res, before, after, all, nGet, nGet)
	if enc := delta(before, after, "ipcomp_codec_bytes", `op="encode"`); enc > 0 {
		res.set("codec.deflate_byte_share", delta(before, after, "ipcomp_codec_bytes", `op="encode"`, `method="deflate"`)/enc)
	}
	res.set("obs.stage_coverage", (stage("admission")+stage("ingest_compress")+stage("warm_sweep")+stage("tile_decode")+stage("relay"))/(postSeconds+getSeconds))
	res.set("obs.trace_overhead_frac", p50[1]/p50[0]-1)
	transportMs := mean(tracedPosts) - requestMs
	res.set("http.transport_ms", transportMs)
	res.set("gen.datagen_s", ctx.gen.datagen.Seconds())
	res.set("gen.build_s", ctx.buildS)

	start := time.Now()
	rp, err := b.replay()
	if err != nil {
		return err
	}
	res.phase("replay", time.Since(start))
	lts := layerTimes(rp.tr.spans)
	res.Layers, res.Spans = lts, rp.tr.spans
	packMs, _ := meanMs(lts, "store.PackSnapshot")
	res.set("store.pack_mbps", float64(b.f.rawBytes())/1e6/(packMs/1e3))
	coreMs, _ := meanMs(lts, "core.Compress")
	res.set("core.compress_ms", coreMs)
	hashMs, hashes := meanMs(lts, "cas.ScoreOf")
	res.set("cas.hash_mbps", rp.hashedBytes/1e6/(hashMs*float64(hashes)/1e3))
	putMs, _ := meanMs(lts, "cas.Put")
	sealMs, _ := meanMs(lts, "cas.Seal")
	verifyMs, _ := meanMs(lts, "cas.ReadBlob")
	openMs, _ := meanMs(lts, "store.OpenSnapshot")
	readMs, _ := meanMs(lts, "store.RetrieveRegion")
	res.set("cas.put_ms", putMs)
	res.set("cas.seal_ms", sealMs)
	res.set("cas.read_verify_ms", verifyMs)
	res.set("cas.open_snapshot_ms", openMs)
	res.set("cas.dedup_ratio", rp.dedup/rp.tiles)
	res.set("store.region_ms", readMs)

	start = time.Now()
	var pk probeKernels
	for _, tile := range rp.probeTiles {
		pk.add(probeKernelsOn(tile, grid.Shape{ctx.sz.tile, ctx.sz.tile, ctx.sz.tile}, b.eb, 3))
	}
	pk.report(res)
	res.phase("probes", time.Since(start))

	// The budget of one POST that does not seal. Each term is a call the
	// replay made on its own, one snapshot at a time; what is left of the
	// traced child's median is what no layer's own time explains — reading
	// and decoding the 8 MB body, registering the snapshot, the reply, the
	// sockets. The child's own figures follow for comparison.
	res.Budget = closeBudget(res, []budgetTerm{
		{"store: PackSnapshot (replay; tile compress fan-out, hash, cas.Put)", packMs},
		{"store: OpenSnapshot (replay)", openMs},
	}, median(tracedPlain))
	res.Budget = append(res.Budget,
		budgetTerm{"(of PackSnapshot) cas.Put alone", putMs},
		budgetTerm{"(traced child) server.ingest_compress_ms", compressMs},
		budgetTerm{"(traced child) server.request_ms, sealed POSTs included", requestMs},
		budgetTerm{"(traced child) http.transport_ms", transportMs})
	return nil
}

type ingestReplay struct {
	tr          *tracer
	hashedBytes float64
	dedup       float64 // tile references that resolved to blobs already present
	tiles       float64
	probeTiles  [][]float64
}

// replay writes a short series into two CAS directories in-process. The
// first takes store.PackSnapshot, exactly as the server's ingest does; the
// second is fed the same blobs through cas.Put directly, which is how
// Put's own cost is told apart from the compression in front of it.
func (b *ingestBench) replay() (*ingestReplay, error) {
	sz := b.ctx.sz
	out := &ingestReplay{tr: newTracer()}
	tr := out.tr
	dirA := filepath.Join(b.ctx.work, "cas-replay-a")
	packed, err := cas.Open(dirA)
	if err != nil {
		return nil, err
	}
	direct, err := cas.Open(filepath.Join(b.ctx.work, "cas-replay-b"))
	if err != nil {
		return nil, err
	}
	opt := store.WriteOptions{ErrorBound: b.eb, Interpolation: interp.Cubic, ChunkShape: grid.Shape{sz.tile, sz.tile, sz.tile}}
	snaps := max(sz.ingestSealEvery+1, sz.replayOps/8)
	var scores []cas.Score
	tileShape := grid.Shape{sz.tile, sz.tile, sz.tile}
	for t := 0; t < snaps; t++ {
		op := t + 1
		if t > 0 {
			b.churn()
		}
		g, err := grid.FromSlice(b.f.f32, b.f.shape)
		if err != nil {
			return nil, err
		}
		root := tr.begin(op, 0, "op/snapshot")

		id := tr.begin(op, root, "store.PackSnapshot")
		m, st, err := store.PackSnapshot(packed, ingestField, g, opt)
		tr.end(id)
		if !b.tg.t.count(err) {
			return nil, err
		}
		out.dedup += float64(st.DedupBlobs)
		out.tiles += float64(len(m.Tiles))

		blobs := make([][]byte, len(m.Tiles))
		for i, ref := range m.Tiles {
			if blobs[i], err = packed.ReadBlob(ref.Score); err != nil {
				return nil, err
			}
			id = tr.begin(op, root, "cas.ScoreOf")
			score := cas.ScoreOf(blobs[i])
			tr.end(id)
			if score != ref.Score {
				return nil, fmt.Errorf("blob %d of %s hashes to %s, manifest says %s", i, m.Name(), score, ref.Score)
			}
			out.hashedBytes += float64(len(blobs[i]))
			if st.NewBlobs > 0 && len(scores) < 64 {
				scores = append(scores, ref.Score)
			}
		}
		m2 := &cas.Manifest{Field: ingestField, T: direct.NextT(ingestField), Shape: m.Shape, Chunk: m.Chunk, Scalar: m.Scalar, ErrorBound: m.ErrorBound}
		id = tr.begin(op, root, "cas.Put")
		_, err = direct.Put(m2, blobs)
		tr.end(id)
		if err != nil {
			return nil, err
		}

		if (t+1)%sz.ingestSealEvery == 0 || t == snaps-1 {
			id = tr.begin(op, root, "cas.Seal")
			err = packed.Seal()
			tr.end(id)
			if err == nil {
				err = direct.Seal()
			}
			if err != nil {
				return nil, err
			}
		}

		id = tr.begin(op, root, "store.OpenSnapshot")
		s, err := store.OpenSnapshot(packed, ingestField, m.T)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		lo, hi := latticeBox(b.rng, b.f.shape, sz.box, sz.lattice)
		id = tr.begin(op, root, "store.RetrieveRegion")
		reg, err := s.RetrieveRegion(m.Name(), lo, hi, readMult*b.eb)
		tr.end(id)
		if err == nil {
			err = checkBox(b.f, "snapshot read", lo, hi, reg.DataFloat32(), advert{requested: readMult * b.eb, guaranteed: reg.GuaranteedError()})
		}
		b.tg.t.count(err)

		// core.Compress on a few whole tiles of the live field, as the
		// pack's fan-out does for every tile.
		for k := 0; k < 4; k++ {
			tlo := []int{k * sz.tile % b.f.shape[0], 0, 0}
			crop := cropBox(b.f.f32, b.f.shape, tlo, tileShape)
			if err := compressSpan(tr, op, root, crop, tileShape, b.eb); err != nil {
				return nil, err
			}
			if len(out.probeTiles) < kernelProbes {
				out.probeTiles = append(out.probeTiles, grid.WidenSlice(crop))
			}
		}
		tr.end(root)
	}

	// First-touch verification: a store opened afresh on the sealed
	// directory hashes each blob the first time it is read.
	fresh, err := cas.Open(dirA)
	if err != nil {
		return nil, err
	}
	for i, score := range scores {
		id := tr.begin(snaps+1+i, 0, "cas.ReadBlob")
		_, err := fresh.ReadBlob(score)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
