package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/grid"
	"repro/ipcomp/client"
)

// ingest_series drives the write path: one writer (the snapshot store has
// one writer by contract) POSTs a time series of a slowly changing field
// to a writable ipcompd and reads a seeded box of every snapshot straight
// back. The same compress kernels as codec_field
// run, but beside reads and through server ingest → store.PackSnapshot →
// cas hash/dedup/journalled seal → OpenSnapshot first-read verify. The
// run ends with seal=now, SIGKILL, a restart on the same directory and a
// read of every snapshot that was acknowledged under a seal.

const ingestField = "density"

// readMult is the bound, in units of the series' error bound, of the read
// straight after a write.
const readMult = 16

type ingestBench struct {
	ctx  *runCtx
	f    *field // the live field: what the latest snapshot must decode to
	body []byte // its little-endian bytes, patched in place as tiles churn
	eb   float64
	dir  string // -cas-dir
	c    *child
	tg   *target
	sc   scratch
	rng  *rand.Rand // churn and box draws

	// kept per snapshot for the post-restart check: the box that was read
	// after the write and the true values inside it.
	boxes [][2][]int
	crops [][]float32
}

// postDoc is the part of a write acknowledgement the benchmark reads.
type postDoc struct {
	Dataset    string  `json:"dataset"`
	T          int     `json:"t"`
	Tiles      int     `json:"tiles"`
	ErrorBound float64 `json:"error_bound"`
	NewBlobs   int     `json:"new_blobs"`
	DedupBlobs int     `json:"dedup_blobs"`
	Sealed     bool    `json:"sealed"`
}

func (b *ingestBench) start(traced bool) error {
	bin, err := b.ctx.buildServer()
	if err != nil {
		return err
	}
	args := []string{"-writable", "-cas-dir", b.dir, "-seal-interval", "0"}
	if traced {
		args = append(args, "-trace-sample", "1")
	}
	if b.c, err = startChild(bin, traced, args...); err != nil {
		return err
	}
	hc := newHTTPClient(conns())
	b.tg.hc, b.tg.base = hc, b.c.base
	b.tg.cl = client.New(b.c.base, client.WithHTTPClient(hc))
	return nil
}

// post writes the live field as snapshot t (t 0 creates the series) and
// returns how long the server took to acknowledge it. An acknowledgement
// that is not 201, does not parse, or names another snapshot is a failed
// operation.
func (b *ingestBench) post(t int, seal bool) (time.Duration, *postDoc, bool) {
	sh := b.f.shape
	tile := b.ctx.sz.tile
	url := fmt.Sprintf("%s/v1/datasets/%s/snapshots", b.tg.base, ingestField)
	if t == 0 {
		url = fmt.Sprintf("%s/v1/datasets/%s?shape=%dx%dx%d&chunk=%dx%dx%d&dtype=f32&eb=%g&rel=true",
			b.tg.base, ingestField, sh[0], sh[1], sh[2], tile, tile, tile, relEB32)
	}
	if seal {
		if t == 0 {
			url += "&seal=now"
		} else {
			url += "?seal=now"
		}
	}
	start := time.Now()
	resp, err := b.tg.hc.Post(url, "application/octet-stream", bytes.NewReader(b.body))
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(start)
	var doc postDoc
	if err == nil && resp.StatusCode != http.StatusCreated {
		err = fmt.Errorf("POST snapshot t%d: %s: %s", t, resp.Status, bytes.TrimSpace(raw))
	}
	if err == nil {
		err = json.Unmarshal(raw, &doc)
	}
	if err == nil && (doc.T != t || doc.Sealed != seal || doc.Tiles != doc.NewBlobs+doc.DedupBlobs) {
		err = fmt.Errorf("POST snapshot t%d acknowledged as %+v", t, doc)
	}
	return d, &doc, b.tg.t.count(err)
}

// churn perturbs a seeded share of the tiles of the live field, each by
// its own small offset, and patches the request body to match.
func (b *ingestBench) churn() {
	sh, tile := b.f.shape, b.ctx.sz.tile
	per := []int{(sh[0] + tile - 1) / tile, (sh[1] + tile - 1) / tile, (sh[2] + tile - 1) / tile}
	ntiles := per[0] * per[1] * per[2]
	k := max(1, int(math.Round(b.ctx.sz.ingestChurn*float64(ntiles))))
	st := sh.Strides()
	for _, ti := range b.rng.Perm(ntiles)[:k] {
		off := float32((b.rng.Float64() - 0.5) * 2e-3 * b.f.vrange)
		tz, ty, tx := ti/(per[1]*per[2]), ti/per[2]%per[1], ti%per[2]
		for z := tz * tile; z < min(sh[0], (tz+1)*tile); z++ {
			for y := ty * tile; y < min(sh[1], (ty+1)*tile); y++ {
				o := z*st[0] + y*st[1]
				for x := tx * tile; x < min(sh[2], (tx+1)*tile); x++ {
					v := b.f.f32[o+x] + off
					b.f.f32[o+x] = v
					binary.LittleEndian.PutUint32(b.body[4*(o+x):], math.Float32bits(v))
				}
			}
		}
	}
}

// readBack reads a seeded box of snapshot t straight after its write; the
// box and its true values are kept for the post-restart check.
func (b *ingestBench) readBack(t int) (round, bool) {
	sz := b.ctx.sz
	lo, hi := latticeBox(b.rng, b.f.shape, sz.box, sz.lattice)
	name := fmt.Sprintf("%s@t%d", ingestField, t)
	b.boxes = append(b.boxes, [2][]int{lo, hi})
	b.crops = append(b.crops, cropBox(b.f.f32, b.f.shape, lo, grid.Shape{sz.box, sz.box, sz.box}))
	return b.tg.raw("read_after_write", name, lo, hi, readMult*b.eb, &b.sc)
}

// setup starts a writable ipcompd on an empty directory and creates the
// series (t0). It leaves the child running.
func (b *ingestBench) setup(traced bool) (time.Duration, error) {
	if err := b.start(traced); err != nil {
		return 0, err
	}
	d, doc, ok := b.post(0, false)
	if !ok {
		return 0, fmt.Errorf("creating the series failed: %v", b.tg.t.first)
	}
	b.eb, b.tg.eb = doc.ErrorBound, doc.ErrorBound
	return b.c.ready + d, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func newIngestBench(ctx *runCtx, t *tally) (*ingestBench, error) {
	f, err := makeField(ctx.root, "Density", ctx.sz.ingestShape, true, ctx.seed, &ctx.gen)
	if err != nil {
		return nil, err
	}
	b := &ingestBench{ctx: ctx, f: f, tg: &target{f: f, t: t}, rng: subRand(ctx.seed, "ingest/series")}
	b.body = make([]byte, 4*len(f.f32))
	for i, v := range f.f32 {
		binary.LittleEndian.PutUint32(b.body[4*i:], math.Float32bits(v))
	}
	return b, nil
}

// seriesTimes is what one series measured, in milliseconds: every POST,
// the POSTs split by whether they carried seal=now, and the read that
// follows each.
type seriesTimes struct {
	posts, plain, sealed, reads durs
	elapsed                     time.Duration
}

// series writes snapshots t1..n, reading each back, sealing every
// sealEvery-th and the last.
func (b *ingestBench) series(n int) (seriesTimes, error) {
	var st seriesTimes
	begin := time.Now()
	for t := 1; t <= n; t++ {
		b.churn()
		seal := t%b.ctx.sz.ingestSealEvery == 0 || t == n
		d, _, ok := b.post(t, seal)
		if !ok {
			return st, fmt.Errorf("snapshot t%d was not acknowledged: %v", t, b.tg.t.first)
		}
		st.posts.add(d)
		if seal {
			st.sealed.add(d)
		} else {
			st.plain.add(d)
		}
		// A failed read is counted as failed; the series goes on.
		if read, ok := b.readBack(t); ok {
			st.reads.add(read.done.Sub(read.start))
		}
	}
	st.elapsed = time.Since(begin)
	return st, nil
}

// restartCheck is the durability check: the child is killed with
// SIGKILL, restarted on the same directory, and every snapshot that was
// acknowledged under a seal — all of them, the last POST carried
// seal=now — must be served within its bound. It also takes the
// retrieval-volume count over the planes protocol. The
// kill leaves the operating system's page cache intact: this checks the
// journalled seal and recovery logic in a sandbox, not a device.
func (b *ingestBench) restartCheck() (recover time.Duration, loadedFrac float64, err error) {
	b.c.kill()
	if err := b.start(false); err != nil {
		return 0, 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	recover = b.c.ready
	live := b.tg.f
	defer func() { b.tg.f = live }()
	sz := b.ctx.sz
	for i, box := range b.boxes {
		lo, hi := box[0], box[1]
		b.tg.f = &field{shape: grid.Shape{sz.box, sz.box, sz.box}, f32: b.crops[i], origin: lo}
		b.tg.raw("post_restart", fmt.Sprintf("%s@t%d", ingestField, i+1), lo, hi, readMult*b.eb, &b.sc)
	}
	// The retrieval-volume count: the centred box of the last snapshot —
	// the live field — at every bound of the ladder, over the planes
	// protocol, against the same box at full fidelity.
	b.tg.f = live
	var at, full float64
	lo, hi := centredBox(live.shape, sz.box)
	name := fmt.Sprintf("%s@t%d", ingestField, len(b.boxes))
	if whole, _, ok := b.tg.region("post_restart_planes", name, lo, hi, 0); ok {
		for _, m := range boundLadder {
			if reg, _, ok := b.tg.region("post_restart_planes", name, lo, hi, m*b.eb); ok {
				at += float64(reg.FetchedBytes())
				full += float64(whole.FetchedBytes())
			}
		}
	}
	if full == 0 {
		return recover, 0, fmt.Errorf("no post-restart planes fetch succeeded: %v", b.tg.t.first)
	}
	return recover, at / full, nil
}

func runIngestSeries(ctx *runCtx) (*result, error) {
	res := newResult("ingest_series", ctx.trace)
	t := &tally{}
	b, err := newIngestBench(ctx, t)
	if err != nil {
		return nil, err
	}
	defer func() { b.c.kill() }()
	if ctx.trace {
		if err := traceIngest(b, res); err != nil {
			return nil, err
		}
		return res, res.finish(t, true)
	}

	var setups []float64
	for rep := 0; rep < ctx.sz.setupReps; rep++ {
		b.c.kill()
		b.dir = filepath.Join(ctx.work, fmt.Sprintf("cas-%d", rep))
		d, err := b.setup(false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	res.phase("setup", time.Duration(sum(setups)*float64(time.Second)))

	n := max(8, int(math.Round(ctx.sz.ingestSnapsPS*ctx.seconds)))
	st, err := b.series(n)
	if err != nil {
		return nil, err
	}
	res.phase("series", st.elapsed)
	rss := b.c.peakRSSMB()
	stored, err := dirBytes(b.dir)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	recover, loaded, err := b.restartCheck()
	if err != nil {
		return nil, err
	}
	res.phase("restart_check", time.Since(start))
	if len(st.reads) == 0 || len(st.plain) == 0 || len(st.sealed) == 0 {
		return nil, fmt.Errorf("too few operations succeeded to measure: %v", t.first)
	}

	pl := summarizeAt(st.posts, ingestTailPct)
	res.Timings["post"] = pl
	res.timing("post.plain", st.plain)
	res.timing("post.sealed", st.sealed)
	res.timing("read_after_write", st.reads)
	res.Counts["snapshots"] = float64(n)
	res.Counts["latency_tail_pct"] = pl.TailPct
	res.Counts["cas.recover_ms"] = ms(recover)
	res.Counts["cas.stored_bytes"] = float64(stored)

	const mb = 1e6
	raw := float64(b.f.rawBytes())
	res.set("setup_s", median(setups))
	res.set("compress_mbps", float64(len(st.posts))*raw/mb/(sum(st.posts)/1e3))
	res.set("ratio", float64(n+1)*raw/float64(stored))
	res.set("latency_p50_ms", pl.P50)
	res.set("read_after_write_ms", median(st.reads))
	res.set("peak_rss_mb", rss)
	// Carried (see native in spec.go): the first read as a throughput —
	// nothing is refined here, so twice — the writer's closed loop as a
	// service (a POST and a read per snapshot), and the retrieval-volume
	// count restartCheck takes over the planes protocol.
	boxBytes := float64(4 * ctx.sz.box * ctx.sz.box * ctx.sz.box)
	readMBps := boxBytes / mb / (median(st.reads) / 1e3)
	res.set("retrieve_mbps", readMBps)
	res.set("refine_mbps", readMBps)
	res.set("loaded_frac", loaded)
	res.set("capacity_rps", float64(len(st.posts)+len(st.reads))/st.elapsed.Seconds())
	res.set("goodput_mbps", (float64(len(st.posts))*raw+float64(len(st.reads))*boxBytes)/mb/st.elapsed.Seconds())
	return res, res.finish(t, false)
}
