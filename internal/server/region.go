package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// reqScratch is the per-request working state of the region endpoint,
// pooled across requests so the warm raw path performs no region-sized
// allocations: the retrieval Region (data slice plus tile scratch), the
// coordinate slices, and a small byte buffer for header values are all
// recycled.
type reqScratch struct {
	lo, hi []int
	reg    *store.Region
	tmp    []byte // header-value formatting
	trace  *obs.Trace
}

var reqPool = sync.Pool{New: func() any { return new(reqScratch) }}

// handleRegion serves GET /v1/datasets/{name}/region — the progressive
// retrieval endpoint. Two response formats share one query surface:
//
//   - format=raw (default): the reconstructed values as raw little-endian
//     floats, friendly to curl and non-Go clients. The server decodes the
//     region (through the shared tile cache) at the requested bound.
//   - format=planes: the progressive wire protocol. The server ships the
//     compressed bitplane ranges the client is missing — with refine=
//     <token>, only the delta beyond what the token certifies — and never
//     decodes anything.
//
// Admission control (SetAdmission) applies here: requests that need
// decode work pass through the decode semaphore, over-budget responses
// are degraded to a coarser bound (X-Ipcomp-Degraded: true) or rejected,
// and every outcome lands in the ipcomp_request_seconds histogram.
func (srv *Server) handleRegion(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ds, ok := srv.lookup(name)
	if !ok {
		// In cluster mode a dataset this node does not own is forwarded to
		// an owning replica — parameter validation included: the owner has
		// the dataset's shape, this node only has catalog metadata.
		if srv.cluster != nil {
			if rd, remote := srv.cluster.remoteDataset(name); remote {
				tr := srv.traceStart(r, "region", name)
				srv.cluster.forward(w, r, rd.container, tr)
				srv.rec.Finish(tr)
				return
			}
		}
		srv.errNotFound(w, name)
		return
	}
	// The request may have used the bare-field alias; the store only
	// knows the canonical snapshot name.
	name = ds.info.Name
	start := time.Now()
	sc := reqPool.Get().(*reqScratch)
	sc.trace = srv.traceStart(r, "region", name)
	format, outcome := srv.serveRegion(w, r, ds, name, sc)
	srv.rec.Finish(sc.trace)
	sc.trace = nil
	reqPool.Put(sc)
	srv.met.observe(format, outcome, time.Since(start))
}

// serveRegion parses the query and dispatches to the raw or planes
// serializer, reporting the (format, outcome) pair for the latency
// histogram.
func (srv *Server) serveRegion(w http.ResponseWriter, r *http.Request, ds *dataset, name string, sc *reqScratch) (int, int) {
	q := r.URL.RawQuery
	format, err := queryParam(q, "format")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return fmtRaw, outError
	}
	fidx := fmtRaw
	switch format {
	case "", "raw":
	case "planes":
		fidx = fmtPlanes
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("format must be raw or planes, got %.64q", format))
		return fmtRaw, outError
	}
	rank := len(ds.info.Shape)
	loS, err := queryParam(q, "lo")
	if err == nil {
		sc.lo, err = parseCoordsInto(sc.lo, loS, rank)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "lo: "+err.Error())
		return fidx, outError
	}
	hiS, err := queryParam(q, "hi")
	if err == nil {
		sc.hi, err = parseCoordsInto(sc.hi, hiS, rank)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "hi: "+err.Error())
		return fidx, outError
	}
	lo, hi := sc.lo, sc.hi
	for d := 0; d < rank; d++ {
		if lo[d] < 0 || hi[d] > ds.info.Shape[d] || lo[d] >= hi[d] {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("region [%v, %v) outside dataset shape %v", lo, hi, ds.info.Shape))
			return fidx, outError
		}
	}
	bound := 0.0
	if s, err := queryParam(q, "bound"); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return fidx, outError
	} else if s != "" {
		bound, err = strconv.ParseFloat(s, 64)
		if err != nil || bound < 0 || math.IsNaN(bound) || math.IsInf(bound, 0) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bound must be a non-negative float, got %.64q", s))
			return fidx, outError
		}
	}
	refine, err := queryParam(q, "refine")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return fidx, outError
	}
	if fidx == fmtPlanes {
		return fmtPlanes, srv.servePlanes(w, ds, name, lo, hi, bound, refine, sc)
	}
	if refine != "" {
		writeError(w, http.StatusBadRequest, "refine requires format=planes (raw responses carry full values)")
		return fmtRaw, outError
	}
	dtype, err := queryParam(q, "dtype")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return fmtRaw, outError
	}
	return fmtRaw, srv.serveRaw(w, r, ds, name, lo, hi, bound, dtype, sc)
}

// boundStatus maps retrieval/planning errors onto HTTP statuses.
func boundStatus(err error) (int, string) {
	if errors.Is(err, core.ErrBoundTooTight) {
		return http.StatusBadRequest, "bound is tighter than the dataset's compression error bound"
	}
	return http.StatusInternalServerError, err.Error()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeRetryAfter answers 429 with the admission Retry-After hint.
func (srv *Server) writeRetryAfter(w http.ResponseWriter, msg string) {
	srv.adm.rejected.Add(1)
	w.Header().Set("Retry-After", retryAfterSeconds)
	writeError(w, http.StatusTooManyRequests, msg)
}

// maxDegradeSteps bounds the planes degrade ladder: bounds double per
// step, so 40 steps span a fidelity range of 2^40 — any fitting plan lives
// well inside it.
const maxDegradeSteps = 40

// serveRaw decodes the region server-side and streams raw values.
func (srv *Server) serveRaw(w http.ResponseWriter, r *http.Request, ds *dataset, name string, lo, hi []int, bound float64, dtype string, sc *reqScratch) int {
	scalar, forced, err := parseScalar(dtype)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return outError
	}
	if !forced {
		scalar = ds.info.Scalar
	}
	n := 1
	for d := range lo {
		n *= hi[d] - lo[d]
	}
	// A raw response's size is fixed by the region and scalar — no error
	// bound shrinks it — so an over-budget request is rejected outright:
	// 413, not 429, because retrying the same region can never succeed.
	size := int64(n) * int64(scalar.Bytes())
	if max := srv.adm.opts.MaxRequestBytes; max > 0 && size > max {
		srv.adm.rejected.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("raw response is %d bytes, above the %d-byte request budget; shrink the region or use format=planes", size, max))
		return outRejected
	}
	acquired := false
	ctx := r.Context()
	tr := sc.trace
	ropts := store.RetrieveOptions{
		Reuse: sc.reg,
		Gate: func() error {
			at := tr.Begin(obs.StageAdmission)
			err := srv.adm.acquireDecode(ctx)
			at.End()
			if err != nil {
				return err
			}
			acquired = true
			return nil
		},
	}
	var dst *core.DecodeStats
	if tr != nil {
		// Stage timings from the store (wall time per phase) plus decode
		// counters from the codec layer (summed across parallel tiles, so
		// they can exceed wall time). The method value allocates, but only
		// on traced requests — the untraced warm path stays alloc-free.
		dst = &core.DecodeStats{}
		ropts.Stage = tr.ObserveStage
		ropts.Decode = dst
	}
	reg, err := ds.s.RetrieveRegionOpts(name, lo, hi, bound, ropts)
	if acquired {
		srv.adm.releaseDecode()
	}
	if tr != nil && dst != nil {
		if n := dst.CodecNanos.Load(); n > 0 {
			tr.ObserveStage(obs.StageEntropyDecode, time.Duration(n))
		}
		if n := dst.ReadNanos.Load(); n > 0 {
			tr.ObserveStage(obs.StageBackendFetch, time.Duration(n))
		}
	}
	if err != nil {
		if errors.Is(err, errQueueTimeout) {
			if srv.adm.opts.Degrade {
				return srv.degradeRaw(w, ds, name, lo, hi, scalar, forced, sc)
			}
			srv.writeRetryAfter(w, "decode queue is full; retry shortly")
			return outRejected
		}
		if ctx.Err() != nil {
			return outError // client went away while queued
		}
		status, msg := boundStatus(err)
		writeError(w, status, msg)
		return outError
	}
	sc.reg = reg
	srv.writeRawRegion(w, reg, scalar, forced, false, sc)
	return outOK
}

// degradeRaw is the raw path's graceful degradation: the decode queue is
// full, so answer from the tile cache alone. One warm sweep at an infinite
// bound copies every intersecting tile at whatever fidelity the cache
// holds, served with X-Ipcomp-Degraded: true (its real fidelity, the worst
// cached guarantee, is in the Guaranteed-Error header, as always). One
// uncached intersecting tile is enough for the 429.
func (srv *Server) degradeRaw(w http.ResponseWriter, ds *dataset, name string, lo, hi []int, scalar core.ScalarType, forced bool, sc *reqScratch) int {
	reg, err := ds.s.RetrieveRegionOpts(name, lo, hi, math.Inf(1), store.RetrieveOptions{
		Reuse: sc.reg,
		Gate:  denyDecode,
	})
	if err == nil {
		sc.reg = reg
		srv.adm.degraded.Add(1)
		srv.writeRawRegion(w, reg, scalar, forced, true, sc)
		return outDegraded
	}
	if !errors.Is(err, errDecodeDenied) {
		status, msg := boundStatus(err)
		writeError(w, status, msg)
		return outError
	}
	srv.writeRetryAfter(w, "decode queue is full and the tile cache does not hold the whole region; retry shortly")
	return outRejected
}

// writeRawRegion emits the headers and little-endian body of a retrieved
// region.
func (srv *Server) writeRawRegion(w http.ResponseWriter, reg *store.Region, scalar core.ScalarType, forced, degraded bool, sc *reqScratch) {
	if !forced {
		scalar = reg.Scalar()
	}
	n := 1
	tmp := sc.tmp[:0]
	lo, hi := sc.lo, sc.hi
	for d := range lo {
		e := hi[d] - lo[d]
		n *= e
		if d > 0 {
			tmp = append(tmp, 'x')
		}
		tmp = strconv.AppendInt(tmp, int64(e), 10)
	}
	sc.tmp = tmp
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.FormatInt(int64(n)*int64(scalar.Bytes()), 10))
	h.Set("X-Ipcomp-Shape", string(tmp))
	h.Set("X-Ipcomp-Scalar", scalar.String())
	h.Set("X-Ipcomp-Guaranteed-Error", formatFloat(reg.GuaranteedError()))
	h.Set("X-Ipcomp-Loaded-Bytes", strconv.FormatInt(reg.LoadedBytes(), 10))
	h.Set("X-Ipcomp-Chunks", strconv.Itoa(reg.Chunks()))
	if degraded {
		h.Set("X-Ipcomp-Degraded", "true")
	}
	publishTraceSpans(w, sc.trace)
	rt := sc.trace.Begin(obs.StageRelay)
	// A write error means the client went away mid-stream; the headers are
	// gone, so there is nothing left to tell it.
	if scalar == core.Float32 {
		_, _ = grid.WriteLE(w, reg.DataFloat32())
	} else {
		_, _ = grid.WriteLE(w, reg.Data())
	}
	rt.End()
}

// planTotal sums a plan's wire size, validating every span against the
// framing limit.
func planTotal(rp *store.RegionPlan, rank int) (int64, error) {
	total := wire.RegionHeaderSize(rank)
	for i := range rp.Chunks {
		cp := &rp.Chunks[i]
		for _, sp := range cp.Spans {
			// Validate before any header is written: a range beyond the
			// u32 framing field must fail the request, not truncate.
			if sp.Len > wire.MaxSpanLen {
				return 0, fmt.Errorf("tile %d needs a %d-byte range, beyond the framing limit", cp.Index, sp.Len)
			}
		}
		total += wire.ChunkHeaderSize(rank, len(cp.Keep))
		total += int64(len(cp.Spans))*wire.SpanHeaderSize + cp.Bytes()
	}
	return total, nil
}

// servePlanes ships the compressed plane ranges of the region plan,
// coarse level first, framed per docs/PROTOCOL.md. When the plan's wire
// size exceeds the request byte budget, the bound is degraded — doubled
// until the plan fits — and the response is marked X-Ipcomp-Degraded;
// its token certifies the degraded bound, so a later refine with the
// original bound fetches exactly the missing planes.
func (srv *Server) servePlanes(w http.ResponseWriter, ds *dataset, name string, lo, hi []int, bound float64, refine string, sc *reqScratch) int {
	haveBound := 0.0
	if refine != "" {
		tok, err := decodeToken(refine)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return outError
		}
		if !tok.matches(name, lo, hi) {
			writeError(w, http.StatusConflict,
				"refine token was issued for a different dataset or region; request the region fresh")
			return outError
		}
		haveBound = tok.bound
	}
	rp, err := ds.s.PlanRegion(name, lo, hi, bound, haveBound)
	if err != nil {
		if errors.Is(err, store.ErrBadRefineBase) {
			writeError(w, http.StatusBadRequest, err.Error())
			return outError
		}
		status, msg := boundStatus(err)
		writeError(w, status, msg)
		return outError
	}
	total, err := planTotal(rp, len(lo))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return outError
	}
	degraded := false
	if max := srv.adm.opts.MaxRequestBytes; max > 0 && total > max {
		if !srv.adm.opts.Degrade {
			srv.writeRetryAfter(w,
				fmt.Sprintf("planes response is %d bytes, above the %d-byte request budget", total, max))
			return outRejected
		}
		// Degrade ladder: bounds double until the plan fits, so the first
		// fitting rung is the tightest the ladder holds. Only where plan
		// bytes shrink monotonically as the bound loosens (one progressive
		// level per tile; TestPlanBytesMonotoneInBound) is it also the
		// tightest the budget allows, up to ladder granularity.
		b := rp.Bound
		fit := false
		for step := 0; step < maxDegradeSteps; step++ {
			b *= 2
			cand, err := ds.s.PlanRegion(name, lo, hi, b, haveBound)
			if err != nil {
				status, msg := boundStatus(err)
				writeError(w, status, msg)
				return outError
			}
			ct, err := planTotal(cand, len(lo))
			if err != nil {
				writeError(w, http.StatusInternalServerError, err.Error())
				return outError
			}
			if ct <= max {
				rp, total, degraded, fit = cand, ct, true, true
				break
			}
		}
		if !fit {
			srv.writeRetryAfter(w,
				fmt.Sprintf("even the coarsest plan exceeds the %d-byte request budget; shrink the region", max))
			return outRejected
		}
		srv.adm.degraded.Add(1)
	}
	// The new token certifies the tightest fidelity the client holds: a
	// refinement to a looser bound than the token must not loosen it.
	newBound := rp.Bound
	if haveBound > 0 && haveBound < newBound {
		newBound = haveBound
	}
	tok := (&token{dataset: name, lo: lo, hi: hi, bound: newBound}).encode()

	h := w.Header()
	h.Set("Content-Type", "application/x-ipcomp-frames")
	h.Set("Content-Length", strconv.FormatInt(total, 10))
	h.Set("X-Ipcomp-Token", tok)
	h.Set("X-Ipcomp-Bound", formatFloat(rp.Bound))
	h.Set("X-Ipcomp-Guaranteed-Error", formatFloat(rp.Guaranteed))
	h.Set("X-Ipcomp-Chunks", strconv.Itoa(len(rp.Chunks)))
	if degraded {
		h.Set("X-Ipcomp-Degraded", "true")
	}

	tr := sc.trace
	publishTraceSpans(w, tr)
	// The relay span covers the whole streamed body, backend reads
	// included; the fetch share is reported separately below so a trace
	// distinguishes copy-out from origin I/O.
	rt := tr.Begin(obs.StageRelay)
	defer rt.End()
	var readNanos int64
	if tr != nil {
		defer func() {
			if readNanos > 0 {
				tr.ObserveStage(obs.StageBackendFetch, time.Duration(readNanos))
			}
		}()
	}

	rank := len(lo)
	if err := wire.WriteRegionHeader(w, &wire.RegionHeader{
		Scalar:     rp.Scalar,
		Rank:       rank,
		Lo:         rp.Lo,
		Hi:         rp.Hi,
		Bound:      rp.Bound,
		Guaranteed: rp.Guaranteed,
		NumChunks:  len(rp.Chunks),
	}); err != nil {
		return outOK
	}
	for i := range rp.Chunks {
		cp := &rp.Chunks[i]
		if err := wire.WriteChunkHeader(w, &wire.ChunkHeader{
			Index:    cp.Index,
			Lo:       cp.Lo,
			Hi:       cp.Hi,
			BlobSize: cp.BlobSize,
			Keep:     cp.Keep,
			NumSpans: len(cp.Spans),
		}); err != nil {
			return outOK
		}
		for _, sp := range cp.Spans {
			if err := wire.WriteSpanHeader(w, wire.SpanHeader{Off: sp.Off, Len: sp.Len}); err != nil {
				return outOK
			}
			var payload []byte
			var err error
			if tr != nil {
				readT := time.Now()
				payload, err = ds.s.ReadSpan(rp.Dataset, cp.Index, sp, tr.ID())
				readNanos += int64(time.Since(readT))
			} else {
				payload, err = ds.s.ReadSpan(rp.Dataset, cp.Index, sp, "")
			}
			if err != nil {
				return outOK // headers are gone; aborting the body is all we can do
			}
			if _, err := w.Write(payload); err != nil {
				return outOK
			}
		}
	}
	if degraded {
		return outDegraded
	}
	return outOK
}
