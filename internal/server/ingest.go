package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/store"
)

// Online ingest: the write path. POST /v1/datasets/{field} creates a
// field's first snapshot from raw little-endian bytes; POST
// /v1/datasets/{field}/snapshots appends the next time step. Either way
// the body is compressed tile-by-tile through the same engine offline
// packing uses, staged in the CAS's open epoch (readable immediately as
// dataset field@tN), and sealed to disk by the seal ticker, an explicit
// ?seal=now, or shutdown. A tile unchanged since the field's previous
// snapshot is recognised by a fingerprint of its raw bytes and not even
// compressed (store.PackSnapshot); whatever is compressed deduplicates
// against every earlier snapshot by content address. A checkpoint stream
// costs one hash pass plus its deltas, in time as in space.

// IngestOptions configures EnableIngest.
type IngestOptions struct {
	// CAS is the content-addressed store snapshots land in (required).
	CAS *cas.Store
	// SealInterval is how often the open epoch is flushed to disk;
	// 0 disables the ticker (seals happen only via ?seal=now and Close).
	SealInterval time.Duration
}

// ingestState is the server's write-path runtime.
type ingestState struct {
	opts IngestOptions
	mu   sync.Mutex // serializes put+register and seal
	stop chan struct{}
	done chan struct{}

	puts      int64 // guarded by mu
	seals     int64
	sealErrs  int64
	lastError string
	// What the writes cost, for /metrics and /v1/stats: raw bytes taken in,
	// and tiles by whether they had to be compressed or were recognised by
	// fingerprint as unchanged since the field's previous snapshot.
	bytes, tilesCompressed, tilesReused int64
}

// EnableIngest turns the write path on: existing CAS snapshots register
// as served datasets (keeping their decoded tiles, keyed by blob score, in
// the server's TileCache — as every snapshot ingested later does), the
// seal ticker starts, and the POST endpoints begin accepting bodies.
// Incompatible with cluster mode (snapshot placement across peers is
// future work; a writable node must own what it writes).
func (srv *Server) EnableIngest(opts IngestOptions) error {
	if opts.CAS == nil {
		return fmt.Errorf("server: EnableIngest requires a CAS store")
	}
	if srv.cluster != nil {
		return fmt.Errorf("server: ingest is incompatible with cluster mode; run the writable node standalone")
	}
	if srv.ingest != nil {
		return fmt.Errorf("server: ingest already enabled")
	}
	ing := &ingestState{opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	for _, sn := range opts.CAS.Snapshots() {
		s, err := store.OpenSnapshot(opts.CAS, sn.Field, sn.T)
		if err != nil {
			return fmt.Errorf("server: opening snapshot %s: %w", sn.Name, err)
		}
		s.SetTileCache(srv.tiles)
		if err := srv.AddStore(sn.Name, s); err != nil {
			return err
		}
	}
	srv.mu.Lock()
	srv.ingest = ing
	srv.mu.Unlock()
	go ing.run()
	return nil
}

// run is the seal ticker loop.
func (ing *ingestState) run() {
	defer close(ing.done)
	if ing.opts.SealInterval <= 0 {
		<-ing.stop
		return
	}
	t := time.NewTicker(ing.opts.SealInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			ing.seal()
		case <-ing.stop:
			return
		}
	}
}

// seal flushes the open epoch, recording failures for /v1/stats (a seal
// that cannot reach disk must not crash the serve path — the epoch stays
// open and readable, and the next tick retries).
func (ing *ingestState) seal() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	err := ing.opts.CAS.Seal()
	if err != nil {
		ing.sealErrs++
		ing.lastError = err.Error()
		return err
	}
	ing.seals++
	return nil
}

// CloseIngest stops the seal ticker and performs a final seal, making
// every accepted snapshot durable. Safe to call more than once.
func (srv *Server) CloseIngest() error {
	srv.mu.RLock()
	ing := srv.ingest
	srv.mu.RUnlock()
	if ing == nil {
		return nil
	}
	select {
	case <-ing.stop:
	default:
		close(ing.stop)
	}
	<-ing.done
	return ing.seal()
}

// resolveLatest maps a bare field name to its latest snapshot's dataset
// name, so GETs for "field" answer with "field@tN". Callers hold no
// locks.
func (srv *Server) resolveLatest(name string) (string, bool) {
	srv.mu.RLock()
	ing := srv.ingest
	srv.mu.RUnlock()
	if ing == nil {
		return "", false
	}
	t, ok := ing.opts.CAS.Latest(name)
	if !ok {
		return "", false
	}
	return cas.SnapshotName(name, t), true
}

// ingestDoc is the /v1/stats "ingest" section.
type ingestDoc struct {
	Fields          int    `json:"fields"`
	Snapshots       int    `json:"snapshots"`
	Blobs           int    `json:"blobs"`
	BlobBytes       int64  `json:"blob_bytes"`
	EpochSnapshots  int    `json:"epoch_snapshots"`
	EpochBlobs      int    `json:"epoch_blobs"`
	EpochBytes      int64  `json:"epoch_bytes"`
	Puts            int64  `json:"puts"`
	Bytes           int64  `json:"bytes"`
	TilesCompressed int64  `json:"tiles_compressed"`
	TilesReused     int64  `json:"tiles_reused"`
	Seals           int64  `json:"seals"`
	SealErrors      int64  `json:"seal_errors"`
	LastError       string `json:"last_error,omitempty"`
}

func (srv *Server) ingestDoc() *ingestDoc {
	srv.mu.RLock()
	ing := srv.ingest
	srv.mu.RUnlock()
	if ing == nil {
		return nil
	}
	st := ing.opts.CAS.Stats()
	ing.mu.Lock()
	doc := &ingestDoc{
		Fields: st.Fields, Snapshots: st.Snapshots, Blobs: st.Blobs, BlobBytes: st.BlobBytes,
		EpochSnapshots: st.EpochSnapshots, EpochBlobs: st.EpochBlobs, EpochBytes: st.EpochBytes,
		Puts: ing.puts, Bytes: ing.bytes, TilesCompressed: ing.tilesCompressed, TilesReused: ing.tilesReused,
		Seals: ing.seals, SealErrors: ing.sealErrs, LastError: ing.lastError,
	}
	ing.mu.Unlock()
	return doc
}

// handleIngest serves both write endpoints; snapshots reports which.
func (srv *Server) handleIngest(w http.ResponseWriter, r *http.Request, snapshots bool) {
	start := time.Now()
	tr := srv.traceStart(r, "ingest", r.PathValue("name"))
	outcome := srv.serveIngest(w, r, snapshots, tr)
	srv.rec.Finish(tr)
	srv.met.observeRoute(routeIngest, outcome, time.Since(start))
}

// ingestParams is the parsed query surface of a write.
type ingestParams struct {
	shape   grid.Shape
	chunk   grid.Shape
	scalar  core.ScalarType
	eb      float64
	rel     bool
	interp  interp.Kind
	sealNow bool
}

// parseIngestParams validates the query of a write request. The geometry
// and the predictor follow the series rule (store.SeriesGeometry,
// store.SeriesInterp) against prev, the field's previous manifest in c
// (nil on create), as `ipcomp snapshot put` does, so an ingested snapshot
// and an offline one of the same bytes are byte-identical. eb stays 0 when
// the request gives none: store.SeriesBound resolves it once the values
// are in. Every refusal quotes at most 64 runes of the value.
func (srv *Server) parseIngestParams(r *http.Request, c *cas.Store, prev *cas.Manifest) (*ingestParams, error) {
	q := r.URL.Query()
	p := &ingestParams{}
	var err error
	if p.shape, p.chunk, p.scalar, err = store.SeriesGeometry(prev, q.Get("shape"), q.Get("chunk"), q.Get("dtype")); err != nil {
		return nil, err
	}
	if p.interp, err = store.SeriesInterp(c, prev, q.Get("interp")); err != nil {
		return nil, err
	}
	if s := q.Get("eb"); s != "" {
		eb, err := strconv.ParseFloat(s, 64)
		if err != nil || !(eb > 0) || math.IsInf(eb, 0) {
			return nil, fmt.Errorf("eb must be a positive finite float, got %.64q", s)
		}
		p.eb = eb
	}
	if s := q.Get("rel"); s != "" {
		rel, err := strconv.ParseBool(s)
		if err != nil {
			return nil, fmt.Errorf("rel must be a boolean, got %.64q", s)
		}
		p.rel = rel
	}
	// A removed parameter is refused, not ignored: a client asking for a
	// block coder it cannot get must hear so.
	if v, ok := q["codec"]; ok {
		return nil, fmt.Errorf("codec=%.64q: the codec parameter was removed; every snapshot is coded with DEFLATE", v[0])
	}
	if s := q.Get("seal"); s != "" {
		if s != "now" {
			return nil, fmt.Errorf("seal must be \"now\", got %.64q", s)
		}
		p.sealNow = true
	}
	return p, nil
}

// serveIngest is the write handler body; it returns the outcome label
// for the latency histogram.
func (srv *Server) serveIngest(w http.ResponseWriter, r *http.Request, snapshots bool, tr *obs.Trace) int {
	srv.mu.RLock()
	ing := srv.ingest
	srv.mu.RUnlock()
	if ing == nil {
		writeError(w, http.StatusForbidden, "server is read-only; start ipcompd with -writable to accept snapshots")
		return outError
	}
	field := r.PathValue("name")
	if err := cas.ValidateField(field); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return outError
	}
	c := ing.opts.CAS
	var prev *cas.Manifest
	latest, exists := c.Latest(field)
	if snapshots {
		if !exists {
			writeError(w, http.StatusNotFound,
				fmt.Sprintf("no field %q to snapshot; create it first with POST /v1/datasets/%s", field, field))
			return outError
		}
		prev, _ = c.Manifest(field, latest)
		if prev == nil {
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("field %q has no manifest at t%d", field, latest))
			return outError
		}
	} else if exists {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("field %q already exists at t%d; append with POST /v1/datasets/%s/snapshots", field, latest, field))
		return outError
	}
	// A packed container could already serve this name (or the snapshot
	// name): refuse up front rather than failing half-registered.
	if _, taken := srv.lookup(field); taken && !exists {
		writeError(w, http.StatusConflict, fmt.Sprintf("dataset %q is already served by a packed container", field))
		return outError
	}
	p, err := srv.parseIngestParams(r, c, prev)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return outError
	}

	want := int64(p.shape.Len()) * int64(p.scalar.Bytes())
	if max := srv.adm.opts.MaxRequestBytes; max > 0 && want > max {
		srv.adm.rejected.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("snapshot body is %d bytes, above the %d-byte request budget", want, max))
		return outRejected
	}
	// A declared length that cannot be the field is refused before any of
	// it is read.
	if n := r.ContentLength; n >= 0 && n != want {
		writeError(w, http.StatusBadRequest, bodyLengthError(n, want, p))
		return outError
	}
	if p.scalar == core.Float32 {
		return ingestBody[float32](srv, ing, w, r, tr, field, prev, p)
	}
	return ingestBody[float64](srv, ing, w, r, tr, field, prev, p)
}

// bodyLengthError words the refusal of a body of got bytes where the shape
// needs want. The same contract as the CLI's raw readers: a payload that
// is not a whole number of elements, or the wrong number of them, is
// rejected, never truncated.
func bodyLengthError(got, want int64, p *ingestParams) string {
	width := int64(p.scalar.Bytes())
	if rem := got % width; rem != 0 {
		return fmt.Sprintf("request body of %d bytes is not a whole number of %d-byte %s elements (%d trailing bytes)",
			got, width, p.scalar, rem)
	}
	have := fmt.Sprintf("has only %d", got/width)
	if got > want {
		have = fmt.Sprintf("has more than %d", want/width)
	}
	return fmt.Sprintf("shape %v needs %d %s elements (%d bytes); request body %s elements",
		[]int(p.shape), want/width, p.scalar, want, have)
}

// ingestBody is the second half of a write, at the body's width: the
// body is read once, straight into the values the tiles are gathered
// from, then fingerprinted, compressed where it changed, staged and
// registered. The values are pooled scratch: a series posts one shape over
// and over, so a write stops allocating — and page-faulting in — a
// field's worth of memory per POST.
func ingestBody[T grid.Scalar](srv *Server, ing *ingestState, w http.ResponseWriter, r *http.Request, tr *obs.Trace, field string, prev *cas.Manifest, p *ingestParams) int {
	data := core.GetScratch[T](p.shape.Len())
	defer core.PutScratch(data)
	width := p.scalar.Bytes()
	want := int64(len(data)) * int64(width)
	n, err := grid.ReadLE(r.Body, data)
	got := int64(n)
	if err == nil && r.ContentLength < 0 {
		// No declared length (a chunked body): look one element past the
		// field, so that an oversized body is diagnosed, not truncated.
		var over [8]byte
		n, _ := io.ReadFull(r.Body, over[:width])
		got += int64(n)
	}
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return outError
	}
	if got != want {
		writeError(w, http.StatusBadRequest, bodyLengthError(got, want, p))
		return outError
	}
	g, err := grid.FromSlice(data, p.shape)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return outError
	}
	opt := store.WriteOptions{
		Interpolation: p.interp,
		ChunkShape:    p.chunk,
	}
	if opt.ErrorBound, err = store.SeriesBound(g, prev, p.eb, p.rel); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return outError
	}

	// Compression is the expensive part of a write — it shares the decode
	// semaphore with cold reads so a snapshot stampede degrades smoothly
	// (writes queue, warm reads keep flowing). Writes have no coarser
	// fidelity to degrade to, so a queue timeout is a straight 429.
	at := tr.Begin(obs.StageAdmission)
	err = srv.adm.acquireDecode(r.Context())
	at.End()
	if err != nil {
		if errors.Is(err, errQueueTimeout) {
			srv.writeRetryAfter(w, "decode queue is full; retry the snapshot shortly")
			return outRejected
		}
		return outError // client went away while queued
	}
	defer srv.adm.releaseDecode()

	c := ing.opts.CAS
	ing.mu.Lock()
	// The name the new snapshot will carry can only be served already when
	// the field's latest snapshot was deleted from the CAS behind this
	// process: refuse before anything is compressed or staged.
	next := cas.SnapshotName(field, c.NextT(field))
	if _, served := srv.lookupContainer(next); served {
		ing.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Sprintf(
			"dataset %q is still served but no longer in the CAS (its snapshot was deleted out of band); restart the daemon to drop it, then append", next))
		return outError
	}
	ct := tr.Begin(obs.StageIngestCompress)
	m, st, err := store.PackSnapshot(c, field, g, opt)
	ct.End()
	if err != nil {
		ing.mu.Unlock()
		writeError(w, http.StatusInternalServerError, err.Error())
		return outError
	}
	ing.tilesReused += int64(st.ReusedTiles)
	ing.tilesCompressed += int64(len(m.Tiles) - st.ReusedTiles)
	ing.bytes += want
	s, err := store.OpenSnapshot(c, m.Field, m.T)
	if err == nil {
		s.SetTileCache(srv.tiles)
		err = srv.AddStore(m.Name(), s)
	}
	if err == nil {
		ing.puts++
	}
	ing.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("snapshot staged but not registered: %v", err))
		return outError
	}
	sealed := false
	if p.sealNow {
		if err := ing.seal(); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("snapshot accepted but seal failed: %v", err))
			return outError
		}
		sealed = true
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"dataset":          m.Name(),
		"field":            m.Field,
		"t":                m.T,
		"shape":            m.Shape,
		"dtype":            core.ScalarType(m.Scalar).String(),
		"error_bound":      m.ErrorBound,
		"tiles":            len(m.Tiles),
		"compressed_bytes": m.Bytes(),
		"new_blobs":        st.NewBlobs,
		"new_bytes":        st.NewBytes,
		"dedup_blobs":      st.DedupBlobs,
		"dedup_bytes":      st.DedupBytes,
		"sealed":           sealed,
	})
	return outOK
}
