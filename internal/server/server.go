package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// Server serves one or more IPComp containers over HTTP. Every dataset of
// every added container appears under its own name; names must be unique
// across containers (pick distinct dataset names at pack time). The
// underlying stores are safe for concurrent use, so one Server handles any
// number of in-flight requests; hot tiles are decoded once and streamed to
// every requester from the tile cache.
//
// The Server owns one decoded-tile cache for the process (TileCache):
// every snapshot the write path registers keeps its tiles there, and a
// daemon attaches it to the containers it opens as well, so one budget
// bounds the decoded tiles of everything served, however many containers
// and snapshots that is. AddStore itself leaves a store's cache alone — a
// caller that built and warmed a store with a cache of its own keeps it.
//
// Containers themselves are also re-exported as ranged raw bytes under
// /v1/containers/{name}, which makes any ipcompd a storage backend for
// another: an edge instance opens an origin's containers through the
// http+cached backend and serves the same datasets, forwarding compressed
// plane spans without decoding and answering warm traffic from its span
// cache.
// In cluster mode (EnableCluster) the server additionally routes
// requests for containers owned by peers; see cluster.go.
type Server struct {
	mu             sync.RWMutex // guards the four registration maps/slices
	datasets       map[string]*dataset
	order          []string
	containers     map[string]*servedContainer
	containerOrder []string

	tiles   *store.TileCache // the process-wide decoded-tile cache
	ready   atomic.Bool      // flipped by SetReady once registration is done
	cluster *clusterState    // nil outside cluster mode
	ingest  *ingestState     // nil unless EnableIngest ran (see ingest.go)

	adm admission      // zero value: no limits (see SetAdmission)
	met requestMetrics // region-request latency histograms
	rec *obs.Recorder  // nil until EnableTracing; nil/disabled = alloc-free fast path
}

// EnableTracing installs the request-trace recorder (see internal/obs and
// GET /debug/traces). Call it at most once, after EnableCluster when both
// are used — the recorder's node name defaults to the cluster self name.
// With obs.Options' zero value the recorder is installed but disabled:
// requests skip all trace work, which is what the allocation pin tests.
func (srv *Server) EnableTracing(opts obs.Options) {
	if opts.Node == "" && srv.cluster != nil {
		opts.Node = srv.cluster.self
	}
	srv.rec = obs.NewRecorder(opts)
}

// traceStart begins (or joins, when the request carries a propagated
// trace id) a trace for this request. It returns nil — and must stay
// this cheap — whenever tracing is off: the warm region path is
// allocation-free only because a disabled recorder costs two nil checks.
func (srv *Server) traceStart(r *http.Request, route, target string) *obs.Trace {
	if !srv.rec.Enabled() {
		return nil
	}
	if id := r.Header.Get(obs.TraceHeader); id != "" {
		return srv.rec.Join(id, route, target)
	}
	return srv.rec.Start(route, target)
}

// dataset routes one dataset name to its backing store.
type dataset struct {
	s    *store.Store
	info store.DatasetInfo
}

// servedContainer is one re-exported container and its freshness
// validator.
type servedContainer struct {
	s    *store.Store
	etag string
}

// New creates an empty Server; add containers with AddStore.
func New() *Server {
	return &Server{
		datasets:   make(map[string]*dataset),
		containers: make(map[string]*servedContainer),
		tiles:      store.NewTileCache(store.DefaultCacheBytes),
		met:        newRequestMetrics(),
	}
}

// TileCache returns the server's decoded-tile cache, budgeted at
// store.DefaultCacheBytes until resized. A store handed to SetTileCache
// before AddStore shares it; snapshots registered by the write path
// always do.
func (srv *Server) TileCache() *store.TileCache { return srv.tiles }

// ContainerETag derives a freshness validator from the container's size
// and tail (the footer pins the index offset, so any repack changes it).
// Remote readers present it as If-Range, which is what keeps an edge's
// span cache from splicing two versions of a replaced container. A
// failed tail read fails registration: a size-only validator would match
// a same-size repack, which is exactly the corruption this exists to
// stop. Callers registering a peer-owned container (AddRemote) use it
// too, so a cluster-wide /v1/containers listing carries the ETag the
// owning node serves, whichever node answers.
func ContainerETag(s *store.Store) (string, error) {
	// The hash input: the size as 8 little-endian bytes, then the tail.
	n := min(64, s.Size())
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+n), uint64(s.Size()))[:8+n]
	if _, err := s.SectionReader().ReadAt(b[8:], s.Size()-n); err != nil {
		return "", fmt.Errorf("server: reading container tail for its validator: %w", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf(`"%016x"`, h.Sum64()), nil
}

// AddStore registers an open container under the given name (its file
// base name or backend container name), serving every dataset it holds.
// It fails if the container name or a dataset name is already served
// (containers cannot shadow each other); on failure nothing is
// registered, so a caller that continues past the error serves exactly
// what it served before.
func (srv *Server) AddStore(name string, s *store.Store) error {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if _, ok := srv.containers[name]; ok {
		return fmt.Errorf("server: container %q already served", name)
	}
	if srv.cluster != nil {
		if _, ok := srv.cluster.remoteContainer(name); ok {
			return fmt.Errorf("server: container %q already registered as peer-owned", name)
		}
	}
	infos := s.Datasets()
	batch := make(map[string]bool, len(infos))
	for _, info := range infos {
		if _, ok := srv.datasets[info.Name]; ok {
			return fmt.Errorf("server: dataset %q already served by an earlier container", info.Name)
		}
		if srv.cluster != nil {
			if rd, ok := srv.cluster.remoteDataset(info.Name); ok {
				return fmt.Errorf("server: dataset %q already registered from peer container %q", info.Name, rd.container)
			}
		}
		if batch[info.Name] {
			return fmt.Errorf("server: container names dataset %q twice", info.Name)
		}
		batch[info.Name] = true
	}
	// The validator read happens before anything registers, so a failure
	// leaves the server serving exactly what it served before. In cluster
	// mode this read doubles as the readiness probe of an owned container:
	// a node cannot register (and so cannot report ready) a container
	// whose backend does not answer.
	etag, err := ContainerETag(s)
	if err != nil {
		return err
	}
	for _, info := range infos {
		srv.datasets[info.Name] = &dataset{s: s, info: info}
		srv.order = append(srv.order, info.Name)
	}
	srv.containers[name] = &servedContainer{s: s, etag: etag}
	srv.containerOrder = append(srv.containerOrder, name)
	return nil
}

// SetReady marks registration complete: every owned container was added
// (each add probes its backend) and /readyz may start answering 200. A
// server that never calls it stays not-ready, which is what a rolling
// restart needs — the load balancer keeps traffic away until the node
// has actually opened everything it owns, while /healthz (pure liveness)
// answers the whole time.
func (srv *Server) SetReady() { srv.ready.Store(true) }

// lookup resolves a locally-served dataset. On a writable node a bare
// field name is an alias for its latest snapshot, so clients can GET
// /v1/datasets/temperature without tracking the time step.
func (srv *Server) lookup(name string) (*dataset, bool) {
	srv.mu.RLock()
	ds, ok := srv.datasets[name]
	srv.mu.RUnlock()
	if !ok {
		if alias, found := srv.resolveLatest(name); found {
			srv.mu.RLock()
			ds, ok = srv.datasets[alias]
			srv.mu.RUnlock()
		}
	}
	return ds, ok
}

// lookupContainer resolves a locally-served container.
func (srv *Server) lookupContainer(name string) (*servedContainer, bool) {
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	c, ok := srv.containers[name]
	return c, ok
}

// Handler returns the HTTP API (see docs/PROTOCOL.md):
//
//	GET /healthz                     liveness
//	GET /readyz                      readiness (503 until SetReady)
//	GET /metrics                     Prometheus text exposition
//	GET /v1/stats                    tile cache + backend counters
//	GET /v1/datasets                 list datasets
//	GET /v1/datasets/{name}          one dataset's metadata
//	GET /v1/datasets/{name}/region   progressive region retrieval
//	GET /v1/containers               list served containers (name, size)
//	GET /v1/containers/{name}        raw container bytes, Range-capable
//	POST /v1/datasets/{name}           create a field from raw bytes (writable nodes)
//	POST /v1/datasets/{name}/snapshots append the field's next snapshot
//
// In cluster mode the dataset and container endpoints transparently
// forward requests for peer-owned containers (see cluster.go); the
// listing endpoints answer cluster-wide from the local catalog.
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", srv.handleReady)
	mux.HandleFunc("GET /metrics", srv.handleMetrics)
	mux.HandleFunc("GET /v1/stats", srv.handleStats)
	mux.HandleFunc("GET /debug/traces", srv.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", srv.handleTraceByID)
	mux.HandleFunc("GET /v1/datasets", srv.timed(routeList, srv.handleList))
	mux.HandleFunc("GET /v1/datasets/{name}", srv.timed(routeMeta, srv.handleDataset))
	mux.HandleFunc("GET /v1/datasets/{name}/region", srv.handleRegion)
	mux.HandleFunc("GET /v1/containers", srv.timed(routeContainers, srv.handleContainers))
	mux.HandleFunc("GET /v1/containers/{name}", srv.timed(routeContainer, srv.handleContainer))
	mux.HandleFunc("POST /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		srv.handleIngest(w, r, false)
	})
	mux.HandleFunc("POST /v1/datasets/{name}/snapshots", func(w http.ResponseWriter, r *http.Request) {
		srv.handleIngest(w, r, true)
	})
	return mux
}

// handleReady answers readiness: 200 once SetReady ran, 503 before.
// Distinct from /healthz so a rolling restart can keep a node out of
// rotation while it is still opening the backends of the containers it
// owns.
func (srv *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	srv.mu.RLock()
	containers := len(srv.containerOrder)
	srv.mu.RUnlock()
	if !srv.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":     "starting",
			"containers": containers,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ready",
		"containers": containers,
	})
}

// ContainerDoc is the JSON document describing one served container —
// the listing the http backend consumes to enumerate an origin.
type ContainerDoc struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
	ETag string `json:"etag"`
}

func (srv *Server) handleContainers(w http.ResponseWriter, r *http.Request) {
	srv.mu.RLock()
	docs := make([]ContainerDoc, 0, len(srv.containerOrder))
	for _, name := range srv.containerOrder {
		c := srv.containers[name]
		docs = append(docs, ContainerDoc{Name: name, Size: c.s.Size(), ETag: c.etag})
	}
	srv.mu.RUnlock()
	if srv.cluster != nil {
		_, remote := srv.cluster.remoteDocs()
		docs = append(docs, remote...)
	}
	writeJSON(w, http.StatusOK, map[string]any{"containers": docs})
}

// handleContainer streams a container's raw bytes with full Range
// support, turning this ipcompd into a storage backend for edge
// instances (or any Range-capable client). Peer-owned containers are
// forwarded to an owning replica.
func (srv *Server) handleContainer(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	c, ok := srv.lookupContainer(name)
	if !ok {
		if srv.cluster != nil {
			if _, remote := srv.cluster.remoteContainer(name); remote {
				tr := srv.traceStart(r, "container", name)
				srv.cluster.forward(w, r, name, tr)
				srv.rec.Finish(tr)
				return
			}
		}
		srv.mu.RLock()
		have := append([]string(nil), srv.containerOrder...)
		srv.mu.RUnlock()
		sort.Strings(have)
		writeError(w, http.StatusNotFound, fmt.Sprintf("no container %q (have %s)", name, strings.Join(have, ", ")))
		return
	}
	// A traced read here is the origin half of an edge fetch: the edge's
	// http backend put the client's trace id on this Range request, so the
	// relay span recorded below stitches into that client's trace.
	tr := srv.traceStart(r, "container", name)
	// An explicit type stops ServeContent from sniffing (a read of the
	// first 512 bytes) and pins the framing for clients; the ETag lets
	// ServeContent honor If-Range, so edge caches detect replacement.
	w.Header().Set("Content-Type", "application/x-ipcomp-container")
	w.Header().Set("Etag", c.etag)
	publishTraceSpans(w, tr)
	rt := tr.Begin(obs.StageRelay)
	http.ServeContent(w, r, "", time.Time{}, c.s.SectionReader())
	rt.End()
	srv.rec.Finish(tr)
}

// DatasetDoc is the JSON document describing one dataset.
type DatasetDoc struct {
	Name            string  `json:"name"`
	Shape           []int   `json:"shape"`
	ChunkShape      []int   `json:"chunk_shape"`
	Scalar          string  `json:"scalar"`
	ErrorBound      float64 `json:"error_bound"`
	NumChunks       int     `json:"num_chunks"`
	CompressedBytes int64   `json:"compressed_bytes"`
}

func docOf(info store.DatasetInfo) DatasetDoc {
	return DatasetDoc{
		Name:            info.Name,
		Shape:           info.Shape,
		ChunkShape:      info.ChunkShape,
		Scalar:          info.Scalar.String(),
		ErrorBound:      info.ErrorBound,
		NumChunks:       info.NumChunks,
		CompressedBytes: info.CompressedBytes,
	}
}

// StatsDoc is the JSON document of /v1/stats: tile-level cache counters
// summed across stores, the occupancy of the decoded-tile cache (the
// server's own plus any private cache a registered store brought along),
// and the storage-backend byte-level counters for stores opened through a
// counting backend (an edge proxy's span cache).
type StatsDoc struct {
	Datasets            int   `json:"datasets"`
	Containers          int   `json:"containers"`
	TileDecodes         int64 `json:"tile_decodes"`
	TileRefines         int64 `json:"tile_refines"`
	TileHits            int64 `json:"tile_hits"`
	TileCacheBytes      int64 `json:"tile_cache_bytes"`
	TileCacheEntries    int64 `json:"tile_cache_entries"`
	TileCacheEvictions  int64 `json:"tile_cache_evictions"`
	BackendHits         int64 `json:"backend_hits"`
	BackendMisses       int64 `json:"backend_misses"`
	BackendBytesFetched int64 `json:"backend_bytes_fetched"`
	BackendCoalesced    int64 `json:"backend_coalesced_reads"`
	// Codec reports the process-wide compressed bytes moved through each
	// block-coding method (DEFLATE, raw, zero, RLE, Huffman) while decoding
	// plane blocks for requests; methods never touched are omitted.
	Codec   []codec.MethodStat `json:"codec,omitempty"`
	Cluster *ClusterDoc        `json:"cluster,omitempty"`
	// Ingest reports the write path's CAS accounting on writable nodes.
	Ingest *ingestDoc `json:"ingest,omitempty"`
	// Build identifies the running binary.
	Build BuildDoc `json:"build"`
}

// statsDoc gathers the counter snapshot handleStats and handleMetrics
// share.
func (srv *Server) statsDoc() StatsDoc {
	srv.mu.RLock()
	doc := StatsDoc{Datasets: len(srv.order), Containers: len(srv.containerOrder)}
	// Stores opened on one shared backend (an edge serving every container
	// of one origin) report the same backend-wide CounterSource; dedupe by
	// identity so shared counters are summed once, not once per container.
	seen := make(map[backend.CounterSource]bool)
	caches := map[*store.TileCache]bool{srv.tiles: true}
	for _, name := range srv.containerOrder {
		s := srv.containers[name].s
		st := s.Stats()
		doc.TileDecodes += st.TileDecodes
		doc.TileRefines += st.TileRefines
		doc.TileHits += st.TileHits
		caches[s.TileCache()] = true
		cs := s.CounterSource()
		if cs == nil || seen[cs] {
			continue
		}
		seen[cs] = true
		c := cs.Counters()
		doc.BackendHits += c.Hits
		doc.BackendMisses += c.Misses
		doc.BackendBytesFetched += c.BytesFetched
		doc.BackendCoalesced += c.Coalesced
	}
	srv.mu.RUnlock()
	for c := range caches {
		st := c.Stats()
		doc.TileCacheBytes += st.Bytes
		doc.TileCacheEntries += st.Entries
		doc.TileCacheEvictions += st.Evictions
	}
	doc.Codec = codec.Stats()
	if srv.cluster != nil {
		doc.Cluster = srv.cluster.doc()
	}
	doc.Ingest = srv.ingestDoc()
	doc.Build = buildDoc()
	return doc
}

func (srv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, srv.statsDoc())
}

func (srv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	srv.mu.RLock()
	docs := make([]DatasetDoc, 0, len(srv.order))
	for _, name := range srv.order {
		docs = append(docs, docOf(srv.datasets[name].info))
	}
	srv.mu.RUnlock()
	if srv.cluster != nil {
		remote, _ := srv.cluster.remoteDocs()
		docs = append(docs, remote...)
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": docs})
}

func (srv *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ds, ok := srv.lookup(name)
	if !ok {
		if srv.cluster != nil {
			if rd, remote := srv.cluster.remoteDataset(name); remote {
				tr := srv.traceStart(r, "meta", name)
				srv.cluster.forward(w, r, rd.container, tr)
				srv.rec.Finish(tr)
				return
			}
		}
		srv.errNotFound(w, name)
		return
	}
	writeJSON(w, http.StatusOK, docOf(ds.info))
}

func (srv *Server) errNotFound(w http.ResponseWriter, name string) {
	srv.mu.RLock()
	have := append([]string(nil), srv.order...)
	srv.mu.RUnlock()
	if srv.cluster != nil {
		remote, _ := srv.cluster.remoteDocs()
		for _, d := range remote {
			have = append(have, d.Name)
		}
	}
	sort.Strings(have)
	writeError(w, http.StatusNotFound, fmt.Sprintf("no dataset %q (have %s)", name, strings.Join(have, ", ")))
}

// errorDoc is the JSON shape of every non-2xx response.
type errorDoc struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorDoc{Error: msg, Status: status})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// parseScalar maps the dtype query parameter; empty means native.
func parseScalar(s string) (core.ScalarType, bool, error) {
	if s == "" {
		return 0, false, nil
	}
	t, err := core.ParseScalar(s)
	return t, err == nil, err
}
