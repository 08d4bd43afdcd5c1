package server

import (
	"fmt"
	"net/http"
	"strings"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (version 0.0.4), promoting the same counters /v1/stats reports
// as JSON: tile-cache and storage-backend counters, plus — in cluster
// mode — per-peer forward/failover counters and breaker state. Written
// by hand because the format is three lines per family and a client
// dependency would be the only one in the module.
func (srv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	doc := srv.statsDoc()
	var b strings.Builder

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	bi := buildDoc()
	fmt.Fprintf(&b, "# HELP ipcomp_build_info Build identity of the running binary; value is always 1.\n# TYPE ipcomp_build_info gauge\n")
	fmt.Fprintf(&b, "ipcomp_build_info{version=%q,goversion=%q} 1\n", bi.Version, bi.GoVersion)

	gauge("ipcomp_datasets", "Datasets served by this node (cluster mode: locally owned only).", int64(doc.Datasets))
	gauge("ipcomp_containers", "Containers served by this node (cluster mode: locally owned only).", int64(doc.Containers))
	ready := int64(0)
	if srv.ready.Load() {
		ready = 1
	}
	gauge("ipcomp_ready", "1 once every owned container registered (mirrors /readyz).", ready)

	counter("ipcomp_tile_decodes_total", "Tiles decoded from compressed planes.", doc.TileDecodes)
	counter("ipcomp_tile_refines_total", "Cached tiles refined in place to a tighter bound.", doc.TileRefines)
	counter("ipcomp_tile_hits_total", "Region requests answered from already-decoded tiles.", doc.TileHits)
	gauge("ipcomp_tile_cache_bytes", "Bytes charged against the tile-cache budget: tiles' compressed bytes, plus what decoded tiles retain.", doc.TileCacheBytes)
	gauge("ipcomp_tile_cache_entries", "Tiles resident in the tile cache, decoded or holding compressed bytes only.", doc.TileCacheEntries)
	counter("ipcomp_tile_cache_evictions_total", "Tiles dropped from the tile cache to honour its budget.", doc.TileCacheEvictions)
	counter("ipcomp_backend_hits_total", "Tile byte reads served from a tile-cache entry's resident compressed bytes.", doc.BackendHits)
	counter("ipcomp_backend_misses_total", "Tile byte reads that needed a fetch from the container's source.", doc.BackendMisses)
	counter("ipcomp_backend_fetched_bytes_total", "Bytes read from storage origins.", doc.BackendBytesFetched)
	counter("ipcomp_backend_coalesced_reads_total", "Reads that joined an identical in-flight origin fetch.", doc.BackendCoalesced)

	counter("ipcomp_admission_queued_total", "Cold requests that waited for a decode slot.", srv.adm.queued.Load())
	counter("ipcomp_admission_degraded_total", "Requests answered at a coarser bound than asked.", srv.adm.degraded.Load())
	counter("ipcomp_admission_rejected_total", "Requests rejected by admission control (429 or 413).", srv.adm.rejected.Load())
	srv.met.render(&b)
	srv.rec.RenderStageSeconds(&b)

	if ing := doc.Ingest; ing != nil {
		counter("ipcomp_ingest_bytes_total", "Raw field bytes taken in by accepted snapshot writes.", ing.Bytes)
		fmt.Fprintf(&b, "# HELP ipcomp_ingest_tiles_total Tiles of accepted snapshot writes: compressed, or reused because their fingerprint was unchanged since the field's previous snapshot.\n# TYPE ipcomp_ingest_tiles_total counter\n")
		fmt.Fprintf(&b, "ipcomp_ingest_tiles_total{result=\"compressed\"} %d\n", ing.TilesCompressed)
		fmt.Fprintf(&b, "ipcomp_ingest_tiles_total{result=\"reused\"} %d\n", ing.TilesReused)
	}

	if len(doc.Codec) > 0 {
		// One family per direction with a series per block method, like the
		// cluster per-peer families below.
		fmt.Fprintf(&b, "# HELP ipcomp_codec_bytes Compressed bytes moved through each plane-block coding method.\n# TYPE ipcomp_codec_bytes counter\n")
		for _, m := range doc.Codec {
			fmt.Fprintf(&b, "ipcomp_codec_bytes{method=%q,op=\"encode\"} %d\n", m.Method, m.EncodedBytes)
			fmt.Fprintf(&b, "ipcomp_codec_bytes{method=%q,op=\"decode\"} %d\n", m.Method, m.DecodedBytes)
		}
	}

	if c := doc.Cluster; c != nil {
		// Per-peer families share one HELP/TYPE header with a series per
		// peer label, as the exposition format requires.
		labeled := func(name, help, typ string, value func(ClusterPeerDoc) (int64, bool)) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
			for _, p := range c.Peers {
				if v, ok := value(p); ok {
					fmt.Fprintf(&b, "%s{peer=%q} %d\n", name, p.Name, v)
				}
			}
		}
		labeled("ipcomp_cluster_forwards_total", "Requests relayed from this peer's answer.", "counter",
			func(p ClusterPeerDoc) (int64, bool) { return p.Forwards, !p.Self })
		labeled("ipcomp_cluster_failovers_total", "Forward attempts that failed over past this peer.", "counter",
			func(p ClusterPeerDoc) (int64, bool) { return p.Failovers, !p.Self })
		labeled("ipcomp_cluster_peer_ejections_total", "Times this peer's breaker opened.", "counter",
			func(p ClusterPeerDoc) (int64, bool) { return p.Ejections, !p.Self })
		labeled("ipcomp_cluster_peer_probes_total", "Background half-open probes sent to this peer.", "counter",
			func(p ClusterPeerDoc) (int64, bool) { return p.Probes, !p.Self })
		labeled("ipcomp_cluster_peer_healthy", "0 while this peer's breaker is open.", "gauge",
			func(p ClusterPeerDoc) (int64, bool) {
				if p.Ejected {
					return 0, !p.Self
				}
				return 1, !p.Self
			})
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
