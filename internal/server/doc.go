// Package server implements ipcompd's HTTP API: progressive
// region-of-interest serving of IPComp containers (docs/PROTOCOL.md).
//
// The design premise is that a progressive archive already is a network
// protocol. Every fidelity a client can request maps to a per-level
// prefix of compressed bitplane blocks, so the server answers a planes
// request by computing the loading plan for the requested error bound and
// streaming exactly the byte ranges the client is missing — straight from
// the container, never decoded, never re-encoded. A refinement request
// presents a token naming the fidelity the client already holds; the
// server re-derives that plan (plans are deterministic functions of the
// archive and the bound, so the token is just a receipt — the server
// keeps no session state) and ships only the delta planes. Repeat clients
// therefore pay incremental bytes, exactly like local RefineErrorBound.
//
// For curl and non-Go consumers the same endpoint also serves format=raw:
// the server decodes the region itself — through the process-wide tile
// cache, which holds at most its budget plus one tile, so concurrent
// requests decode each hot tile once — and streams raw little-endian
// values.
//
// Endpoints:
//
//	GET /healthz                     liveness probe
//	GET /v1/stats                    tile cache counters (JSON)
//	GET /v1/datasets                 dataset listing (JSON)
//	GET /v1/datasets/{name}          one dataset's metadata (JSON)
//	GET /v1/datasets/{name}/region   region retrieval (raw | planes)
//
// cmd/ipcompd wraps this package as a daemon; ipcomp/client is the Go
// client for the planes protocol.
package server
