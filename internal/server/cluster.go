package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/store"
)

// Cluster mode turns a set of ipcompd nodes into one serving surface.
// Placement is a consistent-hash ring over container names
// (internal/cluster): every node, given the same -peers list, computes
// the same R replicas for every container, serves the containers it owns
// from its own store, and transparently forwards requests for the rest
// to an owning peer — preferring local ownership, failing over to the
// next replica on peer error or timeout, and ejecting persistently
// failing peers until a probe succeeds. Clients need no changes: the
// protocol is stateless (responses are deterministic functions of the
// container bytes, and refine tokens are self-contained receipts), so
// any replica's answer is the answer.

// ForwardedHeader marks a forwarded request with the originating node's
// name. A node receiving it must answer from its own stores: forwarding
// it again could only mean the peers disagree about placement
// (mismatched -peers lists), and bouncing the request around would mask
// that misconfiguration as latency.
const ForwardedHeader = "X-Ipcomp-Forwarded"

// ServedByHeader names the peer that actually served a forwarded
// response, for debugging placement.
const ServedByHeader = "X-Ipcomp-Served-By"

// Peer names one cluster member and its base URL.
type Peer struct {
	Name string
	URL  string
}

// ClusterOptions configures EnableCluster. Self must name one entry of
// Peers; every node of the cluster must be given the identical Peers
// list (placement is computed independently on each node and must
// agree).
type ClusterOptions struct {
	Self        string
	Peers       []Peer
	Replication int // replicas per container; default 2, clamped to the peer count
}

// The forward policy of every cluster node. A forward makes
// forwardRounds passes over a container's replicas: the second rides the
// jittered backoff, catching peers that blipped rather than died.
const (
	forwardAttemptTimeout = 15 * time.Second      // one forwarded attempt to one peer
	forwardRounds         = 2                     // passes over the replica list
	forwardBackoff        = 50 * time.Millisecond // base sleep between rounds
)

// remoteDataset routes a dataset served by a peer: which container holds
// it (the ring key) plus its metadata for cluster-wide listings.
type remoteDataset struct {
	container string
	doc       DatasetDoc
}

// peerState is one peer's routing info and forward-path counters.
type peerState struct {
	url       string
	forwards  atomic.Int64 // responses relayed from this peer
	failovers atomic.Int64 // attempts that failed over past this peer
	probes    atomic.Int64 // background half-open probes launched
}

// clusterState is the router: ring, peer table, health breaker, and the
// catalog of remote (peer-owned) containers and datasets.
type clusterState struct {
	self   string
	ring   *cluster.Ring
	peers  map[string]*peerState
	order  []string // peer names, sorted, self included
	health *cluster.Health

	// The forward policy, from the constants above; tests shorten it, and
	// replace health, before the node serves.
	hc             *http.Client
	attemptTimeout time.Duration
	backoff        time.Duration

	mu               sync.RWMutex
	remoteDatasets   map[string]remoteDataset
	remoteContainers map[string]ContainerDoc
}

// EnableCluster switches the server into cluster mode. Call it before
// Handler and before registering containers: AddStore registers what
// this node owns, AddRemote registers the catalog entries for what peers
// own.
func (srv *Server) EnableCluster(opts ClusterOptions) error {
	if srv.cluster != nil {
		return fmt.Errorf("server: cluster mode already enabled")
	}
	if opts.Replication == 0 {
		opts.Replication = 2
	}
	names := make([]string, 0, len(opts.Peers))
	peers := make(map[string]*peerState, len(opts.Peers))
	for _, p := range opts.Peers {
		if p.Name == "" || p.URL == "" {
			return fmt.Errorf("server: peer %+v needs both a name and a URL", p)
		}
		if _, ok := peers[p.Name]; ok {
			return fmt.Errorf("server: duplicate peer %q", p.Name)
		}
		peers[p.Name] = &peerState{url: strings.TrimSuffix(p.URL, "/")}
		names = append(names, p.Name)
	}
	if _, ok := peers[opts.Self]; !ok {
		return fmt.Errorf("server: -self %q is not in the peer list %v", opts.Self, names)
	}
	ring, err := cluster.New(names, opts.Replication)
	if err != nil {
		return err
	}
	sort.Strings(names)
	srv.cluster = &clusterState{
		self:             opts.Self,
		ring:             ring,
		peers:            peers,
		order:            names,
		health:           cluster.NewHealth(cluster.DefaultThreshold, cluster.DefaultCooldown),
		hc:               &http.Client{},
		attemptTimeout:   forwardAttemptTimeout,
		backoff:          forwardBackoff,
		remoteDatasets:   make(map[string]remoteDataset),
		remoteContainers: make(map[string]ContainerDoc),
	}
	return nil
}

// Owns reports whether this node is one of the named container's
// replicas. Outside cluster mode every container is owned.
func (srv *Server) Owns(container string) bool {
	return srv.cluster == nil || srv.cluster.ring.Owns(srv.cluster.self, container)
}

// Replicas returns the owning peers of a container in placement order,
// or nil outside cluster mode.
func (srv *Server) Replicas(container string) []string {
	if srv.cluster == nil {
		return nil
	}
	return srv.cluster.ring.Replicas(container)
}

// AddRemote registers a peer-owned container in the routing catalog: its
// listing document and the datasets it holds. The node answers listings
// for these locally and forwards region/metadata/raw-bytes requests to
// the owning replicas. Dataset names must be unique cluster-wide, same
// as in one node.
func (srv *Server) AddRemote(container string, size int64, etag string, datasets []store.DatasetInfo) error {
	cs := srv.cluster
	if cs == nil {
		return fmt.Errorf("server: AddRemote requires cluster mode")
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if _, ok := srv.containers[container]; ok {
		return fmt.Errorf("server: container %q already served locally", container)
	}
	if _, ok := cs.remoteContainers[container]; ok {
		return fmt.Errorf("server: container %q already registered remotely", container)
	}
	for _, info := range datasets {
		if _, ok := srv.datasets[info.Name]; ok {
			return fmt.Errorf("server: dataset %q already served locally", info.Name)
		}
		if prev, ok := cs.remoteDatasets[info.Name]; ok && prev.container != container {
			return fmt.Errorf("server: dataset %q already registered from container %q", info.Name, prev.container)
		}
	}
	for _, info := range datasets {
		cs.remoteDatasets[info.Name] = remoteDataset{container: container, doc: docOf(info)}
	}
	cs.remoteContainers[container] = ContainerDoc{Name: container, Size: size, ETag: etag}
	return nil
}

// remoteDataset resolves a dataset name in the remote catalog.
func (cs *clusterState) remoteDataset(name string) (remoteDataset, bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	rd, ok := cs.remoteDatasets[name]
	return rd, ok
}

// remoteContainer resolves a container name in the remote catalog.
func (cs *clusterState) remoteContainer(name string) (ContainerDoc, bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	doc, ok := cs.remoteContainers[name]
	return doc, ok
}

// remoteDocs snapshots the remote catalog's dataset and container
// listings, sorted by name, for the merged listing endpoints.
func (cs *clusterState) remoteDocs() (ds []DatasetDoc, conts []ContainerDoc) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	for _, rd := range cs.remoteDatasets {
		ds = append(ds, rd.doc)
	}
	for _, doc := range cs.remoteContainers {
		conts = append(conts, doc)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Name < ds[j].Name })
	sort.Slice(conts, func(i, j int) bool { return conts[i].Name < conts[j].Name })
	return ds, conts
}

// forward relays the request to an owning replica of container. It tries
// replicas in placement order (skipping this node and, while any routable
// replica remains, ejected peers), failing over on transport errors,
// timeouts, truncated bodies, and 5xx responses. Between rounds it backs
// off with the same context-bounded jittered sleep the storage backend
// retries with, so a dead peer's traffic does not stampede the survivors
// in lockstep.
//
// The peer's response is buffered before anything is written to the
// client: once headers are on the wire a mid-body peer death could not
// fail over, and the chaos contract here is zero client-visible errors.
func (cs *clusterState) forward(w http.ResponseWriter, r *http.Request, container string, tr *obs.Trace) {
	ft := tr.Begin(obs.StageClusterForward)
	defer ft.End()
	if r.Header.Get(ForwardedHeader) != "" {
		// A forwarded request landing on a non-owner means the peers'
		// rings disagree; see ForwardedHeader.
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("routing loop: node %s received a forwarded request for container %q it does not own (mismatched -peers lists?)",
				cs.self, container))
		return
	}
	ctx := r.Context()
	var candidates []*peerState
	var names []string
	for _, name := range cs.ring.Replicas(container) {
		if name == cs.self {
			continue // local serving is decided by the caller; self here means a catalog bug
		}
		names = append(names, name)
		candidates = append(candidates, cs.peers[name])
	}
	if len(candidates) == 0 {
		writeError(w, http.StatusInternalServerError,
			fmt.Sprintf("container %q has no remote replicas to forward to", container))
		return
	}
	var lastErr error
	for round := 0; round < forwardRounds; round++ {
		if round > 0 {
			if err := backend.SleepBackoff(ctx, round, cs.backoff); err != nil {
				break // client gave up; no one is listening for the answer
			}
		}
		// Prefer routable peers; when the breaker has ejected every
		// replica, try them all anyway — a wrong "all dead" verdict must
		// degrade to slow requests, not refused ones. Ejected peers are
		// skipped before any dial: their half-open recovery probe runs
		// out-of-band (maybeProbe), so the steady-state cost of an
		// unnoticed-dead first replica is one breaker lookup, not a
		// connection-refused per request.
		tried := false
		for pass := 0; pass < 2 && !tried; pass++ {
			for i, ps := range candidates {
				if pass == 0 && !cs.health.Healthy(names[i]) {
					cs.maybeProbe(names[i], ps)
					continue
				}
				tried = true
				resp, err := cs.tryPeer(r, ps, names[i], tr.ID())
				if err != nil {
					lastErr = fmt.Errorf("peer %s: %w", names[i], err)
					cs.health.Failure(names[i])
					ps.failovers.Add(1)
					continue
				}
				cs.health.Success(names[i])
				ps.forwards.Add(1)
				// Stitch the owner's spans into this trace, and strip the
				// header so it never reaches the client.
				if enc := resp.header.Get(obs.SpansHeader); enc != "" {
					tr.MergeRemote(names[i], enc)
					resp.header.Del(obs.SpansHeader)
				}
				rt := tr.Begin(obs.StageRelay)
				resp.relay(w, names[i])
				rt.End()
				return
			}
		}
	}
	writeError(w, http.StatusBadGateway,
		fmt.Sprintf("no replica of container %q answered: %v", container, lastErr))
}

// maybeProbe launches one background half-open probe of an ejected peer
// when its cooldown has elapsed (TryProbe arbitrates so at most one probe
// is in flight per peer). The probe hits /healthz — cheap, no container
// I/O — and settles the breaker via Success/Failure, which is what lets
// a revived peer rejoin routing without any live request ever paying the
// probe's latency.
func (cs *clusterState) maybeProbe(name string, ps *peerState) {
	if !cs.health.TryProbe(name) {
		return
	}
	ps.probes.Add(1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), cs.attemptTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ps.url+"/healthz", nil)
		if err != nil {
			cs.health.Failure(name)
			return
		}
		resp, err := cs.hc.Do(req)
		if err != nil {
			cs.health.Failure(name)
			return
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			cs.health.Success(name)
		} else {
			cs.health.Failure(name)
		}
	}()
}

// bufferedResp is a fully-read peer response, safe to relay.
type bufferedResp struct {
	status int
	header http.Header
	body   []byte
}

// tryPeer performs one forwarded attempt against one peer. Transport
// errors, timeouts, 5xx responses, and short bodies are reported as
// errors (the caller fails over); 2xx–4xx responses are authoritative
// and returned for relay.
func (cs *clusterState) tryPeer(r *http.Request, ps *peerState, name, traceID string) (*bufferedResp, error) {
	ctx, cancel := context.WithTimeout(r.Context(), cs.attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ps.url+r.URL.RequestURI(), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(ForwardedHeader, cs.self)
	if traceID != "" {
		// Propagate the trace id so the owner joins this trace and
		// publishes its spans back on the response (see obs.SpansHeader).
		req.Header.Set(obs.TraceHeader, traceID)
	}
	// Range and If-Range make ranged raw-container reads (the storage
	// re-export) forward faithfully; nothing else about the request
	// affects a response byte.
	for _, h := range []string{"Range", "If-Range"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := cs.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("response truncated: %w", err)
	}
	return &bufferedResp{status: resp.StatusCode, header: resp.Header, body: body}, nil
}

// relay writes the buffered peer response to the client.
func (b *bufferedResp) relay(w http.ResponseWriter, peer string) {
	h := w.Header()
	for k, vs := range b.header {
		switch k {
		case "Date", "Connection", "Transfer-Encoding":
			continue // hop-by-hop / regenerated
		}
		h[k] = vs
	}
	h.Set(ServedByHeader, peer)
	w.WriteHeader(b.status)
	w.Write(b.body)
}

// ClusterPeerDoc is one peer's routing state in /v1/stats and /metrics.
type ClusterPeerDoc struct {
	Name      string `json:"name"`
	Self      bool   `json:"self,omitempty"`
	Forwards  int64  `json:"forwards"`
	Failovers int64  `json:"failovers"`
	Probes    int64  `json:"probes,omitempty"`
	Ejected   bool   `json:"ejected,omitempty"`
	Ejections int64  `json:"ejections,omitempty"`
}

// ClusterDoc is the cluster section of /v1/stats.
type ClusterDoc struct {
	Self        string           `json:"self"`
	Replication int              `json:"replication"`
	Peers       []ClusterPeerDoc `json:"peers"`
}

// doc snapshots the router state for /v1/stats and /metrics.
func (cs *clusterState) doc() *ClusterDoc {
	healths := cs.health.Snapshot()
	doc := &ClusterDoc{Self: cs.self, Replication: cs.ring.Replication()}
	for _, name := range cs.order {
		ps := cs.peers[name]
		hp := healths[name]
		doc.Peers = append(doc.Peers, ClusterPeerDoc{
			Name:      name,
			Self:      name == cs.self,
			Forwards:  ps.forwards.Load(),
			Failovers: ps.failovers.Load(),
			Probes:    ps.probes.Load(),
			Ejected:   hp.Ejected,
			Ejections: hp.Ejections,
		})
	}
	return doc
}
