package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/store"
	"repro/ipcomp/client"
)

// swapHandler lets an httptest server come up before the node behind it
// is built: peer URLs must exist before EnableCluster, but the cluster
// handlers need the peer URLs. It doubles as the restart seam.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "starting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// clusterNode is one in-process ipcompd peer.
type clusterNode struct {
	name string
	srv  *Server
	ts   *httptest.Server
	swap *swapHandler
}

// kill simulates a node crash: in-flight connections die mid-body, new
// connections are refused.
func (n *clusterNode) kill() {
	n.ts.CloseClientConnections()
	n.ts.Close()
}

// clusterEnv is the in-process 3-node harness: containers packed into a
// shared Dir backend (the "shared catalog" deployment — every node can
// open every container; the ring decides who serves what), one dataset
// per container, and a directly-opened ground-truth store per dataset.
type clusterEnv struct {
	nodes      []*clusterNode
	containers []string
	datasets   []string // datasets[i] lives in containers[i]
	eb         float64  // shared absolute bound
	truth      map[string]*store.Store
	fields     map[string]*grid.Grid[float64] // what each dataset was packed from
	shape      grid.Shape
}

// fields cycles training data so containers hold distinct datasets.
var clusterFields = []string{"Density", "Pressure", "VelocityX", "Wave", "SpeedX", "CH4"}

// newClusterEnv builds numContainers containers and three cluster nodes
// serving them with the given replication. Each owned store's tile-cache
// budget is capped far below one dataset's decoded size, so the full
// dataset set cannot fit any single node's cache — serving it correctly
// requires the ring to spread ownership.
func newClusterEnv(t testing.TB, numContainers, replication int, mod func(*clusterState)) *clusterEnv {
	t.Helper()
	env := &clusterEnv{
		truth:  make(map[string]*store.Store),
		fields: make(map[string]*grid.Grid[float64]),
		shape:  grid.Shape{16, 16, 16},
	}
	catDir := t.TempDir()
	cat, err := backend.NewDir(catDir)
	if err != nil {
		t.Fatal(err)
	}
	var refRange float64
	for k := 0; k < numContainers; k++ {
		g, err := datagen.GenerateShape(clusterFields[k%len(clusterFields)], env.shape)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			refRange = g.ValueRange()
			env.eb = 1e-6 * refRange
		}
		var buf bytes.Buffer
		w, err := store.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		ds := fmt.Sprintf("d%02d", k)
		if err := store.Add(w, ds, g, store.WriteOptions{ErrorBound: env.eb, ChunkShape: grid.Shape{8, 8, 8}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		cname := fmt.Sprintf("c%02d.ipcs", k)
		if err := os.WriteFile(filepath.Join(catDir, cname), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		env.containers = append(env.containers, cname)
		env.datasets = append(env.datasets, ds)
		truth, err := store.OpenBackend(cat, cname)
		if err != nil {
			t.Fatal(err)
		}
		env.truth[ds] = truth
		env.fields[ds] = g
	}

	names := []string{"n1", "n2", "n3"}
	peers := make([]Peer, 0, len(names))
	for _, name := range names {
		sw := &swapHandler{}
		ts := httptest.NewServer(sw)
		env.nodes = append(env.nodes, &clusterNode{name: name, ts: ts, swap: sw})
		peers = append(peers, Peer{Name: name, URL: ts.URL})
	}
	for _, n := range env.nodes {
		srv := New()
		if err := srv.EnableCluster(ClusterOptions{Self: n.name, Peers: peers, Replication: replication}); err != nil {
			t.Fatal(err)
		}
		srv.cluster.backoff = 5 * time.Millisecond
		srv.cluster.health = cluster.NewHealth(cluster.DefaultThreshold, 100*time.Millisecond)
		if mod != nil {
			mod(srv.cluster)
		}
		for _, cname := range env.containers {
			st, err := store.OpenBackend(cat, cname)
			if err != nil {
				t.Fatal(err)
			}
			if srv.Owns(cname) {
				// One 16³ f64 dataset decodes to 32 KiB; 8 KiB of tile cache
				// forces eviction even within one dataset.
				st.SetCacheBytes(8 << 10)
				if err := srv.AddStore(cname, st); err != nil {
					t.Fatal(err)
				}
			} else {
				etag, err := ContainerETag(st)
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.AddRemote(cname, st.Size(), etag, st.Datasets()); err != nil {
					t.Fatal(err)
				}
			}
		}
		srv.SetReady()
		n.srv = srv
		n.swap.set(srv.Handler())
	}
	t.Cleanup(func() {
		for _, n := range env.nodes {
			n.ts.Close() // idempotent; killed nodes already closed
		}
	})
	return env
}

// ownerAndStranger returns a node that owns the i-th container and one
// that does not.
func (env *clusterEnv) ownerAndStranger(i int) (owner, stranger *clusterNode) {
	for _, n := range env.nodes {
		if n.srv.Owns(env.containers[i]) {
			if owner == nil {
				owner = n
			}
		} else if stranger == nil {
			stranger = n
		}
	}
	return owner, stranger
}

// TestClusterRouting pins the core placement contract: with replication
// 2 over 3 nodes, every dataset is retrievable from every node —
// locally when owned, transparently forwarded when not — and every
// response is bit-equal to a direct single-node retrieval. The cluster
// listing endpoints answer identically everywhere.
func TestClusterRouting(t *testing.T) {
	env := newClusterEnv(t, 6, 2, nil)
	ctx := context.Background()
	lo, hi := []int{2, 0, 2}, []int{14, 16, 12}
	bound := 16 * env.eb
	for _, n := range env.nodes {
		c := client.New(n.ts.URL)
		dss, err := c.Datasets(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(dss) != len(env.datasets) {
			t.Fatalf("node %s lists %d datasets, want %d (cluster-wide)", n.name, len(dss), len(env.datasets))
		}
		for _, ds := range env.datasets {
			reg, err := c.Region(ctx, ds, lo, hi, bound)
			if err != nil {
				t.Fatalf("node %s dataset %s: %v", n.name, ds, err)
			}
			truth, err := env.truth[ds].RetrieveRegion(ds, lo, hi, bound)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual64(truth.Data(), reg.Data()) {
				t.Fatalf("node %s dataset %s: response differs from single-node ground truth", n.name, ds)
			}
		}
	}

	// Forwarded responses carry the serving peer's name; local ones don't.
	owner, stranger := env.ownerAndStranger(0)
	u := "/v1/datasets/" + env.datasets[0] + "?x=1"
	resp, err := http.Get(stranger.ts.URL + u)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(ServedByHeader); got == "" || got == stranger.name {
		t.Errorf("forwarded response served-by %q, want an owning peer", got)
	}
	resp, err = http.Get(owner.ts.URL + u)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(ServedByHeader); got != "" {
		t.Errorf("locally-served response carries served-by %q", got)
	}

	// Raw container bytes forward too (the storage re-export stays
	// cluster-transparent), Range included.
	req, err := http.NewRequest(http.MethodGet, stranger.ts.URL+"/v1/containers/"+env.containers[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Range", "bytes=0-7")
	rr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusPartialContent || len(body) != 8 {
		t.Errorf("forwarded ranged container read: HTTP %d, %d bytes, want 206 with 8", rr.StatusCode, len(body))
	}
}

// TestClusterTokenPortability pins the protocol claim the whole design
// rests on: a refine token is a stateless receipt, so a token minted by
// one replica is honored by another — and the delta planes it unlocks
// are byte-identical, not merely equivalent.
func TestClusterTokenPortability(t *testing.T) {
	env := newClusterEnv(t, 6, 2, nil)
	// Find a container with two distinct live replicas.
	var a, b *clusterNode
	var ds string
	for i, cname := range env.containers {
		reps := env.nodes[0].srv.Replicas(cname)
		if len(reps) == 2 {
			for _, n := range env.nodes {
				if n.name == reps[0] {
					a = n
				}
				if n.name == reps[1] {
					b = n
				}
			}
			ds = env.datasets[i]
			break
		}
	}
	if a == nil || b == nil {
		t.Fatal("no container with two replicas?")
	}
	q := fmt.Sprintf("/v1/datasets/%s/region?lo=0,0,0&hi=16,16,16&format=planes&bound=", ds)
	coarse := strconv.FormatFloat(256*env.eb, 'g', -1, 64)
	tight := strconv.FormatFloat(4*env.eb, 'g', -1, 64)

	// Mint the token on replica A.
	resp, err := http.Get(a.ts.URL + q + coarse)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tok := resp.Header.Get("X-Ipcomp-Token")
	if tok == "" || resp.Header.Get(ServedByHeader) != "" {
		t.Fatalf("token mint on owner: token=%q served-by=%q", tok, resp.Header.Get(ServedByHeader))
	}

	// Replay the refinement against both replicas.
	fetch := func(n *clusterNode) (string, []byte) {
		t.Helper()
		resp, err := http.Get(n.ts.URL + q + tight + "&refine=" + tok)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("replica %s rejected the foreign token: HTTP %d %s", n.name, resp.StatusCode, body)
		}
		if sb := resp.Header.Get(ServedByHeader); sb != "" {
			t.Fatalf("replica %s forwarded instead of serving: %s", n.name, sb)
		}
		return resp.Header.Get("X-Ipcomp-Token"), body
	}
	tokA, bodyA := fetch(a)
	tokB, bodyB := fetch(b)
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatalf("delta planes differ between replicas: %d vs %d bytes", len(bodyA), len(bodyB))
	}
	if tokA != tokB {
		t.Fatalf("refreshed tokens differ between replicas: %q vs %q", tokA, tokB)
	}
}

// TestClusterChaos is the subsystem's acceptance test: a mixed
// coarse+refine workload runs against two nodes while the third is
// killed mid-flight. Zero client-visible errors are tolerated, every
// response must stay bit-equal to single-node ground truth, and the
// failover counters must show traffic was rerouted around the corpse.
func TestClusterChaos(t *testing.T) {
	env := newClusterEnv(t, 8, 2, nil)
	victim := env.nodes[2]
	survivors := []*clusterNode{env.nodes[0], env.nodes[1]}
	ctx := context.Background()
	lo, hi := []int{0, 0, 0}, []int{16, 16, 16}
	coarse, tight := 256*env.eb, 4*env.eb

	const workers = 4
	const iters = 24
	var done atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New(survivors[w%len(survivors)].ts.URL)
			for i := 0; i < iters; i++ {
				ds := env.datasets[(w+i)%len(env.datasets)]
				reg, err := c.Region(ctx, ds, lo, hi, coarse)
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d (%s) coarse: %w", w, i, ds, err)
					return
				}
				if err := reg.Refine(ctx, tight); err != nil {
					errs <- fmt.Errorf("worker %d iter %d (%s) refine: %w", w, i, ds, err)
					return
				}
				truth, err := env.truth[ds].RetrieveRegion(ds, lo, hi, tight)
				if err != nil {
					errs <- err
					return
				}
				if !bitEqual64(truth.Data(), reg.Data()) {
					errs <- fmt.Errorf("worker %d iter %d (%s): response not bit-equal to ground truth", w, i, ds)
					return
				}
				done.Add(1)
			}
		}(w)
	}

	// Kill the victim mid-workload: after about a third of the requests
	// have completed, while others are in flight.
	for done.Load() < workers*iters/3 {
		time.Sleep(time.Millisecond)
	}
	victim.kill()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The survivors must still answer for every dataset — including the
	// victim's primaries — bit-equal to ground truth.
	for _, n := range survivors {
		c := client.New(n.ts.URL)
		for _, ds := range env.datasets {
			reg, err := c.Region(ctx, ds, lo, hi, tight)
			if err != nil {
				t.Fatalf("post-kill node %s dataset %s: %v", n.name, ds, err)
			}
			truth, err := env.truth[ds].RetrieveRegion(ds, lo, hi, tight)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual64(truth.Data(), reg.Data()) {
				t.Fatalf("post-kill node %s dataset %s: response differs from ground truth", n.name, ds)
			}
		}
	}

	// Failover counters confirm rerouted traffic: some survivor failed
	// over past the victim, and traffic kept flowing via forwards.
	var failovers, forwards int64
	for _, n := range survivors {
		doc := n.srv.statsDoc()
		if doc.Cluster == nil {
			t.Fatal("no cluster stats section")
		}
		for _, p := range doc.Cluster.Peers {
			forwards += p.Forwards
			if p.Name == victim.name {
				failovers += p.Failovers
			}
		}
	}
	if failovers == 0 {
		t.Error("victim died mid-workload but no failovers were recorded")
	}
	if forwards == 0 {
		t.Error("no forwarded traffic recorded at all")
	}
}

// TestClusterForwardLoopGuard pins the misconfiguration behavior: a
// request already marked forwarded must never be forwarded again — a
// node that does not own it answers 502 naming the problem.
func TestClusterForwardLoopGuard(t *testing.T) {
	env := newClusterEnv(t, 4, 1, nil) // R=1: exactly one owner per container
	_, stranger := env.ownerAndStranger(0)
	req, err := http.NewRequest(http.MethodGet, stranger.ts.URL+"/v1/datasets/"+env.datasets[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ForwardedHeader, "elsewhere")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || !bytes.Contains(body, []byte("routing loop")) {
		t.Errorf("loop guard: HTTP %d %s", resp.StatusCode, body)
	}
}

// TestClusterEjectionAndRecovery drives the breaker end to end over real
// HTTP: a killed peer is ejected after repeated failures (so forwards
// stop paying its timeout), and a restarted peer is probed back in.
func TestClusterEjectionAndRecovery(t *testing.T) {
	env := newClusterEnv(t, 6, 1, func(cs *clusterState) {
		cs.health = cluster.NewHealth(2, 50*time.Millisecond)
	})
	// R=1: find a container owned by the victim so forwards must use it.
	victim := env.nodes[2]
	var ds string
	for i, cname := range env.containers {
		if victim.srv.Owns(cname) {
			ds = env.datasets[i]
			break
		}
	}
	if ds == "" {
		t.Skip("victim owns nothing at this membership; placement changed?")
	}
	caller := env.nodes[0]
	get := func() int {
		resp, err := http.Get(caller.ts.URL + "/v1/datasets/" + ds)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if get() != 200 {
		t.Fatal("pre-kill forward failed")
	}

	// Snapshot the victim's handler, then kill it. R=1 means no other
	// replica: forwards must now fail (502) — and after threshold
	// failures the breaker opens.
	handler := victim.srv.Handler()
	victim.kill()
	for i := 0; i < 3; i++ {
		if got := get(); got != http.StatusBadGateway {
			t.Fatalf("forward to dead sole owner: HTTP %d, want 502", got)
		}
	}
	ejected := false
	for _, p := range caller.srv.statsDoc().Cluster.Peers {
		if p.Name == victim.name && p.Ejections > 0 {
			ejected = true
		}
	}
	if !ejected {
		t.Error("victim not ejected after repeated failures")
	}

	// "Restart" the victim at the same address: a fresh listener backed
	// by the same handler. The breaker's next probe should let traffic
	// back through.
	l, err := net.Listen("tcp", victim.ts.Listener.Addr().String())
	if err != nil {
		t.Skipf("cannot rebind the victim's address: %v", err)
	}
	revived := &http.Server{Handler: handler}
	go revived.Serve(l)
	defer revived.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if get() == 200 {
			break // probe let the revived peer back in
		}
		if time.Now().After(deadline) {
			t.Fatal("revived peer never recovered through the breaker probe")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReadyzLifecycle pins the /healthz vs /readyz split: liveness
// answers immediately, readiness holds 503 until registration completes.
func TestReadyzLifecycle(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/healthz"); got != 200 {
		t.Errorf("healthz before ready: %d", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz before ready: %d, want 503", got)
	}
	srv.SetReady()
	if got := status("/readyz"); got != 200 {
		t.Errorf("readyz after SetReady: %d", got)
	}
}
