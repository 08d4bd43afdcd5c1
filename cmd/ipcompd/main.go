// Command ipcompd serves IPComp containers over HTTP: dataset listing,
// metadata, progressive region-of-interest retrieval with incremental
// refinement, and the containers' raw bytes under ranged reads (see
// docs/PROTOCOL.md and docs/BACKENDS.md).
//
// Usage:
//
//	ipcompd [-listen :8080] [-cache-mb 256]
//	        [-max-decode-concurrency 0] [-max-request-bytes 0] [-queue-timeout 1s] [-degrade]
//	        [-writable -cas-dir DIR [-seal-interval 10s]]
//	        [-self NAME -peers NAME=URL,... [-replication 2]]
//	        [-trace-sample N] [-trace-slow 250ms] [-debug-addr 127.0.0.1:6060] [-log-format text|json]
//	        [<container> ...]
//
// ipcompd -h lists every flag with its default.
//
// -cache-mb is one budget for the process: every container and every
// snapshot served keeps its tiles in the same cache — the compressed bytes
// each tile has read, and its decode — so the resident tiles stay within
// the budget plus one tile however many containers and snapshots there
// are, and a tile that did not change between two snapshots is decoded
// once for both.
//
// Each container argument is a local path or a URL: a .ipcs file, a
// directory of containers, or an http(s) origin — another ipcompd (all of
// its containers, or one named via /v1/containers/<name>) or a file on
// any Range-capable static server. Remote containers are read through a
// tier that joins concurrent identical reads into one origin request, and
// the tile cache keeps what each tile has read, which is what turns an
// ipcompd pointed at another ipcompd into an edge proxy: progressive plane
// spans are forwarded from the cache without decoding, and warm traffic
// never touches the origin.
//
// Every dataset of every container is served under its own name; names
// must be unique across the given containers. A quick session:
//
//	ipcomp store pack -out c.ipcs -eb 1e-6 -rel density=density.f64:64x96x96
//	ipcompd -listen :8080 c.ipcs &                 # origin
//	ipcompd -listen :8081 http://localhost:8080 &  # edge proxy of every origin container
//	curl 'localhost:8081/v1/datasets'
//	curl 'localhost:8081/v1/datasets/density/region?lo=0,0,0&hi=32,32,32&bound=1e-3' -o roi.f64
//
// A node started with -writable -cas-dir DIR also accepts online ingest
// (see docs/INGEST.md): POST raw field bytes to /v1/datasets/{field} (and
// to /v1/datasets/{field}/snapshots for later time steps) and they are
// compressed tile-by-tile into a content-addressed snapshot store under
// DIR, deduplicated against every earlier snapshot, and served
// immediately as dataset field@tN:
//
//	ipcompd -listen :8080 -writable -cas-dir /data/cas &
//	curl -X POST --data-binary @t0.f64 'localhost:8080/v1/datasets/density?shape=64x96x96&eb=1e-6'
//	curl -X POST --data-binary @t1.f64 'localhost:8080/v1/datasets/density/snapshots?seal=now'
//	curl 'localhost:8080/v1/datasets/density@t1/region?lo=0,0,0&hi=32,32,32&bound=1e-3' -o roi.f64
//
// Cluster mode (-self/-peers, see docs/CLUSTER.md) shards the containers
// across a set of ipcompd peers by consistent hashing: every node gets
// the identical -peers list and the identical container arguments, opens
// all of them, serves the ones the ring assigns it, and transparently
// forwards requests for the rest to an owning peer (failing over between
// replicas). Clients keep speaking the ordinary protocol to any node:
//
//	ipcompd -listen :8080 -self n1 -peers n1=http://h1:8080,n2=http://h2:8080,n3=http://h3:8080 data/ &
//	ipcompd -listen :8080 -self n2 -peers n1=http://h1:8080,n2=http://h2:8080,n3=http://h3:8080 data/ &
//	ipcompd -listen :8080 -self n3 -peers n1=http://h1:8080,n2=http://h2:8080,n3=http://h3:8080 data/ &
//	curl 'h2:8080/v1/datasets/density/region?lo=0,0,0&hi=32,32,32&bound=1e-3'  # any node answers
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/cas"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// logx is the process-wide logger; main installs it before anything can
// log. Format is chosen by -log-format.
var logx *obs.Logger

func main() {
	listen := flag.String("listen", ":8080", "address to serve HTTP on")
	cacheMB := flag.Int64("cache-mb", 256, "tile cache budget of the process — tiles' compressed bytes and decodes — shared by every container and snapshot served, in MiB; resident tiles stay within it plus one tile (0 disables)")
	self := flag.String("self", "", "cluster mode: this node's name in -peers")
	peers := flag.String("peers", "", "cluster mode: full membership as name=url,name=url,... (identical on every node)")
	replication := flag.Int("replication", 2, "cluster mode: replicas per container")
	maxDecode := flag.Int("max-decode-concurrency", 0, "admission: concurrent decode slots; cold requests queue for one (0 = unlimited)")
	maxReqBytes := flag.Int64("max-request-bytes", 0, "admission: per-request response byte budget (0 = unlimited)")
	queueTimeout := flag.Duration("queue-timeout", 0, "admission: max wait for a decode slot (0 = default 1s)")
	degrade := flag.Bool("degrade", false, "admission: answer over-budget or queue-timed-out requests at a coarser bound (X-Ipcomp-Degraded) instead of rejecting")
	writable := flag.Bool("writable", false, "accept snapshot writes (POST /v1/datasets/...); requires -cas-dir")
	casDir := flag.String("cas-dir", "", "content-addressed snapshot store directory (created if missing)")
	sealInterval := flag.Duration("seal-interval", 10*time.Second, "how often staged snapshots are sealed to disk (0 = only on write with ?seal=now and on shutdown)")
	traceSample := flag.Int("trace-sample", 0, "tracing: record every Nth request's stage breakdown at /debug/traces (0 disables)")
	traceSlow := flag.Duration("trace-slow", 0, "tracing: record every request slower than this and log it (0 disables)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this separate address (empty disables)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ipcompd [flags] [<path|dir|url> ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	logx = obs.NewLogger(os.Stderr, *logFormat)
	if flag.NArg() == 0 && !*writable {
		flag.Usage()
		os.Exit(2)
	}
	if *writable && *casDir == "" {
		logx.Fatal("-writable needs -cas-dir to store snapshots in")
	}
	if !*writable && *casDir != "" {
		logx.Fatal("-cas-dir requires -writable (a snapshot store has exactly one writer)")
	}
	if (*self == "") != (*peers == "") {
		logx.Fatal("cluster mode needs both -self and -peers")
	}
	if *writable && *self != "" {
		logx.Fatal("-writable is incompatible with cluster mode; run the writable node standalone")
	}
	cl := clusterFlags{self: *self, peers: *peers, replication: *replication}
	adm := server.AdmissionOptions{
		MaxDecodeConcurrency: *maxDecode,
		MaxRequestBytes:      *maxReqBytes,
		QueueTimeout:         *queueTimeout,
		Degrade:              *degrade,
	}
	ing := ingestFlags{writable: *writable, casDir: *casDir, sealInterval: *sealInterval}
	ob := obsFlags{traceSample: *traceSample, traceSlow: *traceSlow, debugAddr: *debugAddr}
	if err := run(*listen, *cacheMB, cl, adm, ing, ob, flag.Args()); err != nil {
		logx.Fatal(err.Error())
	}
}

// obsFlags carries the observability command line.
type obsFlags struct {
	traceSample int
	traceSlow   time.Duration
	debugAddr   string
}

// ingestFlags carries the write-path command line; writable==false means
// a read-only node.
type ingestFlags struct {
	writable     bool
	casDir       string
	sealInterval time.Duration
}

// clusterFlags carries the cluster-mode command line; self=="" means
// single-node mode.
type clusterFlags struct {
	self        string
	peers       string
	replication int
}

// parsePeers parses "n1=http://h1:8080,n2=http://h2:8080" into the
// membership list.
func parsePeers(s string) ([]server.Peer, error) {
	var out []server.Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("-peers entry %q is not name=url", part)
		}
		out = append(out, server.Peer{Name: name, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-peers lists no peers")
	}
	return out, nil
}

// openSpec resolves one container argument to its backend (behind a
// Cached tier when remote: that tier is where concurrent identical origin
// reads are joined) and the container names
// to serve from it. explicit reports whether the spec named one
// container itself (so a failure to open it must abort) or enumerated a
// backend (where a stray non-container file in a served directory should
// be skipped, not fatal).
func openSpec(spec string) (b backend.Backend, names []string, explicit bool, err error) {
	b, name, err := backend.Open(spec)
	if err != nil {
		return nil, nil, false, err
	}
	if backend.IsRemote(b) {
		b = backend.NewCached(b)
	}
	if name != "" {
		return b, []string{name}, true, nil
	}
	names, err = b.List()
	if err != nil {
		backend.Close(b)
		return nil, nil, false, err
	}
	if len(names) == 0 {
		backend.Close(b)
		return nil, nil, false, fmt.Errorf("%s: no containers to serve", spec)
	}
	return b, names, false, nil
}

// register opens every container spec and registers it with the server:
// owned containers are served (AddStore), peer-owned ones enter the
// routing catalog (AddRemote). Outside cluster mode everything is owned.
func register(srv *server.Server, clustered bool, specs []string) (cleanup func(), err error) {
	var backends []backend.Backend
	cleanup = func() {
		for _, b := range backends {
			backend.Close(b)
		}
	}
	used := make(map[string]bool)
	for _, spec := range specs {
		b, names, explicit, err := openSpec(spec)
		if err != nil {
			return cleanup, err
		}
		backends = append(backends, b)
		served := 0
		for _, name := range names {
			s, err := store.OpenBackend(b, name)
			if err != nil {
				// A directory (or origin) can hold stray non-container files
				// — a README, a checksum, a half-written pack. Skip them; an
				// explicitly named container must still fail loudly.
				if !explicit {
					logx.Warn("skipping non-container file", "name", name, "spec", spec, "err", err)
					continue
				}
				return cleanup, fmt.Errorf("%s: %w", spec, err)
			}
			served++
			// Served container names must be unique; two args with the same
			// base name (x/c.ipcs y/c.ipcs) are disambiguated with a suffix
			// rather than refused — except in cluster mode, where every node
			// must compute the same name for the same container or their
			// placements disagree.
			serveName := name
			if clustered {
				if used[serveName] {
					return cleanup, fmt.Errorf("%s: container name %q repeats across arguments; cluster placement needs unique names", spec, name)
				}
			} else {
				for i := 2; used[serveName]; i++ {
					serveName = fmt.Sprintf("%s-%d", name, i)
				}
			}
			used[serveName] = true
			if serveName != name {
				logx.Warn("container name already served; re-exported under suffix",
					"name", name, "spec", spec, "served_as", serveName)
			}
			if srv.Owns(serveName) {
				s.SetTileCache(srv.TileCache())
				if err := srv.AddStore(serveName, s); err != nil {
					return cleanup, fmt.Errorf("%s: %w", spec, err)
				}
				for _, ds := range s.Datasets() {
					logx.Info("serving dataset", "name", ds.Name, "shape", fmt.Sprint(ds.Shape),
						"scalar", ds.Scalar, "eb", ds.ErrorBound, "chunks", ds.NumChunks,
						"compressed_bytes", ds.CompressedBytes, "spec", spec)
				}
			} else {
				etag, err := server.ContainerETag(s)
				if err != nil {
					return cleanup, fmt.Errorf("%s: %w", spec, err)
				}
				if err := srv.AddRemote(serveName, s.Size(), etag, s.Datasets()); err != nil {
					return cleanup, fmt.Errorf("%s: %w", spec, err)
				}
				logx.Info("routing container to peers", "name", serveName,
					"datasets", len(s.Datasets()), "replicas", fmt.Sprint(srv.Replicas(serveName)))
			}
		}
		if served == 0 {
			return cleanup, fmt.Errorf("%s: no servable containers", spec)
		}
	}
	return cleanup, nil
}

func run(listen string, cacheMB int64, cl clusterFlags, adm server.AdmissionOptions, ing ingestFlags, ob obsFlags, specs []string) error {
	srv := server.New()
	srv.TileCache().Resize(cacheMB << 20)
	srv.SetAdmission(adm)
	if adm.MaxDecodeConcurrency > 0 || adm.MaxRequestBytes > 0 {
		logx.Info("admission control enabled", "decode_slots", adm.MaxDecodeConcurrency,
			"request_budget_bytes", adm.MaxRequestBytes, "degrade", adm.Degrade)
	}
	clustered := cl.self != ""
	if clustered {
		peers, err := parsePeers(cl.peers)
		if err != nil {
			return err
		}
		if err := srv.EnableCluster(server.ClusterOptions{
			Self:        cl.self,
			Peers:       peers,
			Replication: cl.replication,
		}); err != nil {
			return err
		}
		logx.Info("cluster mode", "self", cl.self, "peers", len(peers), "replication", cl.replication)
	}
	if ob.traceSample > 0 || ob.traceSlow > 0 {
		srv.EnableTracing(obs.Options{
			Sample: ob.traceSample,
			Slow:   ob.traceSlow,
			OnSlow: func(d obs.TraceDoc) {
				logx.Warn("slow request", "trace", d.ID, "route", d.Route, "target", d.Target,
					"dur", time.Duration(d.DurationNanos), "stages", d.StageBreakdown())
			},
		})
		logx.Info("request tracing enabled", "sample", ob.traceSample, "slow", ob.traceSlow)
	}
	if ob.debugAddr != "" {
		// Profiling and expvar live on their own listener so they can stay
		// unexposed (bound to localhost, firewalled) while the API port is
		// public; see docs/OBSERVABILITY.md for the capture recipe.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg.Handle("/debug/vars", expvar.Handler())
		ds := &http.Server{Addr: ob.debugAddr, Handler: dbg, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := ds.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logx.Error("debug listener failed", "addr", ob.debugAddr, "err", err)
			}
		}()
		logx.Info("debug listener (pprof, expvar)", "addr", ob.debugAddr)
	}

	// Listen before opening anything: /healthz answers (and peers'
	// forwards fail fast with a clean connection error instead of a
	// timeout) while backends open, and /readyz holds the load balancer
	// off until every owned container has registered.
	hs := &http.Server{
		Addr:              listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logx.Info("ipcompd listening", "addr", listen)

	cleanup, err := register(srv, clustered, specs)
	defer cleanup()
	if err != nil {
		hs.Close()
		return err
	}
	if ing.writable {
		c, err := cas.Open(ing.casDir)
		if err != nil {
			hs.Close()
			return err
		}
		if err := srv.EnableIngest(server.IngestOptions{CAS: c, SealInterval: ing.sealInterval}); err != nil {
			hs.Close()
			return err
		}
		defer func() {
			if err := srv.CloseIngest(); err != nil {
				logx.Error("final seal failed", "err", err)
			}
		}()
		st := c.Stats()
		logx.Info("writable snapshot store open", "dir", ing.casDir, "snapshots", st.Snapshots,
			"blobs", st.Blobs, "bytes", st.BlobBytes, "seal_interval", ing.sealInterval)
	}
	srv.SetReady()
	logx.Info("ready")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		logx.Info("shutting down", "signal", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}
}
