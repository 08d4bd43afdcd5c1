package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// The three cluster benchmarks price the routing tier: Local is the
// floor (cluster mode on, request owned locally — the only cost is the
// ring lookup), Forwarded adds one peer hop with full response
// buffering, Failover adds a dead-peer attempt (a refused connection)
// before the hop that answers.

func clusterBenchGet(b *testing.B, c *http.Client, url string) {
	b.Helper()
	resp, err := c.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != 200 {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// regionURL builds the raw-region request every cluster benchmark uses.
func (env *clusterEnv) regionURL(n *clusterNode, i int) string {
	bound := strconv.FormatFloat(16*env.eb, 'g', -1, 64)
	return fmt.Sprintf("%s/v1/datasets/%s/region?lo=0,0,0&hi=16,16,16&bound=%s",
		n.ts.URL, env.datasets[i], bound)
}

func BenchmarkClusterRegionLocal(b *testing.B) {
	env := newClusterEnv(b, 6, 2, nil)
	var owner *clusterNode
	i := 0
	for ; i < len(env.containers); i++ {
		if env.nodes[0].srv.Owns(env.containers[i]) {
			owner = env.nodes[0]
			break
		}
	}
	if owner == nil {
		b.Fatal("node n1 owns nothing?")
	}
	url := env.regionURL(owner, i)
	clusterBenchGet(b, http.DefaultClient, url) // warm the tile cache
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		clusterBenchGet(b, http.DefaultClient, url)
	}
}

func BenchmarkClusterRegionForwarded(b *testing.B) {
	env := newClusterEnv(b, 6, 2, nil)
	var stranger *clusterNode
	i := 0
outer:
	for ; i < len(env.containers); i++ {
		for _, n := range env.nodes {
			if !n.srv.Owns(env.containers[i]) {
				stranger = n
				break outer
			}
		}
	}
	if stranger == nil {
		b.Fatal("every node owns every container?")
	}
	url := env.regionURL(stranger, i)
	clusterBenchGet(b, http.DefaultClient, url)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		clusterBenchGet(b, http.DefaultClient, url)
	}
}

func BenchmarkClusterRegionFailover(b *testing.B) {
	// Default breaker: the first few iterations pay the dead first
	// replica's refused connection, then the breaker ejects it and the
	// steady state is one Healthy() lookup plus the Forwarded hop —
	// half-open recovery probes run in the background, never on the
	// request path, so this should sit within noise of Forwarded.
	env := newClusterEnv(b, 6, 2, func(cs *clusterState) {
		cs.attemptTimeout = 2 * time.Second
	})
	// Find a container whose replica order is [dead, alive] as seen from
	// a third node that owns neither.
	victim := env.nodes[2]
	var caller *clusterNode
	idx := -1
	for i, cname := range env.containers {
		reps := env.nodes[0].srv.Replicas(cname)
		if len(reps) == 2 && reps[0] == victim.name && reps[1] != victim.name {
			for _, n := range env.nodes {
				if n.name != reps[0] && n.name != reps[1] {
					caller, idx = n, i
				}
			}
			if caller != nil {
				break
			}
		}
	}
	if caller == nil {
		b.Skip("no container has the victim as primary at this membership")
	}
	victim.kill()
	url := env.regionURL(caller, idx)
	clusterBenchGet(b, http.DefaultClient, url)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		clusterBenchGet(b, http.DefaultClient, url)
	}
}
