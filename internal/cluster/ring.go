package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring mapping container names to an ordered
// list of owning nodes. Each node projects VirtualNodes points onto the
// ring; a container's replicas are the first Replication distinct nodes
// clockwise from the container's own hash point. The order is
// deterministic for a given membership, so every node that builds a Ring
// from the same peer list computes identical replica sets — no
// coordination protocol, no metadata service.
//
// Membership is immutable after New: failover around a dead peer is the
// router's job (see internal/server), which keeps placement stable across
// node restarts. A Ring is safe for concurrent use.
type Ring struct {
	replication int
	points      []point  // sorted by hash
	nodes       []string // sorted, for introspection
}

// point is one virtual node's position on the ring.
type point struct {
	hash uint64
	node string
}

// VirtualNodes balances placement smoothness against ring size; at 64
// points per node the max/min container spread across nodes stays within
// a few tens of percent, plenty for whole-container placement. Changing it
// moves placement, so every node of a cluster must agree on it.
const VirtualNodes = 64

// New builds a ring over the given node names. replication is clamped to
// the node count. Node names must be non-empty and unique.
func New(nodes []string, replication int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if replication < 1 {
		return nil, fmt.Errorf("cluster: replication %d < 1", replication)
	}
	if replication > len(nodes) {
		replication = len(nodes)
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		replication: replication,
		points:      make([]point, 0, len(nodes)*VirtualNodes),
		nodes:       make([]string, 0, len(nodes)),
	}
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for v := 0; v < VirtualNodes; v++ {
			r.points = append(r.points, point{hash: hashPoint(n, v), node: n})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full-64-bit collision between virtual nodes is vanishingly
		// rare, but the tiebreak must still be deterministic across nodes.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// mix64 is the splitmix64 finalizer. FNV alone clusters badly over the
// short, similar strings a ring hashes ("n1#0", "n1#1", …): its points
// land correlated and the spread test fails by 5×. The finalizer
// decorrelates them without changing determinism.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashPoint hashes one virtual node. The vnode index is mixed in as a
// suffix so a node's points are unrelated to each other.
func hashPoint(node string, vnode int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	fmt.Fprintf(h, "#%d", vnode)
	return mix64(h.Sum64())
}

// hashKey hashes a container name onto the ring. It uses a different
// suffix domain than hashPoint so a container named like a virtual node
// cannot land exactly on it.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	return mix64(h.Sum64())
}

// Replicas returns the nodes owning the named container, primary first,
// in deterministic failover order. The returned slice is freshly
// allocated; callers may reorder it.
func (r *Ring) Replicas(container string) []string {
	want := r.replication
	out := make([]string, 0, want)
	seen := make(map[string]bool, want)
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= hashKey(container)
	})
	for i := 0; i < len(r.points) && len(out) < want; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Owns reports whether node is one of the container's replicas.
func (r *Ring) Owns(node, container string) bool {
	for _, n := range r.Replicas(container) {
		if n == node {
			return true
		}
	}
	return false
}

// Replication returns the effective replication factor (clamped to the
// node count at construction).
func (r *Ring) Replication() int { return r.replication }
