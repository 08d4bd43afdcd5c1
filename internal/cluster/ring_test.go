package cluster

import (
	"fmt"
	"strings"
	"testing"
)

func TestRingDeterministicAcrossBuilds(t *testing.T) {
	// Two rings built from the same membership in different input order
	// must agree on every placement — that is what lets every node route
	// without coordination.
	a, err := New([]string{"n1", "n2", "n3"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New([]string{"n3", "n1", "n2"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("container-%d.ipcs", i)
		ra, rb := a.Replicas(key), b.Replicas(key)
		if len(ra) != 2 || len(rb) != 2 {
			t.Fatalf("replicas(%q) = %v / %v, want 2 each", key, ra, rb)
		}
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("replica order differs for %q: %v vs %v", key, ra, rb)
			}
		}
		if ra[0] == ra[1] {
			t.Fatalf("replicas(%q) not distinct: %v", key, ra)
		}
	}
}

func TestRingSpread(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e"}
	r, err := New(nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const keys = 5000
	for i := 0; i < keys; i++ {
		counts[r.Replicas(fmt.Sprintf("c%d", i))[0]]++
	}
	for _, n := range nodes {
		got := counts[n]
		// Perfect balance is keys/5 = 1000; virtual nodes should keep every
		// node within a loose factor-of-two envelope.
		if got < keys/10 || got > keys*2/5 {
			t.Errorf("node %s owns %d/%d primaries — placement badly skewed (%v)", n, got, keys, counts)
		}
	}
}

func TestRingReplicationClampAndOwns(t *testing.T) {
	r, err := New([]string{"solo"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Replication() != 1 {
		t.Errorf("replication = %d, want clamped 1", r.Replication())
	}
	if got := r.Replicas("x"); len(got) != 1 || got[0] != "solo" {
		t.Errorf("replicas = %v", got)
	}
	if !r.Owns("solo", "x") || r.Owns("ghost", "x") {
		t.Error("ownership wrong for single-node ring")
	}
}

func TestRingMinimalDisruption(t *testing.T) {
	// Consistent hashing's point: adding a node moves only ~1/N of the
	// keyspace. Compare primaries between a 4-node and 5-node ring.
	old, err := New([]string{"a", "b", "c", "d"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := New([]string{"a", "b", "c", "d", "e"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("c%d", i)
		if old.Replicas(key)[0] != grown.Replicas(key)[0] {
			moved++
			if grown.Replicas(key)[0] != "e" {
				t.Fatalf("key %q moved to %q, not the new node", key, grown.Replicas(key)[0])
			}
		}
	}
	// Expect ~1/5 moved; far more means the hash is not consistent.
	if moved > keys*2/5 {
		t.Errorf("%d/%d keys moved when adding one node to four", moved, keys)
	}
	if moved == 0 {
		t.Error("no keys moved to the new node at all")
	}
}

func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := New([]string{"a", "a"}, 1); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := New([]string{"a", ""}, 1); err == nil {
		t.Error("empty node name accepted")
	}
	if _, err := New([]string{"a"}, 0); err == nil {
		t.Error("replication 0 accepted")
	}
}

// TestRingGoldenPlacement pins placement itself: the replicas of 100 fixed
// container names on a five-node ring at replication 2. Every node of a
// running cluster computes these independently, so a change to the hash,
// the point layout or VirtualNodes that moves any of them strands
// containers on nodes that no longer own them after an upgrade.
func TestRingGoldenPlacement(t *testing.T) {
	// Primary and secondary node digits of c000.ipcs … c099.ipcs.
	const golden = `35 21 41 15 12 43 25 32 43 23 14 12 15 14 14 25 43 53 51 35
32 51 25 35 14 53 35 32 52 35 34 53 12 43 54 24 12 35 54 13
12 51 14 43 32 21 52 31 15 31 45 15 15 31 14 42 13 41 41 23
14 51 45 23 34 12 51 15 41 23 13 53 21 54 23 23 52 42 12 23
24 13 45 23 12 21 23 23 13 53 23 45 21 32 24 43 53 32 15 51`
	r, err := New([]string{"n1", "n2", "n3", "n4", "n5"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(golden)
	if len(want) != 100 {
		t.Fatalf("golden table has %d entries", len(want))
	}
	for i, w := range want {
		name := fmt.Sprintf("c%03d.ipcs", i)
		got := r.Replicas(name)
		if len(got) != 2 || got[0] != "n"+w[:1] || got[1] != "n"+w[1:] {
			t.Errorf("Replicas(%q) = %v, want [n%c n%c]", name, got, w[0], w[1])
		}
	}
}
