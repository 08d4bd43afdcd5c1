package store

import (
	"math/rand"
	"slices"
	"testing"
)

// residentCharges returns the charges of the cache's resident entries in
// LRU order, most recent first, and checks that the map and the list agree.
func residentCharges(t *testing.T, c *TileCache) (keys []tileKey, sum int64) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*chunkEntry)
		if c.entries[e.key] != el {
			t.Fatalf("list entry %v is not what the map holds", e.key)
		}
		keys = append(keys, e.key)
		sum += e.charged
	}
	if len(c.entries) != len(keys) {
		t.Fatalf("map holds %d entries, list %d", len(c.entries), len(keys))
	}
	return keys, sum
}

// TestTileCacheBoundProperty runs random sequences of acquire, peek and
// Resize over tiles charged 64 KiB to 4 MiB, at budgets of 0 to 16 tiles,
// against a model of one LRU that keeps only its newest entry when that
// entry alone exceeds the budget. After every operation the cache holds
// exactly the model's keys in the model's order, is charged the sum of
// their charges, and is charged at most the budget plus its largest
// resident tile (the budget alone after a Resize).
func TestTileCacheBoundProperty(t *testing.T) {
	const maxCharge = 4 << 20
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		// A key's charge is fixed, as a tile's decoded size is by its tiling.
		keys := make([]tileKey, 1+rng.Intn(40))
		charge := make(map[tileKey]int64)
		for i := range keys {
			keys[i] = tileKey{owner: 1, dataset: "d", chunk: i}
			if i%2 == 1 { // half the keys are content-addressed
				keys[i] = tileKey{}
				rng.Read(keys[i].score[:])
			}
			charge[keys[i]] = 64<<10 + rng.Int63n(maxCharge-64<<10+1)
		}
		budget := func() int64 {
			if rng.Intn(8) == 0 {
				return 0
			}
			return rng.Int63n(16*maxCharge + 1)
		}
		capB := budget()
		c := NewTileCache(capB)
		var model []tileKey // most recent first
		var modelUsed int64
		evict := func(keep int) {
			for modelUsed > capB && len(model) > keep {
				modelUsed -= charge[model[len(model)-1]]
				model = model[:len(model)-1]
			}
		}
		touch := func(k tileKey) {
			i := slices.Index(model, k)
			model = slices.Insert(slices.Delete(model, i, i+1), 0, k)
		}
		for op := 0; op < 300; op++ {
			k := keys[rng.Intn(len(keys))]
			var what string
			switch r := rng.Intn(10); {
			case r < 6:
				what = "acquire"
				e := c.acquire(k, charge[k])
				if e.key != k || e.charged != charge[k] {
					t.Fatalf("trial %d op %d: acquire(%v) returned the entry of %v charged %d", trial, op, k, e.key, e.charged)
				}
				switch {
				case capB <= 0:
				case slices.Contains(model, k):
					touch(k)
				default:
					model = slices.Insert(model, 0, k)
					modelUsed += charge[k]
					evict(1)
				}
			case r < 9:
				what = "peek"
				e := c.peek(k)
				if in := slices.Contains(model, k); in != (e != nil) {
					t.Fatalf("trial %d op %d: peek(%v) found %v, the model holds it: %v", trial, op, k, e != nil, in)
				}
				if e != nil {
					touch(k)
				}
			default:
				capB = budget()
				what = "resize"
				c.Resize(capB)
				evict(0)
			}
			got, sum := residentCharges(t, c)
			st := c.Stats()
			var largest int64
			for _, k := range got {
				largest = max(largest, charge[k])
			}
			slack := largest
			if what == "resize" {
				slack = 0
			}
			switch {
			case st.Bytes != sum || st.Entries != int64(len(got)):
				t.Fatalf("trial %d op %d (%s): Stats %+v, resident entries charge %d over %d", trial, op, what, st, sum, len(got))
			case st.Bytes > capB+slack:
				t.Fatalf("trial %d op %d (%s): %d bytes in %d entries over a %d budget + %d", trial, op, what, st.Bytes, st.Entries, capB, slack)
			case !slices.Equal(got, model):
				t.Fatalf("trial %d op %d (%s): cache holds %v, one LRU would hold %v", trial, op, what, got, model)
			}
		}
	}
}

// TestTileCacheResidency: after 4 096 distinct admissions the cache holds
// as many tiles as fit its budget, or the one newest tile if none fits —
// never a tile more.
func TestTileCacheResidency(t *testing.T) {
	const tile64, tile32 = 64 * 64 * 64 * 12, 32 * 32 * 32 * 12 // charges of f64 tiles
	for _, tc := range []struct {
		budget, tile, want int64
	}{
		{16 << 20, tile64, 5},
		{4 << 20, tile32, 10},
		{256 << 20, tile64, 85},
		{1 << 20, tile64, 1},
	} {
		c := NewTileCache(tc.budget)
		for i := 0; i < 4096; i++ {
			c.acquire(tileKey{owner: 1, dataset: "density", chunk: i}, tc.tile)
		}
		if st := c.Stats(); st.Entries != tc.want || st.Bytes != tc.want*tc.tile || st.Evictions != 4096-tc.want {
			t.Errorf("budget %d MiB, tile %d KiB: %+v, want %d tiles", tc.budget>>20, tc.tile>>10, st, tc.want)
		}
	}
}
