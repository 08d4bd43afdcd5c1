package store

import (
	"math/rand"
	"slices"
	"testing"
)

// residentCharges returns the cache's resident entries in LRU order, most
// recent first, and the sum of their charges, and checks that the map and
// the list agree.
func residentCharges(t *testing.T, c *TileCache) (got []*chunkEntry, sum int64) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*chunkEntry)
		if c.entries[e.key] != el {
			t.Fatalf("list entry %v is not what the map holds", e.key)
		}
		got = append(got, e)
		sum += e.charge()
	}
	if len(c.entries) != len(got) {
		t.Fatalf("map holds %d entries, list %d", len(c.entries), len(got))
	}
	return got, sum
}

// TestTileCacheBoundProperty runs random sequences of acquire (for bytes
// only, or charging a decode), charges that grow after admission (grow,
// for compressed bytes read through an entry, and settle, for a decode
// that retains more or less than it was charged), peek and Resize over
// tiles whose decodes are charged 64 KiB to 4 MiB, at budgets of 0 to 16
// tiles, some entries held locked as a decode holds them. A decode charged
// in advance covers the bytes its entry reads until it settles. It checks the
// cache against a model of one LRU that, from its oldest end, demotes an
// unlocked entry with a decode and compressed bytes to those bytes and
// drops any other, keeping only the entry just touched when that entry alone
// exceeds the budget. After every operation the cache holds exactly the
// model's entries in the model's order and states, is charged the sum of
// their charges, and is charged at most the budget plus its largest
// resident tile (the budget alone after a Resize).
func TestTileCacheBoundProperty(t *testing.T) {
	const maxCharge = 4 << 20
	rng := rand.New(rand.NewSource(12))
	type model struct {
		e         *chunkEntry
		held, dec int64
		pending   bool
	}
	charged := func(m *model) int64 {
		if m.pending {
			return max(m.held, m.dec)
		}
		return m.held + m.dec
	}
	for trial := 0; trial < 200; trial++ {
		// A key's decode charge is fixed, as a tile's decoded size is by
		// its tiling.
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
		var lru []*model // most recent first
		used := func() (n int64) {
			for _, m := range lru {
				n += charged(m)
			}
			return n
		}
		find := func(e *chunkEntry) int {
			return slices.IndexFunc(lru, func(m *model) bool { return m.e == e })
		}
		locked := map[*chunkEntry]bool{}
		evict := func(keep int) {
			for (used() > capB || capB <= 0) && len(lru) > keep {
				m := lru[len(lru)-1]
				if m.dec > 0 && m.held > 0 && !locked[m.e] {
					m.dec, m.pending = 0, false
					continue
				}
				lru = lru[:len(lru)-1]
			}
		}
		front := func(i int) {
			m := lru[i]
			lru = slices.Insert(slices.Delete(lru, i, i+1), 0, m)
		}
		// recharge mirrors TileCache.recharge on the model.
		recharge := func(e *chunkEntry, set func(m *model)) {
			if i := find(e); i >= 0 {
				set(lru[i])
				front(i)
				evict(1)
			}
		}
		var handles []*chunkEntry // entries acquire returned, resident or not
		for op := 0; op < 300; op++ {
			// A decode in progress holds its entry's lock: eviction must
			// drop such an entry, never wait for it or demote it.
			var held *chunkEntry
			if len(handles) > 0 && rng.Intn(4) == 0 {
				held = handles[rng.Intn(len(handles))]
				held.mu.Lock()
				locked[held] = true
			}
			k := keys[rng.Intn(len(keys))]
			var what string
			switch r := rng.Intn(14); {
			case r < 5:
				what = "acquire"
				decoded := int64(0)
				if rng.Intn(2) == 0 {
					decoded = charge[k]
				}
				e := c.acquire(k, tileBlob{size: maxCharge}, decoded)
				handles = append(handles, e)
				if e.key != k {
					t.Fatalf("trial %d op %d: acquire(%v) returned the entry of %v", trial, op, k, e.key)
				}
				switch i := slices.IndexFunc(lru, func(m *model) bool { return m.e.key == k }); {
				case capB <= 0:
					if !e.private {
						t.Fatalf("trial %d op %d: a disabled cache shared its entry for %v", trial, op, k)
					}
				case i >= 0:
					if lru[i].e != e {
						t.Fatalf("trial %d op %d: acquire(%v) returned a new entry beside the resident one", trial, op, k)
					}
					front(i)
					if lru[0].dec == 0 && decoded > 0 {
						lru[0].dec, lru[0].pending = decoded, true
					}
					evict(1)
				default:
					lru = slices.Insert(lru, 0, &model{e: e, dec: decoded, pending: decoded > 0})
					evict(1)
				}
			case r < 8 && len(handles) > 0:
				what = "grow"
				e := handles[rng.Intn(len(handles))]
				n := rng.Int63n(maxCharge / 8)
				c.grow(e, n)
				recharge(e, func(m *model) { m.held = max(m.held, n) })
			case r < 10 && len(handles) > 0:
				what = "settle"
				e := handles[rng.Intn(len(handles))]
				n := charge[e.key]/2 + rng.Int63n(charge[e.key]) // below or above the admission charge
				c.settle(e, n)
				recharge(e, func(m *model) { m.dec, m.pending = n, false })
			case r < 13:
				what = "peek"
				e := c.peek(k)
				i := slices.IndexFunc(lru, func(m *model) bool { return m.e.key == k })
				if (i >= 0) != (e != nil) || (e != nil && lru[i].e != e) {
					t.Fatalf("trial %d op %d: peek(%v) found %v, the model holds it: %v", trial, op, k, e != nil, i >= 0)
				}
				if e != nil {
					front(i)
				}
			default:
				capB = budget()
				what = "resize"
				c.Resize(capB)
				evict(0)
			}
			if held != nil {
				held.mu.Unlock()
				delete(locked, held)
			}
			got, sum := residentCharges(t, c)
			st := c.Stats()
			var largest int64
			for _, e := range got {
				largest = max(largest, e.charge())
			}
			slack := largest
			if what == "resize" {
				slack = 0
			}
			switch {
			case st.Bytes != sum || st.Entries != int64(len(got)):
				t.Fatalf("trial %d op %d (%s): Stats %+v, resident entries charge %d over %d", trial, op, what, st, sum, len(got))
			case st.Bytes > capB+slack && len(got) > 0:
				t.Fatalf("trial %d op %d (%s): %d bytes in %d entries over a %d budget + %d", trial, op, what, st.Bytes, st.Entries, capB, slack)
			case len(got) != len(lru):
				t.Fatalf("trial %d op %d (%s): cache holds %d entries, the model %d", trial, op, what, len(got), len(lru))
			}
			for i, e := range got {
				if m := lru[i]; m.e != e || m.held != e.held || m.dec != e.dec || m.pending != e.pending {
					t.Fatalf("trial %d op %d (%s): entry %d is %v charged %d+%d (pending %v), the model's is %v charged %d+%d (pending %v)",
						trial, op, what, i, e.key, e.held, e.dec, e.pending, m.e.key, m.held, m.dec, m.pending)
				}
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
			c.acquire(tileKey{owner: 1, dataset: "density", chunk: i}, tileBlob{}, tc.tile)
		}
		if st := c.Stats(); st.Entries != tc.want || st.Bytes != tc.want*tc.tile || st.Evictions != 4096-tc.want {
			t.Errorf("budget %d MiB, tile %d KiB: %+v, want %d tiles", tc.budget>>20, tc.tile>>10, st, tc.want)
		}
	}
}
