package backend

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingBackend wraps Dir, counting ReadAt calls and bytes, so tests
// can assert what reached the origin.
type countingBackend struct {
	*Dir
	reads atomic.Int64
	bytes atomic.Int64
}

func (c *countingBackend) ReadAt(name string, p []byte, off int64) (int, error) {
	c.reads.Add(1)
	n, err := c.Dir.ReadAt(name, p, off)
	c.bytes.Add(int64(n))
	return n, err
}

func newCountingBackend(t testing.TB, blobs map[string][]byte) *countingBackend {
	return &countingBackend{Dir: dirWith(t, blobs)}
}

func TestCachedReadThrough(t *testing.T) {
	blob := testBlob(4096, 1)
	origin := newCountingBackend(t, map[string][]byte{"c": blob})
	c := NewCached(origin, 1<<20)

	p := make([]byte, 256)
	if _, err := c.ReadAt("c", p, 512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, blob[512:768]) {
		t.Fatal("cold read returned wrong bytes")
	}
	if got := origin.reads.Load(); got != 1 {
		t.Fatalf("cold read hit origin %d times, want 1", got)
	}

	// Warm: identical and contained reads are served with zero origin I/O.
	for _, r := range []Range{{512, 256}, {512, 10}, {600, 100}} {
		q := make([]byte, r.Len)
		if _, err := c.ReadAt("c", q, r.Off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(q, blob[r.Off:r.Off+r.Len]) {
			t.Fatalf("warm read [%d,+%d) wrong bytes", r.Off, r.Len)
		}
	}
	if got := origin.reads.Load(); got != 1 {
		t.Fatalf("warm reads hit origin (%d total reads)", got)
	}

	// A straddling read fetches only the missing gaps, not the resident
	// middle.
	q := make([]byte, 1024)
	if _, err := c.ReadAt("c", q, 256); err != nil { // [256,1280): [256,512) and [768,1280) missing
		t.Fatal(err)
	}
	if !bytes.Equal(q, blob[256:1280]) {
		t.Fatal("straddling read wrong bytes")
	}
	if got := origin.bytes.Load(); got != 256+256+512 {
		t.Errorf("origin served %d bytes, want 1024 (no re-fetch of the resident middle)", got)
	}

	cs := c.Counters()
	if cs.Hits != 3 || cs.Misses != 2 {
		t.Errorf("Hits=%d Misses=%d, want 3, 2", cs.Hits, cs.Misses)
	}
	if cs.BytesFetched != origin.bytes.Load() {
		t.Errorf("BytesFetched=%d, origin saw %d", cs.BytesFetched, origin.bytes.Load())
	}
}

func TestCachedEvictsToBudget(t *testing.T) {
	blob := testBlob(1<<16, 2)
	origin := newCountingBackend(t, map[string][]byte{"c": blob})
	c := NewCached(origin, 4096)

	// Fill well past the budget with disjoint kilobyte reads.
	for i := 0; i < 16; i++ {
		p := make([]byte, 1024)
		if _, err := c.ReadAt("c", p, int64(i)*1024); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, blob[i*1024:(i+1)*1024]) {
			t.Fatalf("read %d wrong bytes", i)
		}
	}
	if held := c.Held(); held > 4096 {
		t.Errorf("held %d bytes, budget 4096", held)
	}
	// The most recent range is still warm…
	before := origin.reads.Load()
	p := make([]byte, 1024)
	if _, err := c.ReadAt("c", p, 15*1024); err != nil {
		t.Fatal(err)
	}
	if origin.reads.Load() != before {
		t.Error("most recent range was evicted")
	}
	// …and long-evicted ranges re-fetch correctly.
	if _, err := c.ReadAt("c", p, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, blob[:1024]) {
		t.Error("re-fetched range wrong bytes")
	}

	// A read at/above the whole budget bypasses the cache instead of
	// thrashing it.
	big := make([]byte, 8192)
	if _, err := c.ReadAt("c", big, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(big, blob[:8192]) {
		t.Error("bypass read wrong bytes")
	}
	if held := c.Held(); held > 4096 {
		t.Errorf("bypass read inflated the cache to %d bytes", held)
	}
}

func TestCachedCoalescesConcurrentFetches(t *testing.T) {
	blob := testBlob(8192, 3)
	origin := newCountingBackend(t, map[string][]byte{"c": blob})
	slow := &slowBackend{Backend: origin, release: make(chan struct{})}
	c := NewCached(slow, 1<<20)

	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := make([]byte, 512)
			_, errs[i] = c.ReadAt("c", p, 1024)
			if errs[i] == nil && !bytes.Equal(p, blob[1024:1536]) {
				t.Errorf("reader %d wrong bytes", i)
			}
		}(i)
	}
	for int(c.Counters().Coalesced) < readers-1 {
		time.Sleep(time.Millisecond)
	}
	close(slow.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if got := origin.reads.Load(); got != 1 {
		t.Errorf("%d origin reads, want 1 (coalesced)", got)
	}
}

// slowBackend blocks ReadAt until released, letting tests pile up
// concurrent reads deterministically. Size passes through immediately.
type slowBackend struct {
	Backend
	release chan struct{}
}

func (s *slowBackend) ReadAt(name string, p []byte, off int64) (int, error) {
	<-s.release
	return s.Backend.ReadAt(name, p, off)
}

func TestCachedMultiContainerAndPassthroughList(t *testing.T) {
	blobs := map[string][]byte{"a": testBlob(512, 5), "b": testBlob(256, 6)}
	origin := newCountingBackend(t, blobs)
	c := NewCached(origin, 1<<20)
	names, err := c.List()
	if err != nil || len(names) != 2 {
		t.Fatalf("List = %v, %v", names, err)
	}
	for name, blob := range blobs {
		if size, err := c.Size(name); err != nil || size != int64(len(blob)) {
			t.Fatalf("Size(%q) = %d, %v", name, size, err)
		}
		p := make([]byte, len(blob))
		if _, err := c.ReadAt(name, p, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, blob) {
			t.Fatalf("container %q wrong bytes", name)
		}
	}
	if _, err := c.Size("missing"); err == nil {
		t.Error("Size of unknown container succeeded")
	}
}
