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

// TestCachedReadThrough: the tier keeps no bytes, so every read reaches
// the origin — a repeated read as much as a first one — and BytesFetched
// is exactly what the origin served.
func TestCachedReadThrough(t *testing.T) {
	blob := testBlob(4096, 1)
	origin := newCountingBackend(t, map[string][]byte{"c": blob})
	c := NewCached(origin)

	for i, r := range []Range{{512, 256}, {512, 256}, {600, 100}, {0, 4096}} {
		q := make([]byte, r.Len)
		if _, err := c.ReadAt("c", q, r.Off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(q, blob[r.Off:r.Off+r.Len]) {
			t.Fatalf("read [%d,+%d) wrong bytes", r.Off, r.Len)
		}
		if got := origin.reads.Load(); got != int64(i+1) {
			t.Fatalf("after %d reads the origin saw %d", i+1, got)
		}
	}
	if _, err := c.ReadAt("c", make([]byte, 8), 4090); err == nil {
		t.Error("read past the container's end succeeded")
	}
	if cs := c.Counters(); cs.BytesFetched != origin.bytes.Load() || cs.Coalesced != 0 {
		t.Errorf("Counters %+v, origin served %d bytes", cs, origin.bytes.Load())
	}
}

func TestCachedCoalescesConcurrentFetches(t *testing.T) {
	blob := testBlob(8192, 3)
	origin := newCountingBackend(t, map[string][]byte{"c": blob})
	slow := &slowBackend{Backend: origin, release: make(chan struct{})}
	c := NewCached(slow)

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
	c := NewCached(origin)
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
