package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// serveContainers is a minimal ipcompd-shaped origin: a JSON listing at
// /v1/containers and Range-capable raw bytes below it.
func serveContainers(blobs map[string][]byte, order []string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/containers", func(w http.ResponseWriter, r *http.Request) {
		type doc struct {
			Name string `json:"name"`
			Size int64  `json:"size"`
		}
		docs := make([]doc, 0, len(order))
		for _, n := range order {
			docs = append(docs, doc{Name: n, Size: int64(len(blobs[n]))})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"containers": docs})
	})
	mux.HandleFunc("GET /v1/containers/{name}", func(w http.ResponseWriter, r *http.Request) {
		b, ok := blobs[r.PathValue("name")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(b))
	})
	return mux
}

func TestHTTPBackendAgainstIpcompdOrigin(t *testing.T) {
	// "my data.ipcs" pins single-escaping: a name with a space must reach
	// the origin percent-encoded exactly once, or every read 404s.
	want := map[string][]byte{
		"a.ipcs":       testBlob(1024, 1),
		"b.ipcs":       testBlob(2048, 2),
		"my data.ipcs": testBlob(512, 3),
	}
	ts := httptest.NewServer(serveContainers(want, []string{"a.ipcs", "b.ipcs", "my data.ipcs"}))
	defer ts.Close()

	h, err := NewHTTP(ts.URL) // bare root rewrites to /v1/containers/
	if err != nil {
		t.Fatal(err)
	}
	checkBackend(t, h, want)
	c := h.Counters()
	if c.BytesFetched == 0 {
		t.Error("no bytes counted as fetched")
	}
}

func TestHTTPBackendSingleFileAndStaticServer(t *testing.T) {
	dir := t.TempDir()
	blob := testBlob(4096, 5)
	if err := os.Mkdir(filepath.Join(dir, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "data", "c.ipcs"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.FileServer(http.Dir(dir)))
	defer ts.Close()

	// Directory mode against a static server (a bare "/" root would be
	// taken for an ipcompd origin): opening by name works, listing cannot
	// (no ipcompd protocol) and must say so.
	h, err := NewHTTP(ts.URL + "/data/")
	if err != nil {
		t.Fatal(err)
	}
	if size, err := h.Size("c.ipcs"); err != nil || size != int64(len(blob)) {
		t.Fatalf("Size = %d, %v", size, err)
	}
	p := make([]byte, 100)
	if _, err := h.ReadAt("c.ipcs", p, 1000); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, blob[1000:1100]) {
		t.Error("static-server ranged read returned wrong bytes")
	}
	if _, err := h.List(); err == nil {
		t.Error("List against a static server succeeded")
	}

	// Single-file mode: the URL names the container.
	hf, err := NewHTTP(ts.URL + "/data/c.ipcs")
	if err != nil {
		t.Fatal(err)
	}
	if hf.SingleContainer() != "c.ipcs" {
		t.Fatalf("SingleContainer = %q", hf.SingleContainer())
	}
	names, err := hf.List()
	if err != nil || len(names) != 1 || names[0] != "c.ipcs" {
		t.Fatalf("List = %v, %v", names, err)
	}
	checkBackend(t, hf, map[string][]byte{"c.ipcs": blob})
	if _, err := hf.Size("other.ipcs"); err == nil {
		t.Error("single-file backend served a foreign name")
	}
}

// TestHTTPBackendRetry pins the retry/backoff contract: transient 5xx
// responses are retried and then succeed; non-retryable statuses fail
// immediately.
func TestHTTPBackendRetry(t *testing.T) {
	blob := testBlob(512, 3)
	var failures atomic.Int32
	failures.Store(2)
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if failures.Add(-1) >= 0 {
			http.Error(w, "transient", http.StatusBadGateway)
			return
		}
		http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(blob))
	}))
	defer ts.Close()

	h, err := NewHTTP(ts.URL + "/c.ipcs")
	if err != nil {
		t.Fatal(err)
	}
	h.retries, h.backoff = 3, time.Millisecond
	p := make([]byte, 64)
	if _, err := h.ReadAt("c.ipcs", p, 0); err != nil {
		t.Fatalf("read after transient failures: %v", err)
	}
	if !bytes.Equal(p, blob[:64]) {
		t.Error("retried read returned wrong bytes")
	}
	if got := requests.Load(); got != 3 {
		t.Errorf("%d requests, want 3 (two 502s then success)", got)
	}

	// Exhausted retries surface the last error with attempt context.
	failures.Store(100)
	if _, err := h.ReadAt("c.ipcs", p, 0); err == nil ||
		!strings.Contains(err.Error(), "attempts") {
		t.Errorf("exhausted retries: %v", err)
	}
}

// TestSleepBackoff pins the backoff contract the whole retry path (http
// backend and cluster router) shares: exponential growth with bounded
// jitter, and a done context cutting the sleep short immediately.
func TestSleepBackoff(t *testing.T) {
	for attempt, base := range map[int]time.Duration{1: time.Millisecond, 3: time.Millisecond} {
		start := time.Now()
		if err := SleepBackoff(context.Background(), attempt, base); err != nil {
			t.Fatal(err)
		}
		min := base << (attempt - 1)
		// Sleeps can overshoot under load, so only the lower edge is exact:
		// at least the exponential floor for this attempt.
		if got := time.Since(start); got < min {
			t.Errorf("attempt %d slept %v, want >= %v", attempt, got, min)
		}
	}
	// Zero base: no sleep, but a dead context still reports itself.
	if err := SleepBackoff(context.Background(), 1, 0); err != nil {
		t.Errorf("zero base: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := SleepBackoff(ctx, 4, time.Hour); err == nil {
		t.Error("canceled context should abort the backoff")
	}
	if time.Since(start) > time.Second {
		t.Error("canceled context still slept")
	}
}

func TestHTTPBackendNoRangeSupport(t *testing.T) {
	blob := testBlob(256, 4)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(blob) // ignores Range; plain 200
	}))
	defer ts.Close()
	h, err := NewHTTP(ts.URL + "/c.ipcs")
	if err != nil {
		t.Fatal(err)
	}
	h.retries, h.backoff = 1, 0
	// Size still works via Content-Length…
	if size, err := h.Size("c.ipcs"); err != nil || size != int64(len(blob)) {
		t.Fatalf("Size = %d, %v", size, err)
	}
	// …but ranged reads must fail loudly rather than mis-slice a 200 body.
	if _, err := h.ReadAt("c.ipcs", make([]byte, 10), 5); err == nil ||
		!strings.Contains(err.Error(), "Range") {
		t.Errorf("no-range origin: %v", err)
	}
}

// TestHTTPBackendStalledOrigin: an origin that answers the size probe and
// then stalls a range read — before its headers, or halfway through its
// body — fails the read once every attempt has run into its deadline,
// instead of holding it forever. Each attempt is a fresh request that
// stalls again, so the read returns an error after httpAttempts.
func TestHTTPBackendStalledOrigin(t *testing.T) {
	const attempt = 100 * time.Millisecond
	blob := testBlob(4096, 9)
	for _, stall := range []string{"headers", "body"} {
		t.Run(stall, func(t *testing.T) {
			done := make(chan struct{})
			var ranged atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Header.Get("Range") == "bytes=0-0" {
					http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(blob))
					return
				}
				ranged.Add(1)
				if stall == "body" {
					w.Header().Set("Content-Range", fmt.Sprintf("bytes 0-1023/%d", len(blob)))
					w.Header().Set("Content-Length", "1024")
					w.WriteHeader(http.StatusPartialContent)
					w.Write(blob[:512])
					w.(http.Flusher).Flush()
				}
				select {
				case <-done:
				case <-r.Context().Done():
				}
			}))
			defer ts.Close()
			defer close(done)
			h, err := NewHTTP(ts.URL + "/c.ipcs")
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			h.client.Timeout, h.backoff = attempt, time.Millisecond
			if _, err := h.Size("c.ipcs"); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err = h.ReadAt("c.ipcs", make([]byte, 1024), 0)
			took := time.Since(start)
			if err == nil {
				t.Fatal("a read from a stalled origin succeeded")
			}
			if !strings.Contains(err.Error(), "attempts") || ranged.Load() != httpAttempts {
				t.Errorf("stalled read: %d range requests, error %v; want %d attempts", ranged.Load(), err, httpAttempts)
			}
			// httpAttempts deadlines, plus backoffs of at most 1.5·(1+2) ms,
			// plus scheduling slack.
			if limit := httpAttempts*attempt + 2*time.Second; took > limit {
				t.Errorf("stalled read returned after %v, want under %v", took, limit)
			}
		})
	}
}

// TestHTTPBackendRejectsLyingContentRange pins that a 206 whose
// Content-Range does not name the requested range is an error, not
// silently mis-cached bytes.
func TestHTTPBackendRejectsLyingContentRange(t *testing.T) {
	blob := testBlob(512, 8)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Always serve the first 64 bytes, whatever was asked.
		w.Header().Set("Content-Range", fmt.Sprintf("bytes 0-63/%d", len(blob)))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(blob[:64])
	}))
	defer ts.Close()
	h, err := NewHTTP(ts.URL + "/c.ipcs")
	if err != nil {
		t.Fatal(err)
	}
	h.retries, h.backoff = 1, 0
	h.mu.Lock()
	h.sizes["c.ipcs"] = int64(len(blob))
	h.mu.Unlock()
	if _, err := h.ReadAt("c.ipcs", make([]byte, 64), 128); err == nil ||
		!strings.Contains(err.Error(), "served range") {
		t.Errorf("clamped 206 accepted: %v", err)
	}
	// The honest range still works.
	p := make([]byte, 64)
	if _, err := h.ReadAt("c.ipcs", p, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, blob[:64]) {
		t.Error("honest range returned wrong bytes")
	}
}

// TestHTTPBackendDetectsReplacedContainer pins the If-Range contract: a
// container replaced at the origin after the size/validator probe must
// fail subsequent ranged reads loudly — never splice bytes of two
// versions into one cached view.
func TestHTTPBackendDetectsReplacedContainer(t *testing.T) {
	v1, v2 := testBlob(512, 11), testBlob(512, 12)
	var current atomic.Pointer[[]byte]
	current.Store(&v1)
	var etag atomic.Value
	etag.Store(`"v1"`)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Etag", etag.Load().(string))
		http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(*current.Load()))
	}))
	defer ts.Close()

	h, err := NewHTTP(ts.URL + "/c.ipcs")
	if err != nil {
		t.Fatal(err)
	}
	h.retries, h.backoff = 1, 0
	if _, err := h.Size("c.ipcs"); err != nil { // probes and captures "v1"
		t.Fatal(err)
	}
	p := make([]byte, 64)
	if _, err := h.ReadAt("c.ipcs", p, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, v1[:64]) {
		t.Fatal("pre-replacement read wrong bytes")
	}

	// Replace the container: If-Range no longer matches, the origin
	// answers 200, and the read must error rather than return v2 bytes.
	current.Store(&v2)
	etag.Store(`"v2"`)
	if _, err := h.ReadAt("c.ipcs", p, 64); err == nil ||
		!strings.Contains(err.Error(), "changed at the origin") {
		t.Errorf("replaced container: %v", err)
	}
}

func TestNewHTTPRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"ftp://x/y", "http://", "://nope", "http:///pathonly"} {
		if _, err := NewHTTP(bad); err == nil {
			t.Errorf("NewHTTP(%q) succeeded", bad)
		}
	}
}
