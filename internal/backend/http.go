package backend

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// HTTP reads containers over HTTP Range requests. It speaks to two kinds
// of origins with one code path:
//
//   - another ipcompd: point it at the server root (or its /v1/containers/
//     listing) and it can List every container the origin serves and read
//     any of them — the building block of the edge-proxy deployment;
//   - any static file server that honors Range (nginx, http.FileServer,
//     object-store gateways): point it at a directory URL ending in "/"
//     (open by name, no listing) or directly at one file (single-container
//     mode).
//
// Reads are bounded (at most httpParallel requests in flight) and retried
// with exponential backoff on transport errors and 5xx responses. HTTP
// neither caches nor coalesces; wrap it in Cached, which does both (every
// remote backend a program opens is wrapped so).
type HTTP struct {
	base    *url.URL // dir mode: ends in "/"; single mode: the file URL
	single  string   // non-empty selects single-container mode
	sem     chan struct{}
	retries int // total attempts per request
	backoff time.Duration

	mu         sync.Mutex
	sizes      map[string]int64
	validators map[string]string // ETag/Last-Modified per container, for If-Range

	bytesFetched atomic.Int64
}

// The origin-request policy of every HTTP backend.
const (
	httpParallel = 8                     // origin requests in flight at once
	httpAttempts = 3                     // attempts per origin request
	httpBackoff  = 50 * time.Millisecond // backoff before the second attempt, doubled after
)

// NewHTTP creates a backend for the given URL. A URL with an empty or "/"
// path is treated as an ipcompd root and rewritten to its
// /v1/containers/ listing; a URL ending in "/" addresses a directory of
// containers (names resolve relative to it); anything else is a single
// container named by the URL's last path element.
func NewHTTP(rawurl string) (*HTTP, error) {
	u, err := url.Parse(rawurl)
	if err != nil {
		return nil, fmt.Errorf("backend: bad URL %q: %w", rawurl, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("backend: URL %q is not http(s)", rawurl)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("backend: URL %q has no host", rawurl)
	}
	h := &HTTP{
		base:       u,
		sem:        make(chan struct{}, httpParallel),
		retries:    httpAttempts,
		backoff:    httpBackoff,
		sizes:      make(map[string]int64),
		validators: make(map[string]string),
	}
	switch {
	case u.Path == "" || u.Path == "/" || u.Path == "/v1/containers":
		// An ipcompd origin, addressed by its root or its listing endpoint
		// (with or without the trailing slash — without it, the default
		// branch would misread "containers" as a container name).
		u.Path = "/v1/containers/"
	case strings.HasSuffix(u.Path, "/"):
		// directory mode as given
	default:
		// Unescape exactly once, from the escaped form: u.Path is already
		// decoded, so unescaping it again would reject names like
		// "50%off.ipcs" and mangle ones whose decoded form re-parses as an
		// escape.
		name, err := url.PathUnescape(path.Base(u.EscapedPath()))
		if err != nil || name == "" || name == "." || name == "/" {
			return nil, fmt.Errorf("backend: URL %q does not name a container", rawurl)
		}
		h.single = name
	}
	return h, nil
}

// SingleContainer returns the container name a file URL selected, or ""
// when the backend addresses a directory/listing.
func (h *HTTP) SingleContainer() string { return h.single }

// containerURL resolves a container name to its absolute URL.
func (h *HTTP) containerURL(name string) (string, error) {
	if h.single != "" {
		if name != h.single {
			return "", fmt.Errorf("backend: no container %q (URL %s serves only %q)", name, h.base, h.single)
		}
		return h.base.String(), nil
	}
	if err := checkName(name); err != nil {
		return "", err
	}
	// JoinPath escapes the element itself; escaping here and letting
	// URL.String escape again would double-encode names with spaces or
	// percent signs.
	return h.base.JoinPath(name).String(), nil
}

// listDoc mirrors ipcompd's GET /v1/containers response.
type listDoc struct {
	Containers []struct {
		Name string `json:"name"`
		Size int64  `json:"size"`
		ETag string `json:"etag"`
	} `json:"containers"`
}

// List enumerates the origin's containers via the ipcompd listing
// protocol, under the same retry/backoff and parallelism bound as every
// other origin request (an edge booting while its origin restarts must
// ride out the blip, not die). Static file servers cannot list; address
// their containers by full URL instead.
func (h *HTTP) List() ([]string, error) {
	if h.single != "" {
		return []string{h.single}, nil
	}
	u := strings.TrimSuffix(h.base.String(), "/")
	var doc listDoc
	err := h.withRetry(func() (bool, error) {
		h.sem <- struct{}{}
		defer func() { <-h.sem }()
		req, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			return false, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return true, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode >= 500, fmt.Errorf("HTTP %d (only ipcompd origins can enumerate containers; address a static server's container by its full URL)",
				resp.StatusCode)
		}
		doc = listDoc{}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&doc); err != nil {
			return false, fmt.Errorf("not an ipcompd container listing: %w", err)
		}
		return false, nil
	})
	if err != nil {
		return nil, fmt.Errorf("backend: listing %s: %w", u, err)
	}
	names := make([]string, 0, len(doc.Containers))
	h.mu.Lock()
	for _, c := range doc.Containers {
		names = append(names, c.Name)
		h.sizes[c.Name] = c.Size
		if c.ETag != "" {
			h.validators[c.Name] = c.ETag
		}
	}
	h.mu.Unlock()
	return names, nil
}

// Size returns the named container's size, probing with a 1-byte Range
// request when the listing has not already reported it.
func (h *HTTP) Size(name string) (int64, error) {
	h.mu.Lock()
	if n, ok := h.sizes[name]; ok {
		h.mu.Unlock()
		return n, nil
	}
	h.mu.Unlock()
	u, err := h.containerURL(name)
	if err != nil {
		return 0, err
	}
	size, validator, err := h.probeSize(u)
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	h.sizes[name] = size
	if validator != "" {
		h.validators[name] = validator
	}
	h.mu.Unlock()
	return size, nil
}

// parseContentRange parses a "bytes START-END/TOTAL" header; total is -1
// when the server reports "*".
func parseContentRange(cr string) (start, end, total int64, err error) {
	rangePart, totalPart, ok := strings.Cut(strings.TrimPrefix(cr, "bytes "), "/")
	startS, endS, ok2 := strings.Cut(rangePart, "-")
	if !ok || !ok2 {
		return 0, 0, 0, fmt.Errorf("malformed Content-Range %q", cr)
	}
	if start, err = strconv.ParseInt(startS, 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("malformed Content-Range %q", cr)
	}
	if end, err = strconv.ParseInt(endS, 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("malformed Content-Range %q", cr)
	}
	if totalPart == "*" {
		return start, end, -1, nil
	}
	if total, err = strconv.ParseInt(totalPart, 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("malformed Content-Range %q", cr)
	}
	return start, end, total, nil
}

// probeSize learns a container's size — and its freshness validator
// (ETag, else Last-Modified), which later Range reads present as
// If-Range so a replaced container fails loudly instead of splicing.
func (h *HTTP) probeSize(u string) (int64, string, error) {
	var size int64
	var validator string
	err := h.withRetry(func() (bool, error) {
		h.sem <- struct{}{}
		defer func() { <-h.sem }()
		req, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			return false, err
		}
		req.Header.Set("Range", "bytes=0-0")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return true, err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusPartialContent:
			// Capture the validator only when the origin honored the Range:
			// recording one from a Range-less 200 would make every later
			// fetch misread the origin's 200 as "container changed".
			if validator = resp.Header.Get("Etag"); validator == "" {
				validator = resp.Header.Get("Last-Modified")
			}
			_, _, total, err := parseContentRange(resp.Header.Get("Content-Range"))
			if err != nil {
				return false, err
			}
			if total < 0 {
				return false, fmt.Errorf("origin reports no size for %s", u)
			}
			size = total
			return false, nil
		case http.StatusOK:
			// No range support advertised; Content-Length still sizes it.
			if resp.ContentLength < 0 {
				return false, fmt.Errorf("origin reports no size for %s", u)
			}
			size = resp.ContentLength
			return false, nil
		case http.StatusNotFound:
			return false, fmt.Errorf("no such container (HTTP 404)")
		default:
			return resp.StatusCode >= 500, fmt.Errorf("HTTP %d probing size", resp.StatusCode)
		}
	})
	if err != nil {
		return 0, "", fmt.Errorf("backend: %s: %w", u, err)
	}
	return size, validator, nil
}

// ReadAt fetches [off, off+len(p)) of the named container with one Range
// request.
func (h *HTTP) ReadAt(name string, p []byte, off int64) (int, error) {
	return h.ReadAtTrace(name, p, off, "")
}

// ReadAtTrace is ReadAt with a request-trace id that rides the origin
// fetch as the X-Ipcomp-Trace header, so an ipcompd origin records its
// side of the read into the same trace.
func (h *HTTP) ReadAtTrace(name string, p []byte, off int64, trace string) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := h.fetch(name, p, off, trace); err != nil {
		return 0, err
	}
	return len(p), nil
}

// fetch fills buf with the origin Range request for [off, off+len(buf))
// under the parallelism bound, retrying transient failures.
func (h *HTTP) fetch(name string, buf []byte, off int64, trace string) error {
	u, err := h.containerURL(name)
	if err != nil {
		return err
	}
	h.mu.Lock()
	validator := h.validators[name]
	h.mu.Unlock()
	n := len(buf)
	err = h.withRetry(func() (bool, error) {
		h.sem <- struct{}{}
		defer func() { <-h.sem }()
		req, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			return false, err
		}
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+int64(n)-1))
		if trace != "" {
			req.Header.Set(obs.TraceHeader, trace)
		}
		if validator != "" {
			// Ranged reads assemble one consistent byte view across many
			// requests; If-Range makes a replaced container answer 200
			// (detected below) instead of silently splicing two versions.
			req.Header.Set("If-Range", validator)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return true, err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusPartialContent:
			// A misbehaving origin or gateway can answer 206 with a clamped
			// or shifted range; filling buf from it would cache wrong bytes.
			// The Content-Range header must name exactly what we asked for.
			start, end, _, err := parseContentRange(resp.Header.Get("Content-Range"))
			if err != nil {
				return false, err
			}
			if start != off || end != off+int64(n)-1 {
				return false, fmt.Errorf("origin served range [%d,%d], want [%d,%d]",
					start, end, off, off+int64(n)-1)
			}
			if _, err := io.ReadFull(resp.Body, buf); err != nil {
				return true, fmt.Errorf("short range body: %w", err)
			}
			return false, nil
		case http.StatusOK:
			if validator != "" {
				return false, fmt.Errorf("container changed at the origin (validator %s no longer matches); reopen it", validator)
			}
			return false, fmt.Errorf("origin ignored the Range header (ranged reads need a Range-capable server)")
		case http.StatusRequestedRangeNotSatisfiable:
			return false, fmt.Errorf("range [%d,%d) outside the container", off, off+int64(n))
		case http.StatusNotFound:
			return false, fmt.Errorf("no such container (HTTP 404)")
		default:
			return resp.StatusCode >= 500, fmt.Errorf("HTTP %d reading range", resp.StatusCode)
		}
	})
	if err != nil {
		return fmt.Errorf("backend: %s: %w", u, err)
	}
	h.bytesFetched.Add(int64(n))
	return nil
}

// withRetry runs op up to h.retries times, backing off (with jitter)
// between attempts while op reports its failure as retryable.
func (h *HTTP) withRetry(op func() (retryable bool, err error)) error {
	var err error
	for attempt := 0; attempt < h.retries; attempt++ {
		if attempt > 0 {
			// The Backend read interface carries no context, and one that
			// is never done cannot cut the sleep short.
			_ = SleepBackoff(context.TODO(), attempt, h.backoff)
		}
		var retryable bool
		retryable, err = op()
		if err == nil || !retryable {
			return err
		}
	}
	return fmt.Errorf("%w (after %d attempts)", err, h.retries)
}

// SleepBackoff sleeps the exponential backoff before retry number
// attempt (1-based): base<<(attempt-1), plus up to 50% random jitter.
// The jitter is what keeps a fleet whose shared peer just died from
// retrying in lockstep and stampeding whoever survives. The sleep is cut
// short (returning ctx.Err()) when ctx is done; base <= 0 sleeps not at
// all. The cluster router shares this exact path for its failover
// rounds, so every retry in the system backs off the same way.
func SleepBackoff(ctx context.Context, attempt int, base time.Duration) error {
	if base <= 0 {
		return ctx.Err()
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base << (attempt - 1)
	d += rand.N(d/2 + 1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Counters reports the bytes fetched over the network.
func (h *HTTP) Counters() Counters {
	return Counters{BytesFetched: h.bytesFetched.Load()}
}

// Close releases idle origin connections.
func (h *HTTP) Close() error {
	http.DefaultClient.CloseIdleConnections()
	return nil
}
