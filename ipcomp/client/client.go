// Package client is the Go client for ipcompd, the IPComp progressive
// region server (docs/PROTOCOL.md).
//
// The client speaks the planes protocol: a region request returns the
// compressed bitplane ranges of the tiles the region touches, which the
// client decodes locally into values. Refinement is incremental end to
// end — Refine sends the retrieval token from the previous response and
// receives only the additional planes the tighter bound needs, then
// updates the decoded region in place, so tightening a bound costs the
// delta bytes, not a re-download:
//
//	c := client.New("http://localhost:8080")
//	reg, _ := c.Region(ctx, "density", []int{0, 0, 0}, []int{64, 64, 64}, 1e-2)
//	coarse := reg.Data()                  // decoded at L∞ ≤ 1e-2
//	_ = reg.Refine(ctx, 1e-4)             // fetches only the delta planes
//	fine := reg.Data()                    // same region, tighter bound
//
// A response is decoded as it arrives: the calling goroutine parses tile
// frames off the body and a bounded set of workers decodes them, so Region
// and Refine use up to GOMAXPROCS cores (with GOMAXPROCS=1, the same code
// with one worker) and return only after every worker has finished. That
// concurrency is internal: a Client is safe for concurrent use, a Region
// is not — one caller at a time per Region. When a Refine fails — a body
// cut short, a frame that does not decode, a cancelled context — the
// token and bound stay the previous ones, every tile is either at its old
// plan or fully at the new one (GuaranteedError covers the mix), and the
// same Refine can be retried.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// Client talks to one ipcompd server. It is safe for concurrent use; the
// Region values it returns are not (each is a progressively refined
// reconstruction, like ipcomp.Result).
type Client struct {
	base string
	hc   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the http.Client used for requests (for
// timeouts, transports, or test servers).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New creates a client for the server at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Dataset mirrors the server's dataset metadata document.
type Dataset struct {
	Name            string  `json:"name"`
	Shape           []int   `json:"shape"`
	ChunkShape      []int   `json:"chunk_shape"`
	Scalar          string  `json:"scalar"`
	ErrorBound      float64 `json:"error_bound"`
	NumChunks       int     `json:"num_chunks"`
	CompressedBytes int64   `json:"compressed_bytes"`
}

// APIError is a non-2xx response, decoded from the server's JSON error
// shape.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("ipcompd: %s (HTTP %d)", e.Message, e.Status)
}

// get issues a GET and returns the response, mapping non-2xx statuses to
// *APIError. The caller owns the body on success.
func (c *Client) get(ctx context.Context, path string, query url.Values) (*http.Response, error) {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		apiErr := &APIError{Status: resp.StatusCode, Message: resp.Status}
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&doc); err == nil && doc.Error != "" {
			apiErr.Message = doc.Error
		}
		return nil, apiErr
	}
	return resp, nil
}

// Datasets lists the datasets the server exposes.
func (c *Client) Datasets(ctx context.Context) ([]Dataset, error) {
	resp, err := c.get(ctx, "/v1/datasets", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Datasets []Dataset `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("client: decoding dataset list: %w", err)
	}
	return doc.Datasets, nil
}

// Dataset fetches one dataset's metadata.
func (c *Client) Dataset(ctx context.Context, name string) (*Dataset, error) {
	resp, err := c.get(ctx, "/v1/datasets/"+url.PathEscape(name), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc Dataset
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("client: decoding dataset: %w", err)
	}
	return &doc, nil
}

// coords renders a coordinate vector as the wire's comma-separated form.
func coords(v []int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}
