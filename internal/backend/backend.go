// Package backend abstracts where IPComp containers live. A Backend is a
// narrow, venti-inspired read protocol over a set of named containers:
// list the names, report a container's size, and read an arbitrary byte
// range. Everything above it — archive header parsing, loading plans,
// tile decodes, wire-span serving — already works through ranged reads
// (io.ReaderAt / core.BlockSource), so the same store, server, and CLI
// code runs identically against a local directory (Dir, File), a remote
// HTTP origin (HTTP), or either behind a tier that joins identical
// concurrent reads (Cached).
//
// The seam is deliberately dumb: no writes, no locking protocol, no
// container structure. Storage stays simple; smarts (request coalescing,
// retry) layer on the read path, and caching is the store's tile cache,
// which is what lets an edge ipcompd proxy an origin ipcompd by doing
// nothing more than opening its containers through Cached(HTTP).
package backend

import (
	"fmt"
	"io"
)

// Backend is a read-only view of a set of named containers.
//
// Implementations must be safe for concurrent use. ReadAt follows a
// stricter contract than io.ReaderAt: the range [off, off+len(p)) must lie
// entirely inside the named container, and a nil error means p was filled
// completely. Reads outside the container fail; there is no partial-read
// success at EOF.
type Backend interface {
	// List returns the container names the backend serves, in a stable
	// order. Backends that cannot enumerate (e.g. HTTP against a plain
	// static file server) return an error explaining how to address
	// containers directly.
	List() ([]string, error)
	// Size returns the named container's size in bytes.
	Size(name string) (int64, error)
	// ReadAt fills p with the bytes of the named container starting at
	// offset off.
	ReadAt(name string, p []byte, off int64) (int, error)
}

// TraceReader is implemented by backends that can attach a request-trace
// id to a read: HTTP sends it as the X-Ipcomp-Trace header on the origin
// fetch (so the origin's spans stitch into the caller's trace), and
// Cached forwards it on the fetches it initiates. trace == "" behaves
// exactly like ReadAt.
type TraceReader interface {
	ReadAtTrace(name string, p []byte, off int64, trace string) (int, error)
}

// ReadAtTrace reads through b with a trace id when b supports it and
// falls back to a plain ReadAt when it does not.
func ReadAtTrace(b Backend, name string, p []byte, off int64, trace string) (int, error) {
	if tr, ok := b.(TraceReader); ok && trace != "" {
		return tr.ReadAtTrace(name, p, off, trace)
	}
	return b.ReadAt(name, p, off)
}

// Counters is a snapshot of a backend's read-path instrumentation.
// Backends that carry counters expose them via CounterSource; the zero
// value means "nothing to report" (e.g. a bare Dir backend).
type Counters struct {
	// BytesFetched is the total bytes read from the origin.
	BytesFetched int64
	// Coalesced counts reads that joined an identical in-flight origin
	// fetch instead of issuing their own.
	Coalesced int64
}

// CounterSource is implemented by backends (and the Container adapter)
// that carry read-path counters.
type CounterSource interface {
	Counters() Counters
}

// IsRemote reports whether reads on b cross the network — the one place
// that decides which backends deserve a Cached tier by default.
func IsRemote(b Backend) bool {
	switch b := b.(type) {
	case *HTTP:
		return true
	case *Cached:
		return IsRemote(b.inner)
	default:
		return false
	}
}

// Close closes b if it holds releasable resources (file handles, idle
// connections). Backends without a Close method are a no-op.
func Close(b Backend) error {
	if c, ok := b.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Container adapts one named container of a Backend to io.ReaderAt with a
// known size — the shape store.Open consumes. The size is probed once, at
// OpenContainer time.
type Container struct {
	b    Backend
	name string
	size int64
}

// OpenContainer resolves the named container, probing its size.
func OpenContainer(b Backend, name string) (*Container, error) {
	size, err := b.Size(name)
	if err != nil {
		return nil, err
	}
	return &Container{b: b, name: name, size: size}, nil
}

// ReadAt implements io.ReaderAt over the container.
func (c *Container) ReadAt(p []byte, off int64) (int, error) {
	return c.b.ReadAt(c.name, p, off)
}

// ReadAtTrace reads like ReadAt with a trace id attached when the
// backing backend supports trace propagation.
func (c *Container) ReadAtTrace(p []byte, off int64, trace string) (int, error) {
	return ReadAtTrace(c.b, c.name, p, off, trace)
}

// Size returns the container's size in bytes.
func (c *Container) Size() int64 { return c.size }

// checkRange validates [off, off+n) against a container of the given size.
func checkRange(name string, off, n, size int64) error {
	// Subtraction, not off+n: offsets near 2^63 must not overflow past the
	// check.
	if off < 0 || n < 0 || off > size || n > size-off {
		return fmt.Errorf("backend: read [%d,%d) outside container %q of %d bytes", off, off+n, name, size)
	}
	return nil
}
