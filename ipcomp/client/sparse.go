package client

import "repro/internal/backend"

// sparseSource is a core.BlockSource over the byte ranges of a remote
// archive that the server has shipped so far. Fresh responses seed it with
// the header and the coarse plane blocks; every refinement inserts the
// delta ranges. Reads outside delivered ranges fail loudly — with correct
// plans they never happen, because the decoder reads exactly the spans the
// plan selected and the server shipped exactly those.
//
// The span store itself is backend.Sparse — the same merge-and-verify
// buffer that holds a server's cached compressed tile bytes — so the
// client's tile reassembly and an edge proxy's tile cache share one set
// of semantics:
// identical re-sent ranges merge silently (per-level plans are not
// monotone in the bound, so servers legitimately re-ship ranges), and
// diverging bytes fail loudly.
type sparseSource struct {
	sp *backend.Sparse
}

func newSparseSource(size int64) *sparseSource {
	return &sparseSource{sp: backend.NewSparse(size)}
}

// insert adds [off, off+len(b)) to the source, taking ownership of b.
func (s *sparseSource) insert(off int64, b []byte) error {
	return s.sp.Insert(off, b)
}

// ReadRange implements core.BlockSource over the delivered ranges.
func (s *sparseSource) ReadRange(off int64, n int) ([]byte, error) {
	return s.sp.ReadRange(off, int64(n))
}

// Size implements core.BlockSource.
func (s *sparseSource) Size() int64 { return s.sp.Size() }
