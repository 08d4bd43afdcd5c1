package server

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/le"
)

// A retrieval token is the receipt a region response hands the client: an
// opaque, URL-safe encoding of (dataset, region, absolute bound) naming
// the fidelity the client now holds. Refinement requests echo it back and
// the server re-derives the client's loading plans from it — per-tile
// plans are a deterministic function of (archive, bound) — so refinement
// is fully stateless: no session table, any replica serving the same
// container can honor any token. Tokens are not authentication and carry
// nothing secret; a forged bound merely changes which bytes the client is
// sent.
type token struct {
	dataset string
	lo, hi  []int
	bound   float64
}

const tokenVersion = 1

var tokenEncoding = base64.RawURLEncoding

func (t *token) encode() string {
	b := append(make([]byte, 0, 4+len(t.dataset)+8*len(t.lo)+8), tokenVersion, uint8(len(t.lo)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(t.dataset)))
	b = append(b, t.dataset...)
	for _, v := range t.lo {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	for _, v := range t.hi {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return tokenEncoding.EncodeToString(le.AppendF64(b, t.bound))
}

var errMalformedToken = errors.New("malformed refine token")

func decodeToken(s string) (*token, error) {
	raw, err := tokenEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("refine token is not base64url: %w", err)
	}
	r := le.NewReader(raw, errMalformedToken)
	if ver := r.U8(); r.Err != nil || ver != tokenVersion {
		return nil, fmt.Errorf("unsupported refine token version")
	}
	rank := int(r.U8())
	if r.Err != nil || rank == 0 || rank > 16 {
		return nil, errMalformedToken
	}
	t := &token{dataset: string(r.Bytes(int(r.U16()))), lo: make([]int, rank), hi: make([]int, rank)}
	for i := range t.lo {
		t.lo[i] = int(r.U32())
	}
	for i := range t.hi {
		t.hi[i] = int(r.U32())
	}
	t.bound = r.F64()
	if r.Err != nil || r.Len() != 0 {
		return nil, errMalformedToken
	}
	if t.bound <= 0 || math.IsNaN(t.bound) || math.IsInf(t.bound, 0) {
		return nil, fmt.Errorf("refine token carries invalid bound %g", t.bound)
	}
	return t, nil
}

// matches reports whether the token certifies fidelity for exactly this
// request's dataset and region.
func (t *token) matches(dataset string, lo, hi []int) bool {
	if t.dataset != dataset || len(t.lo) != len(lo) {
		return false
	}
	for i := range lo {
		if t.lo[i] != lo[i] || t.hi[i] != hi[i] {
			return false
		}
	}
	return true
}
