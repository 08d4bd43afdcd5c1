package core

// Byte-range planning for serving archives over a wire. A progressive
// archive is already its own network protocol: every fidelity a client can
// ask for is a prefix of plane blocks per level, so a server never has to
// decode anything — it computes the plan for the requested bound and ships
// the byte ranges the client is missing. This file exposes the range
// arithmetic that the store's PlanRegion and the HTTP server build on.

// Span is a byte range [Off, Off+Len) within an archive.
type Span struct {
	Off int64
	Len int64
}

// HeaderSize returns the size in bytes of the always-loaded header
// (length prefix, shape, anchors, outlier tables, per-level block sizes).
// A client that holds [0, HeaderSize()) can open the archive and plan
// retrievals; plane blocks start immediately after.
func (a *Archive) HeaderSize() int64 { return a.h.headerSize }

// PlanSpans returns the archive byte ranges a client needs to raise a
// reconstruction from plan `from` to plan `to`: for every level, the blocks
// of the planes in to.Keep beyond from.Keep. A zero-valued `from` (nil
// Keep) means the client holds nothing yet — the header span is NOT
// included even then; serve [0, HeaderSize()) alongside the first batch.
//
// Non-progressive levels are always loaded in full by any retrieval, so
// their blocks are included whenever `from` is zero-valued and never on a
// refinement. Spans arrive coarse level first (the archive's physical
// order, which is also the order a monotone refinement consumes them) with
// adjacent ranges coalesced, so a fresh client's plan typically collapses
// to a handful of contiguous reads.
func (a *Archive) PlanSpans(from, to Plan) []Span {
	fresh := from.Keep == nil
	var spans []Span
	add := func(off, n int64) {
		if n <= 0 {
			return
		}
		if len(spans) > 0 && spans[len(spans)-1].Off+spans[len(spans)-1].Len == off {
			spans[len(spans)-1].Len += n
			return
		}
		spans = append(spans, Span{Off: off, Len: n})
	}
	// Physical layout order: level L (coarsest) down to 1, MSB plane first.
	for l := a.h.levels; l >= 1; l-- {
		m := a.h.metaOf(l)
		have := 0
		if !fresh {
			have = clampKeep(from.Keep, l, m.usedPlanes)
			if l > a.h.prog {
				have = m.usedPlanes // always resident after any retrieval
			}
		}
		want := clampKeep(to.Keep, l, m.usedPlanes)
		if l > a.h.prog {
			want = m.usedPlanes
		}
		if want <= have {
			continue
		}
		add(a.h.planeSpan(l, have, want))
	}
	return spans
}

// SpanBytes sums the lengths of a span list.
func SpanBytes(spans []Span) int64 {
	var n int64
	for _, s := range spans {
		n += s.Len
	}
	return n
}

// clampKeep reads keep[l-1] defensively: missing levels count as zero,
// and a keep beyond the stored plane count is capped.
func clampKeep(keep []int, l, used int) int {
	if l-1 >= len(keep) {
		return 0
	}
	k := keep[l-1]
	if k < 0 {
		return 0
	}
	if k > used {
		return used
	}
	return k
}
