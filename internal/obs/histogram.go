package obs

import (
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Histogram is one fixed-ladder latency series, the only histogram in the
// program: ipcomp_request_seconds and ipcomp_stage_seconds are both made
// of it. A fixed ladder keeps an observation to one pass over the bounds
// plus three atomic adds, with no allocation. Buckets store
// non-cumulative counts; Render accumulates them into the cumulative
// le-labeled form the Prometheus exposition requires.
type Histogram struct {
	ladder   []float64      // bucket upper bounds in seconds, ascending
	buckets  []atomic.Int64 // one per bound, then the observations beyond the last (+Inf)
	count    atomic.Int64
	sumNanos atomic.Int64
}

// NewHistogram builds a histogram over the given upper bounds (seconds,
// ascending); the +Inf bucket is implicit.
func NewHistogram(ladder []float64) *Histogram {
	return &Histogram{ladder: ladder, buckets: make([]atomic.Int64, len(ladder)+1)}
}

// Observe counts one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(h.ladder) && s > h.ladder[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// Render appends the series' _bucket, _sum and _count lines in Prometheus
// text exposition format under the given family name and label set. A
// series never observed is omitted, so an idle server's scrape stays
// small; Prometheus treats absent series as zero.
func (h *Histogram) Render(b *strings.Builder, family, labels string) {
	count := h.count.Load()
	if count == 0 {
		return
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.ladder) {
			le = strconv.FormatFloat(h.ladder[i], 'g', -1, 64)
		}
		b.WriteString(family + `_bucket{` + labels + `,le="` + le + `"} ` + strconv.FormatInt(cum, 10) + "\n")
	}
	b.WriteString(family + `_sum{` + labels + `} ` + strconv.FormatFloat(float64(h.sumNanos.Load())/1e9, 'g', -1, 64) + "\n")
	b.WriteString(family + `_count{` + labels + `} ` + strconv.FormatInt(count, 10) + "\n")
}
