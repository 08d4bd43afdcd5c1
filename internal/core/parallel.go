package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The bitplane blocks of an archive are mutually independent — each is
// XOR-predicted from planes above it *before* entropy coding, and entropy
// coding is per block — so the DEFLATE stage parallelizes embarrassingly.
// This file provides the fan-out helpers used by compression (encode all
// planes of a level concurrently), retrieval (decode the selected planes
// concurrently), the chunked store (compress/retrieve tiles concurrently)
// and the remote client (decode tile frames as they arrive: Queue).
// Results land in pre-sized slices by index, so the output is bit-identical
// to the serial path regardless of scheduling.
//
// One rule decides, for the whole process, whether a call may start
// goroutines: the caller's own share of the work needs no permission, and
// beyond it at most GOMAXPROCS−1 helper goroutines exist at any time,
// whoever asked for them. A slot is taken without blocking and given back
// when its helper returns, so a call nested inside another's helper (a
// tile's level passes under the store's tile fan-out, a level's plane
// decodes under a client's tile worker) finds the budget spent and runs
// inline instead of oversubscribing the cores, and picks helpers up again
// as soon as the outer call runs out of work for them. Nothing ever waits
// for a slot, so nesting cannot deadlock.

// helpers counts the live helper goroutines of the process.
var helpers atomic.Int32

// takeHelper reserves one helper slot if the budget has one free.
func takeHelper() bool {
	limit := int32(runtime.GOMAXPROCS(0)) - 1
	for {
		cur := helpers.Load()
		if cur >= limit {
			return false
		}
		if helpers.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// spawn starts fn on a helper goroutine, counted in wg, if the budget has
// a slot free, and reports whether it did.
func spawn(wg *sync.WaitGroup, fn func()) bool {
	if !takeHelper() {
		return false
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer helpers.Add(-1)
		fn()
	}()
	return true
}

// share runs work as the caller's share and on up to want helpers, and
// returns when all of them have. work must pull its items from shared
// state (an atomic cursor), since any number of copies from one to want+1
// may run.
//
// When there are helpers the caller's share runs on a goroutine as well,
// one that needs no slot because the caller does nothing but wait for it.
// A goroutine started by one that keeps running sits in its processor's
// run-next slot, which another processor takes only after a sleep that
// costs tens of microseconds — longer than a level pass of a 32³ tile. A
// second go statement moves the first goroutine to the run queue proper,
// where an idle processor finds it at once, and the waiting caller's
// processor runs the second.
func share(want int, work func()) {
	var wg sync.WaitGroup
	started := 0
	for ; started < want && spawn(&wg, work); started++ {
	}
	if started == 0 {
		work()
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// Queue runs work on items that become available one at a time — tile
// frames coming off a response body — under the same rule: the goroutine
// that Puts them is one of the workers, the others are helpers from the
// budget. Put hands an item to the helpers through a short buffer, so that
// one finishing an item finds the next already waiting, and the producer
// gets on with producing; when the buffer is full, or no helper could be
// had, the producer works the item itself. At most GOMAXPROCS items are
// in work at once, and with GOMAXPROCS=1 Put is a plain call of work.
// One goroutine owns a Queue: Put and Close are not safe for concurrent
// use.
type Queue[T any] struct {
	work    func(T)
	ch      chan T
	wg      sync.WaitGroup
	helpers int
}

// NewQueue returns a Queue that runs work on every item Put into it; work
// may run on several goroutines at once.
func NewQueue[T any](work func(T)) *Queue[T] {
	return &Queue[T]{work: work, ch: make(chan T, runtime.GOMAXPROCS(0))}
}

// Put takes one item: it returns once a helper has it or will, or once
// the caller has worked it.
func (q *Queue[T]) Put(v T) {
	// Another helper is worth asking for while items wait in the buffer.
	if (q.helpers == 0 || len(q.ch) > 0) && spawn(&q.wg, q.drain) {
		q.helpers++
	}
	if q.helpers == 0 {
		q.work(v)
		return
	}
	select {
	case q.ch <- v:
	default:
		q.work(v)
		runtime.Gosched() // as in drain
	}
}

func (q *Queue[T]) drain() {
	for v := range q.ch {
		q.work(v)
		// An item is a tile's worth of work and a queue may hold dozens:
		// between two of them anything else that became runnable gets the
		// processor, instead of after the whole response (the scheduler
		// itself would step in only after 10 ms).
		runtime.Gosched()
	}
}

// Close works off what is still buffered, together with the helpers, and
// returns when every item Put has been worked. The Queue is spent.
func (q *Queue[T]) Close() {
	close(q.ch)
	q.drain()
	q.wg.Wait()
}

// ParallelFor runs fn(i) for i in [0, n), on the caller and on as many
// helpers as the budget has free. fn must only write to per-index state.
func ParallelFor(n int, fn func(i int)) {
	if n <= 1 || helpers.Load() >= int32(runtime.GOMAXPROCS(0))-1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	share(n-1, func() {
		for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
			fn(int(i))
		}
	})
}

// maxWorkers is how many ways a call splits work that has no natural
// grain: one part per core, whether or not helpers are free right now —
// the layout must not depend on what else the process is doing.
func maxWorkers(jobs int) int {
	w := runtime.GOMAXPROCS(0)
	if jobs < w {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chunkSpan computes the chunk layout shared by every range-sharding call
// site: how many contiguous chunks [0, n) splits into (at least minChunk
// elements each, starts aligned to align, a power of two) and the chunk
// length. Callers that need per-chunk accumulators size them from the
// returned count.
func chunkSpan(n, minChunk, align int) (chunks, per int) {
	chunks = maxWorkers((n + minChunk - 1) / minChunk)
	if chunks <= 1 {
		return 1, n
	}
	per = (n + chunks - 1) / chunks
	per = (per + align - 1) &^ (align - 1)
	return (n + per - 1) / per, per
}

// parallelChunks splits [0, n) per chunkSpan and runs fn(lo, hi) through
// ParallelFor. Small inputs run inline with a single chunk, so callers
// need no serial special case.
func parallelChunks(n, minChunk, align int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks, per := chunkSpan(n, minChunk, align)
	if chunks <= 1 {
		fn(0, n)
		return
	}
	ParallelFor(chunks, func(c int) {
		lo := c * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// ParallelForErr is ParallelFor for fallible work: it returns the first
// error encountered. Once any call fails, no new index is picked up (fail
// fast); indices already in flight finish. On error the set of completed
// indices is unspecified, so callers must treat their per-index outputs as
// invalid.
func ParallelForErr(n int, fn func(i int) error) error {
	var ferr firstError
	ParallelFor(n, func(i int) {
		if !ferr.failed.Load() {
			ferr.set(fn(i))
		}
	})
	return ferr.get()
}

// firstError collects the first error from concurrent workers.
type firstError struct {
	failed atomic.Bool // set once err is; lets workers poll without the lock
	mu     sync.Mutex
	err    error
}

func (f *firstError) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
		f.failed.Store(true)
	}
	f.mu.Unlock()
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
