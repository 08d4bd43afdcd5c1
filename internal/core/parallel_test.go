package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1000} {
		hits := make([]int32, n)
		ParallelFor(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, h)
			}
		}
	}
}

func TestParallelForErrPropagates(t *testing.T) {
	boom := errors.New("boom")
	err := ParallelForErr(100, func(i int) error {
		if i == 37 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if err := ParallelForErr(100, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

// TestArchiveRejectsHugeHeaderLength: a crafted length prefix near 2^63
// must fail the plausibility check, not overflow it and reach make().
func TestArchiveRejectsHugeHeaderLength(t *testing.T) {
	blob := make([]byte, 64)
	for i, b := range []byte{0xF0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F} {
		blob[i] = b
	}
	if _, err := NewArchive(blob); err == nil {
		t.Error("archive with ~2^63 header length accepted")
	}
}

func TestParallelForErrFailsFast(t *testing.T) {
	// After the first index fails, workers must stop draining the queue:
	// with a single-element working set per worker, far fewer than n calls
	// should run. The exact count is scheduling-dependent, so only the
	// serial path (n small or 1 core) is pinned tightly.
	var calls atomic.Int64
	boom := errors.New("boom")
	err := ParallelForErr(100000, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if c := calls.Load(); c == 100000 {
		t.Errorf("all %d indices ran despite an early failure", c)
	}
}

// TestHelperBudgetNested nests fan-outs three deep — a Queue whose items
// run ParallelFor whose indices run ParallelForErr, the shape of a client
// fetch over the store's and core's own fan-out — from several goroutines
// at once. Nothing may deadlock (no call ever waits for a helper), every
// leaf must run exactly once, and the helpers alive at any moment, counted
// here around each helper-run leaf and read off the budget's own counter,
// must stay within GOMAXPROCS−1 however many calls compete; when all of it
// has returned, none may be left.
func TestHelperBudgetNested(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		const callers, items, outer, inner = 3, 6, 5, 7
		var leaves, overBudget atomic.Int64
		var peak atomic.Int32
		leaf := func() {
			leaves.Add(1)
			h := helpers.Load()
			for p := peak.Load(); h > p && !peak.CompareAndSwap(p, h); p = peak.Load() {
			}
			if h > int32(procs)-1 {
				overBudget.Add(1)
			}
			time.Sleep(20 * time.Microsecond) // let calls overlap
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					q := NewQueue(func(int) {
						ParallelFor(outer, func(int) {
							if err := ParallelForErr(inner, func(int) error { leaf(); return nil }); err != nil {
								t.Error(err)
							}
						})
					})
					for i := 0; i < items; i++ {
						q.Put(i)
					}
					q.Close()
				}()
			}
			wg.Wait()
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("GOMAXPROCS=%d: nested fan-out did not return", procs)
		}
		runtime.GOMAXPROCS(prev)
		if got, want := leaves.Load(), int64(callers*items*outer*inner); got != want {
			t.Errorf("GOMAXPROCS=%d: %d leaves ran, want %d", procs, got, want)
		}
		if n := overBudget.Load(); n != 0 {
			t.Errorf("GOMAXPROCS=%d: %d leaves saw more than %d helpers alive (peak %d)", procs, n, procs-1, peak.Load())
		}
		if procs == 8 && peak.Load() == 0 {
			t.Errorf("GOMAXPROCS=8: no helper was ever started")
		}
		if n := helpers.Load(); n != 0 {
			t.Errorf("GOMAXPROCS=%d: %d helper slots still taken after every call returned", procs, n)
		}
	}
}

// TestQueueWorksEveryItemOnce: items Put into a Queue are worked exactly
// once each, by helpers or by the producer, at any GOMAXPROCS.
func TestQueueWorksEveryItemOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		hits := make([]atomic.Int32, 500)
		q := NewQueue(func(i int) { hits[i].Add(1) })
		for i := range hits {
			q.Put(i)
		}
		q.Close()
		runtime.GOMAXPROCS(prev)
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("GOMAXPROCS=%d: item %d worked %d times", procs, i, h)
			}
		}
	}
}
