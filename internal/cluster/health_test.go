package cluster

import (
	"sync"
	"testing"
	"time"
)

func TestHealthEjectionAndProbe(t *testing.T) {
	now := time.Unix(0, 0)
	h := newHealthClock(3, time.Second, func() time.Time { return now })

	if !h.Healthy("p") || h.TryProbe("p") {
		t.Fatal("unknown peer should be routable, with no probe to claim")
	}
	h.Failure("p")
	h.Failure("p")
	if !h.Healthy("p") {
		t.Fatal("two failures must not eject below threshold 3")
	}
	h.Failure("p")
	if h.Healthy("p") || h.TryProbe("p") {
		t.Fatal("third consecutive failure should eject until the cooldown elapses")
	}

	// Cooldown elapses: exactly one probe gets through.
	now = now.Add(time.Second)
	if !h.TryProbe("p") {
		t.Fatal("cooldown elapsed, probe should be allowed")
	}
	if h.TryProbe("p") {
		t.Fatal("second caller should wait for the in-flight probe")
	}

	// Failed probe re-ejects immediately (no threshold accumulation).
	h.Failure("p")
	if h.Healthy("p") || h.TryProbe("p") {
		t.Fatal("failed probe should re-eject")
	}
	now = now.Add(time.Second)
	if !h.TryProbe("p") {
		t.Fatal("second cooldown elapsed, probe should be allowed again")
	}
	h.Success("p")
	if !h.Healthy("p") || h.TryProbe("p") {
		t.Fatal("successful probe should fully restore the peer")
	}

	snap := h.Snapshot()
	if ph := snap["p"]; ph.Ejected || ph.Failures != 0 || ph.Ejections != 1 {
		t.Errorf("snapshot = %+v, want closed breaker with 1 lifetime ejection", ph)
	}
}

func TestHealthTryProbe(t *testing.T) {
	now := time.Unix(0, 0)
	h := newHealthClock(2, time.Second, func() time.Time { return now })

	if h.TryProbe("p") {
		t.Fatal("routable peer must not claim a probe")
	}
	h.Failure("p")
	h.Failure("p")
	if h.Healthy("p") {
		t.Fatal("two failures at threshold 2 should eject")
	}
	if h.TryProbe("p") {
		t.Fatal("probe must wait out the cooldown")
	}
	now = now.Add(time.Second)
	if !h.TryProbe("p") {
		t.Fatal("cooldown elapsed, probe should be claimable")
	}
	if h.TryProbe("p") {
		t.Fatal("a second probe must not run while one is in flight")
	}
	if h.Healthy("p") {
		t.Fatal("an in-flight probe does not make the peer routable")
	}
	h.Success("p")
	if !h.Healthy("p") || h.TryProbe("p") {
		t.Fatal("successful probe restores routing and releases the probe slot")
	}

	// A failed probe restarts the cooldown.
	h.Failure("p")
	h.Failure("p")
	now = now.Add(time.Second)
	if !h.TryProbe("p") {
		t.Fatal("probe after second ejection")
	}
	h.Failure("p")
	if h.TryProbe("p") {
		t.Fatal("failed probe must restart the cooldown")
	}
	now = now.Add(time.Second)
	if !h.TryProbe("p") {
		t.Fatal("probe after restarted cooldown")
	}
}

func TestHealthSuccessResetsCount(t *testing.T) {
	h := NewHealth(3, time.Minute)
	h.Failure("p")
	h.Failure("p")
	h.Success("p")
	h.Failure("p")
	h.Failure("p")
	if !h.Healthy("p") {
		t.Fatal("success between failures must reset the consecutive count")
	}
}

func TestHealthConcurrent(t *testing.T) {
	h := NewHealth(2, time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				h.Healthy("p")
				h.TryProbe("p")
				h.Failure("p")
				h.Success("p")
				h.Snapshot()
			}
		}()
	}
	wg.Wait()
}
