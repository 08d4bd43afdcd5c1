package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMaxAbsError(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1.5, 2, 2}
	if got := MaxAbsError(a, b); got != 1 {
		t.Errorf("MaxAbsError = %v", got)
	}
	if got := MaxAbsError(a, a); got != 0 {
		t.Errorf("self error = %v", got)
	}
	if got := MaxAbsError(nil, nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestMSEAndPSNR(t *testing.T) {
	a := []float64{0, 1, 0, 1}
	b := []float64{0.1, 0.9, -0.1, 1.1}
	if got, want := MSE(a, b), 0.01; math.Abs(got-want) > 1e-12 {
		t.Errorf("MSE = %v, want %v", got, want)
	}
	// PSNR = 20 log10(range/sqrt(mse)) = 20 log10(1/0.1) = 20.
	if got := PSNR(a, b); math.Abs(got-20) > 1e-9 {
		t.Errorf("PSNR = %v, want 20", got)
	}
	if !math.IsInf(PSNR(a, a), 1) {
		t.Error("perfect reconstruction must give +Inf PSNR")
	}
}

func TestPSNRMonotoneInError(t *testing.T) {
	f := func(scale float64) bool {
		scale = math.Abs(math.Mod(scale, 10)) + 0.01
		a := []float64{0, 1, 2, 3}
		small := []float64{0.001 * scale, 1, 2, 3}
		big := []float64{0.01 * scale, 1, 2, 3}
		return PSNR(a, small) > PSNR(a, big)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompressionRatioAndBitrate(t *testing.T) {
	if got := CompressionRatio(800, 100); got != 8 {
		t.Errorf("CR = %v", got)
	}
	if !math.IsInf(CompressionRatio(100, 0), 1) {
		t.Error("zero compressed size must be +Inf")
	}
	if got := Bitrate(100, 100); got != 8 {
		t.Errorf("Bitrate = %v", got)
	}
	if got := Bitrate(100, 0); got != 0 {
		t.Errorf("Bitrate of empty = %v", got)
	}
}
