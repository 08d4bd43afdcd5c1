// Package metrics implements the evaluation metrics of the paper's §3.1.1:
// compression ratio, bitrate, L∞ error, MSE, and PSNR.
package metrics

import "math"

// MaxAbsError returns the L∞ norm of the difference between orig and recon —
// the paper's primary fidelity metric.
func MaxAbsError(orig, recon []float64) float64 {
	worst := 0.0
	for i := range orig {
		d := math.Abs(orig[i] - recon[i])
		if d > worst {
			worst = d
		}
	}
	return worst
}

// MSE returns the mean squared error.
func MSE(orig, recon []float64) float64 {
	if len(orig) == 0 {
		return 0
	}
	sum := 0.0
	for i := range orig {
		d := orig[i] - recon[i]
		sum += d * d
	}
	return sum / float64(len(orig))
}

// PSNR returns 20·log10(range/√MSE), the paper's §3.1.1 definition, using
// the range of the ORIGINAL data. A perfect reconstruction yields +Inf.
func PSNR(orig, recon []float64) float64 {
	mse := MSE(orig, recon)
	if mse == 0 {
		return math.Inf(1)
	}
	lo, hi := orig[0], orig[0]
	for _, v := range orig[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return 20 * math.Log10((hi-lo)/math.Sqrt(mse))
}

// CompressionRatio returns originalBytes / compressedBytes.
func CompressionRatio(originalBytes, compressedBytes int64) float64 {
	if compressedBytes == 0 {
		return math.Inf(1)
	}
	return float64(originalBytes) / float64(compressedBytes)
}

// Bitrate returns the average number of stored bits per value.
func Bitrate(compressedBytes int64, numValues int) float64 {
	if numValues == 0 {
		return 0
	}
	return float64(compressedBytes) * 8 / float64(numValues)
}
