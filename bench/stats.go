package main

import (
	"fmt"
	"sort"
)

// minSamples is the fewest samples a p99 may be taken from: at 1 000
// samples ten lie beyond the 99th percentile, and below that the figure
// is one or two outliers rather than a percentile.
const minSamples = 1000

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics. xs is left as it was.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median returns the median of xs (0 for an empty slice, so a layer a
// workload bypasses reports 0 rather than failing the run).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

// medianInPlace sorts xs and returns its median: for the timed loops,
// which may not allocate.
func medianInPlace(xs []float64) float64 {
	sort.Float64s(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// p99 returns the 99th percentile of xs, refusing when fewer than
// minSamples were taken.
func p99(xs []float64) (float64, error) {
	if len(xs) < minSamples {
		return 0, fmt.Errorf("p99 of %d samples refused: need at least %d", len(xs), minSamples)
	}
	return quantile(xs, 0.99), nil
}

// iqr returns the distance between the first and third quartile of xs.
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return quantile(xs, 0.75) - quantile(xs, 0.25)
}

// bestDecile returns the value a tenth of the way in from the better end
// of xs: the ninth decile when higher is better, the first when lower is.
// Every timed phase is cut into windows and reports this over them. On a
// shared host interference only ever slows a window down — a
// single-threaded arithmetic loop repeats within 2 % here while the median
// window of a phase full of goroutine hand-offs moves by 10-25 % from run
// to run — so the best windows are the program's own speed, and a decile
// rather than the extreme keeps one lucky window from setting the figure.
func bestDecile(xs []float64, higherBetter bool) float64 {
	if higherBetter {
		return quantile(xs, 0.9)
	}
	return quantile(xs, 0.1)
}

// windowMedians splits samples (in time order) into at most max windows of
// at least minPerWindow samples each and returns each window's median.
func windowMedians(samples []float64, max, minPerWindow int) []float64 {
	out := make([]float64, windowCount(len(samples), max, minPerWindow))
	for i := range out {
		out[i] = median(samples[i*len(samples)/len(out) : (i+1)*len(samples)/len(out)])
	}
	return out
}

// windowCount splits n samples into at most max windows of at least
// minPer each, and at least one.
func windowCount(n, max, minPer int) int {
	w := n / minPer
	if w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// windowedLatency splits samples (in due-time order) into windows of at
// least minSamples, so every window supports its own p99, and returns the
// median over windows of each window's p50 and p99, which one stalled
// window (a GC cycle, a co-tenant waking up) cannot move.
func windowedLatency(samples []float64, maxWindows int) (p50, p99v float64, err error) {
	w := windowCount(len(samples), maxWindows, minSamples)
	var p50s, p99s []float64
	for i := 0; i < w; i++ {
		win := samples[i*len(samples)/w : (i+1)*len(samples)/w]
		hi, err := p99(win)
		if err != nil {
			return 0, 0, err
		}
		p50s = append(p50s, median(win))
		p99s = append(p99s, hi)
	}
	return median(p50s), median(p99s), nil
}
