package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// and the sample count it was taken from: the smallest sample with at
// least p% of the samples at or below it. xs is not modified. An empty
// input yields (0, 0).
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n
}

// beyond reports how many of n samples lie strictly above the nearest-rank
// p-th percentile: a percentile is worth reporting only with at least ten.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// median is percentile(xs, 50) without the count.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio is num/den with an explicit base: a zero base gives 0 rather than
// NaN or Inf, so a counter a workload never touches reports 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open [start, end) time range in nanoseconds relative
// to an arbitrary origin.
type interval struct{ start, end int64 }

// covered returns how much of iv the union of the given intervals covers:
// overlapping children are counted once, and the parts of a child outside
// iv are not counted at all.
func covered(iv interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := c.start, c.end
		if s < iv.start {
			s = iv.start
		}
		if e > iv.end {
			e = iv.end
		}
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, c := range clipped {
		if open && c.start <= curE {
			if c.end > curE {
				curE = c.end
			}
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = c.start, c.end, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(iv interval, children []interval) int64 {
	return (iv.end - iv.start) - covered(iv, children)
}
