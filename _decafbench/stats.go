package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// samples is a set of durations in nanoseconds.
type samples []int64

// pctMs returns the p-th percentile (0..100) by nearest rank, in ms.
func (s samples) pctMs(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(sorted[rank]) / 1e6
}

// tailPct returns the highest of the standard tail percentiles that
// still has at least ten samples beyond it, or 50 when even the median
// lacks them.
func tailPct(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuNow returns the process's user+system CPU time (getrusage).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
