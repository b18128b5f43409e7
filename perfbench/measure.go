package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const mb = 1 << 20

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MB (Linux reports ru_maxrss
// in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memSnap is the part of runtime.MemStats the per-layer metrics difference.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
}

func (a memSnap) allocMBSince(b memSnap) float64 {
	return float64(a.totalAlloc-b.totalAlloc) / mb
}

// median returns the middle value (the mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) with its default "exclusive" method, which is
// how the steadiness of a metric is judged. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
