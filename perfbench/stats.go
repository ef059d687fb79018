package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the median of v (the mean of the two middle values for an
// even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf returns the median of one named value across per-round maps.
func medianOf(rounds []map[string]float64, name string) float64 {
	v := make([]float64, 0, len(rounds))
	for _, m := range rounds {
		v = append(v, m[name])
	}
	return median(v)
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile is the highest whole percentile that leaves at least ten of
// n operations beyond it, where n is the sample count of the fewest rounds a
// run makes. Every round runs the same operations, so a run that fits more
// rounds has more samples beyond it, and the percentile does not move with
// the number of rounds a run happens to fit.
func tailQuantile(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return math.Floor(100*float64(n-10)/float64(n)) / 100
}

// processCPU returns the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
