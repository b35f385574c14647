// Package benchstats holds the order statistics the benchmark and its
// compare tool share.
package benchstats

import "sort"

// TailBeyond is how many samples must lie above the reported tail.
const TailBeyond = 10

// Median returns the median of xs (0 for none).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Tail returns the highest order statistic with at least TailBeyond
// samples strictly above it, and its percentile rank 100·(k+1)/n for
// the k-th smallest, 100·(n−10)/n without ties. With TailBeyond
// samples or fewer no statistic qualifies; Tail then clamps to the
// smallest, the one nearest to qualifying, and returns ok false. The
// clamp keeps the value continuous as n crosses TailBeyond+1, where the
// rule itself picks the smallest.
func Tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	// s[k] has n-1-k samples after it; ties with it are not "beyond",
	// so step down past equal values.
	k := n - 1 - TailBeyond
	for k >= 0 && k+1 < n && s[k] == s[k+1] {
		k--
	}
	if k < 0 {
		return s[0], 100 / float64(n), false
	}
	return s[k], 100 * float64(k+1) / float64(n), true
}

// Quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method),
// including its extrapolation at the ends of short samples.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
