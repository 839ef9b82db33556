package main

import (
	"sort"
	"time"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the cut points Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method), which
// is what the acceptance procedure measures spreads with. It needs at
// least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// tail returns the highest percentile that still has at least ten
// samples beyond it, and which percentile that is; with twenty
// samples or fewer it falls back to the median.
func tail(v []float64) (value, pct float64) {
	n := len(v)
	if n <= 20 {
		return median(v), 50
	}
	s := sorted(v)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// trimmedMean is the mean after discarding the slowest tenth:
// interference from other tenants of the host only ever adds time.
func trimmedMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	s = s[:len(s)-len(s)/10]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
