package benchstats

import (
	"math"
	"testing"
)

func TestTailTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: Tail must sort
		}
		return xs
	}
	cases := []struct {
		n         int
		value     float64
		pct       float64
		qualified bool
	}{
		{1000, 990, 99, true},
		{100, 90, 90, true},
		{11, 1, 100.0 / 11, true},
		{10, 1, 10, false},
		{1, 1, 100, false},
	}
	for _, c := range cases {
		v, p, ok := Tail(seq(c.n))
		if v != c.value || math.Abs(p-c.pct) > 1e-9 || ok != c.qualified {
			t.Errorf("Tail of 1..%d = %v (p%v, %v), want %v (p%v, %v)", c.n, v, p, ok, c.value, c.pct, c.qualified)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < TailBeyond {
				t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
			}
		}
	}
	// Ties at the cut are not "beyond": step down past them.
	xs := append(make([]float64, 0, 30), seq(15)...)
	for i := 0; i < 15; i++ {
		xs = append(xs, 100)
	}
	if v, _, ok := Tail(xs); v != 15 || !ok {
		t.Errorf("tail with 15 tied maxima = %v (%v), want 15", v, ok)
	}
	// All tied: nothing is beyond anything.
	if v, _, ok := Tail([]float64{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}); v != 3 || ok {
		t.Errorf("tail of 12 equal samples = %v (%v), want 3 (false)", v, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
