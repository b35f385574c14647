package main

import (
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	bound := 0.1
	lower := spec{Name: "latency_p50_ms", Better: "lower", Bound: &bound}
	seq := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i)
		}
		return xs
	}
	zip := func(a, b []float64) [][2]float64 {
		var out [][2]float64
		for i := range a {
			out = append(out, [2]float64{a[i], b[i]})
		}
		return out
	}
	cases := []struct {
		name   string
		s      spec
		parent []float64
		change []float64
		want   string
	}{
		{"every pair faster by more than the spread", lower, seq(100, 1), seq(80, 1), "better"},
		{"slower by more than the bound", lower, seq(100, 1), seq(120, 1), "worse"},
		{"same runs", lower, seq(100, 1), seq(100.5, 1), "within bound"},
		{"parent spread wider than the bound", lower, seq(100, 10), seq(101, 10), "unresolved"},
		{"no bound", spec{Name: "x", Better: "higher"}, seq(100, 1), seq(99, 1), "unresolved"},
	}
	for _, c := range cases {
		got := compare(c.s, c.parent, c.change, zip(c.parent, c.change))
		if !strings.HasPrefix(got.verdict, c.want) {
			t.Errorf("%s: verdict %q, want %s", c.name, got.verdict, c.want)
		}
	}
}
