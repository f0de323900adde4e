package main

import "testing"

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "op_p50_us", Better: lower, Bound: 0.10}
	thr := metricDef{Name: "ops_per_s", Better: higher, Bound: 0.10}
	s := func(v ...float64) *series { return &series{Values: v, Median: median(v)} }
	cases := []struct {
		def  metricDef
		a, b *series
		want string
	}{
		{lat, s(100, 101, 102), s(105, 106, 107), "ok"},
		{lat, s(100, 101, 102), s(115, 116, 117), "worse"},
		{lat, s(100, 101, 102), s(50, 51, 52), "ok"}, // better is not worse
		{thr, s(100, 101, 102), s(85, 86, 87), "worse"},
		{thr, s(100, 101, 102), s(120, 121, 122), "ok"},
		{lat, s(80, 100, 120, 140), s(115, 116, 117), "unresolved"}, // a's own spread exceeds the bound
	}
	for i, c := range cases {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}
