package main

import "testing"

func TestSelfTime(t *testing.T) {
	parent := span{StartNS: 100, EndNS: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{StartNS: 110, EndNS: 120}, {StartNS: 150, EndNS: 170}}, 70},
		{"overlapping children count once", []span{{StartNS: 110, EndNS: 150}, {StartNS: 140, EndNS: 160}}, 50},
		{"nested child adds nothing", []span{{StartNS: 110, EndNS: 190}, {StartNS: 120, EndNS: 130}}, 20},
		{"clipped to the parent", []span{{StartNS: 50, EndNS: 120}, {StartNS: 190, EndNS: 400}}, 70},
		{"outside the parent", []span{{StartNS: 10, EndNS: 90}, {StartNS: 200, EndNS: 300}}, 100},
		{"fully covered", []span{{StartNS: 100, EndNS: 200}}, 0},
	}
	for _, c := range cases {
		if got := selfNS(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRecorderTreesAndLayerMedians(t *testing.T) {
	r := newRecorder()
	for pass := 0; pass < 5; pass++ {
		for op := 0; op < 2; op++ {
			root := r.begin("op", -1, pass, op)
			child := r.begin("layer", root, pass, op)
			r.end(child)
			r.end(root)
			// Overwrite the clock with known durations: op 0 takes 10 us,
			// op 1 takes 30 us, and passes 1 and 3 are disturbed.
			d := int64(10_000 + 20_000*op)
			if pass%2 == 1 {
				d *= 50
			}
			r.spans[child].StartNS, r.spans[child].EndNS = 0, d
			if r.spans[child].Trace != root || r.spans[root].Trace != root {
				t.Fatalf("spans of one op do not share the root's id")
			}
		}
	}
	if got := r.perIndexUS("layer", nil); len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Errorf("perIndexUS = %v, want [10 30]", got)
	}
	if got := r.layerUS("layer", nil); got != 20 {
		t.Errorf("layerUS = %g, want 20", got)
	}
	if got := len(r.children()[0]); got != 1 {
		t.Errorf("root 0 has %d children, want 1", got)
	}
}
