package obs

import "testing"

// TestBandCheckVerdict pins the shared band logic both the post-run
// calibration table and the mid-query cardinality guards reduce to: the
// q-error is 1 inside the band, the miss ratio outside, 1-floored on both
// sides, with inverted bands normalized.
func TestBandCheckVerdict(t *testing.T) {
	cases := []struct {
		name     string
		band     BandCheck
		actual   float64
		wantQ    float64
		wantViol bool
	}{
		{"inside", BandCheck{Lo: 10, Hi: 20}, 15, 1, false},
		{"at-lo", BandCheck{Lo: 10, Hi: 20}, 10, 1, false},
		{"at-hi", BandCheck{Lo: 10, Hi: 20}, 20, 1, false},
		{"below", BandCheck{Lo: 10, Hi: 20}, 5, 2, true},
		{"above", BandCheck{Lo: 10, Hi: 20}, 80, 4, true},
		{"zero-actual-floored", BandCheck{Lo: 10, Hi: 20}, 0, 10, true},
		{"zero-band-floored", BandCheck{Lo: 0, Hi: 0}, 7, 7, true},
		{"inverted-band", BandCheck{Lo: 20, Hi: 10}, 15, 1, false},
		{"inverted-band-miss", BandCheck{Lo: 20, Hi: 10}, 40, 2, true},
		{"point-band", BandCheck{Lo: 170, Hi: 170}, 680, 4, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, viol := c.band.Verdict(c.actual)
			if q != c.wantQ || viol != c.wantViol {
				t.Errorf("Verdict(%v) = (%g, %v), want (%g, %v)",
					c.actual, q, viol, c.wantQ, c.wantViol)
			}
		})
	}
}
