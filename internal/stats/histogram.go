// Package stats provides data-derived statistics: equi-depth histograms
// over attribute values and the selectivity estimates they imply.
//
// The paper's prototype estimates selection selectivities from uniform
// value distributions (§6) and points at selectivity estimation error
// [IoC91, Chr84] as the remaining uncertainty source (§7). This package
// supplies the standard remedy — histograms built from the data by an
// ANALYZE pass — so that:
//
//   - literal predicates get distribution-aware estimates instead of the
//     uniform value ÷ domain ratio;
//   - the experiments can quantify how far uniform estimates drift from
//     the truth under skew, the error eager observation
//     (internal/reopt) is designed to absorb at run-time.
//
// Histograms here are equi-depth (equal row counts per bucket), the
// variant that bounds the estimation error of range predicates.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dynplan/internal/storage"
)

// Histogram is an equi-depth histogram over one integer attribute.
type Histogram struct {
	// bounds[i] is the inclusive upper bound of bucket i; buckets span
	// (bounds[i-1], bounds[i]], with the first bucket starting at Min.
	bounds []int64
	// depth is the number of rows per bucket (the last bucket may hold
	// fewer).
	depth int
	// rows is the total number of rows.
	rows int
	// Min and Max are the observed extremes.
	Min, Max int64
}

// Build constructs an equi-depth histogram with the given bucket count
// over column attrIdx of the table. Building reads the data without
// charging simulated I/O (ANALYZE runs outside the measured query path,
// like index construction).
func Build(t *storage.Table, attrIdx, buckets int) (*Histogram, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("stats: bucket count %d < 1", buckets)
	}
	values := make([]int64, 0, t.NumRows())
	for page := 0; page < t.NumPages(); page++ {
		for _, row := range t.Page(page) {
			if attrIdx < 0 || attrIdx >= len(row) {
				return nil, fmt.Errorf("stats: attribute index %d out of range for width %d", attrIdx, len(row))
			}
			values = append(values, row[attrIdx])
		}
	}
	return FromValues(values, buckets)
}

// FromValues builds the histogram from a value sample directly.
func FromValues(values []int64, buckets int) (*Histogram, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("stats: bucket count %d < 1", buckets)
	}
	if len(values) == 0 {
		return &Histogram{rows: 0}, nil
	}
	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	h := &Histogram{
		rows: len(sorted),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
	}
	h.depth = (len(sorted) + buckets - 1) / buckets
	if h.depth < 1 {
		h.depth = 1
	}
	for i := h.depth - 1; i < len(sorted); i += h.depth {
		h.bounds = append(h.bounds, sorted[i])
	}
	if h.bounds[len(h.bounds)-1] != h.Max {
		h.bounds = append(h.bounds, h.Max)
	}
	return h, nil
}

// Rows returns the number of rows the histogram describes.
func (h *Histogram) Rows() int { return h.rows }

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.bounds) }

// SelectivityLE estimates the fraction of rows with value < limit (the
// strict upper-bound form the executor's range predicates use). Within a
// bucket, values are assumed uniform — the only assumption left, and the
// reason equi-depth bounds the error by one bucket's depth.
func (h *Histogram) SelectivityLE(limit float64) float64 {
	if h.rows == 0 {
		return 0
	}
	if limit <= float64(h.Min) {
		return 0
	}
	if limit > float64(h.Max) {
		return 1
	}
	// qual is the largest integer value satisfying "value < limit".
	qual := math.Ceil(limit) - 1
	covered := 0.0
	lo := float64(h.Min) - 1 // previous bucket bound (exclusive)
	for i, hi := range h.bounds {
		depth := float64(h.bucketRows(i))
		fhi := float64(hi)
		switch {
		case qual >= fhi:
			covered += depth
		case qual <= lo:
			// bucket entirely above the limit
		default:
			// Partial bucket: integers in (lo, hi] assumed uniform.
			span := fhi - lo
			if span <= 0 {
				span = 1
			}
			covered += depth * (qual - lo) / span
		}
		lo = fhi
	}
	sel := covered / float64(h.rows)
	if sel < 0 {
		return 0
	}
	if sel > 1 {
		return 1
	}
	return sel
}

// bucketRows returns the exact number of rows in bucket i.
func (h *Histogram) bucketRows(i int) int {
	if i < len(h.bounds)-1 {
		return h.depth
	}
	rest := h.rows - h.depth*(len(h.bounds)-1)
	if rest <= 0 {
		// Happens when the max-padding bucket is empty of extra rows.
		return h.depth
	}
	return rest
}

// String renders the histogram compactly.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "histogram{rows=%d buckets=%d min=%d max=%d", h.rows, len(h.bounds), h.Min, h.Max)
	if len(h.bounds) <= 8 {
		fmt.Fprintf(&b, " bounds=%v", h.bounds)
	}
	b.WriteString("}")
	return b.String()
}

// Analyzer builds histograms for every indexed attribute of a store.
type Analyzer struct {
	// Buckets is the per-histogram bucket count (default 32).
	Buckets int
}

// Analyze builds histograms for the listed (table, attribute-index)
// pairs.
func (a Analyzer) Analyze(t *storage.Table, attrIdx int) (*Histogram, error) {
	buckets := a.Buckets
	if buckets <= 0 {
		buckets = 32
	}
	return Build(t, attrIdx, buckets)
}
