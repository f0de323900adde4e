package main

import (
	"math"
	"sort"
)

// The robust statistics the benchmark is built on. A workload is a fixed
// op list replayed for several passes; an op's latency is its lower
// quartile over passes, and percentiles are then taken over ops, so "p95"
// names the slow queries rather than the noisy moments.

// quantile returns the q-quantile (0 <= q <= 1) of the values by linear
// interpolation between order statistics. It sorts a copy. An empty input
// yields 0.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// opQuantile is the order statistic that stands for "the op's latency"
// among its samples, one per pass. Noise on a shared box only ever adds
// time — a stolen time slice, a neighbour on the sibling thread, a GC
// cycle that happens to overlap this op on this pass — so the upper part
// of the samples is disturbance. On allocation-heavy ops a third of the
// samples overlap a GC cycle; the median then sits where the two modes
// meet and flips between them from run to run, while the lower quartile
// sits inside the undisturbed mode (measured: README, "Why these
// statistics"). GC cost is not lost: allocs_per_op and alloc_kb_per_op
// gate it exactly.
const opQuantile = 0.25

// opLatency is one op's (or one layer call's) latency given its samples
// over passes.
func opLatency(samples []float64) float64 { return quantile(samples, opQuantile) }

// perOpLatency collapses a passes x ops latency matrix (lat[pass][op]) to
// one number per op.
func perOpLatency(lat [][]float64) []float64 {
	if len(lat) == 0 {
		return nil
	}
	out := make([]float64, len(lat[0]))
	col := make([]float64, len(lat))
	for op := range out {
		for p := range lat {
			col[p] = lat[p][op]
		}
		out[op] = opLatency(col)
	}
	return out
}

// iqrFrac is the interquartile range as a share of the median: the
// run-to-run spread measure the compare mode and the README quote.
func iqrFrac(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	return (quantile(values, 0.75) - quantile(values, 0.25)) / math.Abs(m)
}

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}
