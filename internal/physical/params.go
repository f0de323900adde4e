package physical

import "dynplan/internal/catalog"

// Params holds the cost-model constants. The defaults reproduce the
// experimental environment of §6 of the paper: 2,048-byte pages, a 2 MB/s
// disk, 128-byte access-module nodes, an expected memory of 64 pages with
// an uncertain range of [16, 112], and the traditional default selectivity
// of 0.05 for static optimization. The per-random-I/O and per-tuple CPU
// charges are calibrated so that query 1's file-scan/B-tree-scan trade-off
// crosses over where the paper's does (see DESIGN.md, substitutions).
type Params struct {
	// SeqPageTime is the time to read or write one page sequentially.
	SeqPageTime float64
	// RandIOTime is the time of one random page I/O, the unit charged per
	// record fetched through an unclustered B-tree.
	RandIOTime float64
	// TupleCPUTime is the CPU time to produce or consume one record.
	TupleCPUTime float64
	// CompareCPUTime is the CPU time of one predicate evaluation or key
	// comparison.
	CompareCPUTime float64
	// BtreeProbeIOs is the number of random I/Os charged per B-tree
	// descent (index interior pages are assumed mostly cached).
	BtreeProbeIOs float64

	// ChooseOverhead is the start-up expense of one choose-plan decision,
	// added to the cost interval of every dynamic (sub)plan, as in the
	// paper's example of §5 ("an overhead of [0.01, 0.01]").
	ChooseOverhead float64
	// StartupNodeTime is the simulated CPU time to evaluate one plan
	// node's cost function at start-up-time; the paper measured roughly
	// 0.4 ms per node on a DECstation 5000/125.
	StartupNodeTime float64

	// NodeBytes is the serialized size of one access-module node (§6).
	NodeBytes int
	// DiskBandwidth is the sequential transfer rate in bytes/second used
	// to convert access-module sizes into start-up I/O time (§6: 2 MB/s,
	// about 16,000 nodes per second).
	DiskBandwidth float64
	// ActivationTime is the fixed plan-activation overhead (catalog
	// validation plus one seek to reach the access module), the paper's
	// z ≈ b ≈ 0.1 s, identical for static and dynamic plans.
	ActivationTime float64

	// DefaultSelectivity is the point estimate static optimization
	// substitutes for an unbound predicate (§6: 0.05).
	DefaultSelectivity float64
	// ExpectedMemory is the point estimate of available memory in pages
	// (§6: 64 pages of 2,048 bytes).
	ExpectedMemory float64
	// MemoryLo and MemoryHi bound the uncertain-memory range (§6:
	// [16, 112] pages).
	MemoryLo, MemoryHi float64
}

// DefaultParams returns the calibrated experimental constants.
func DefaultParams() Params {
	return Params{
		SeqPageTime:        float64(catalog.PageBytes) / 2e6, // 2 MB/s
		RandIOTime:         0.0035,
		TupleCPUTime:       50e-6,
		CompareCPUTime:     10e-6,
		BtreeProbeIOs:      5,
		ChooseOverhead:     0.0004,
		StartupNodeTime:    0.0004,
		NodeBytes:          128,
		DiskBandwidth:      2e6,
		ActivationTime:     0.1,
		DefaultSelectivity: 0.05,
		ExpectedMemory:     64,
		MemoryLo:           16,
		MemoryHi:           112,
	}
}

// ModuleBytes returns the serialized size of an access module of n nodes.
func (p Params) ModuleBytes(nodes int) float64 {
	return float64(nodes * p.NodeBytes)
}

// ModuleReadTime returns the time to read an access module of n nodes
// from contiguous disk locations (§4: plans are assumed contiguous, so
// only transfer time differs between static and dynamic plans).
func (p Params) ModuleReadTime(nodes int) float64 {
	return p.ModuleBytes(nodes) / p.DiskBandwidth
}
