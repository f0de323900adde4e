package plan

import (
	"fmt"

	"dynplan/internal/physical"
)

// UsageFraction returns the fraction of the module's nodes that have been
// part of at least one chosen plan recorded into stats.
func (m *AccessModule) UsageFraction(stats *UsageStats) float64 {
	usage, _ := stats.snapshot(m.NodeCount())
	used := 0
	for _, c := range usage {
		if c > 0 {
			used++
		}
	}
	return float64(used) / float64(m.NodeCount())
}

// Shrink implements the self-replacement heuristic of §4: after a number
// of invocations, the access module replaces itself with one containing
// only the components that have actually been used. Choose-plan operators
// lose their never-chosen alternatives; a choose-plan left with a single
// alternative disappears entirely. The result is a new, smaller module
// with fresh usage statistics; the receiver is unchanged.
//
// The statistics come from the caller-owned accumulator the activations
// recorded into (the module itself is immutable and carries none).
//
// As the paper notes, this is a heuristic: a removed alternative might
// have been chosen under bindings that simply have not occurred yet, so a
// shrunk plan trades adaptability for start-up speed.
func (m *AccessModule) Shrink(stats *UsageStats) (*AccessModule, error) {
	p := m.prog
	usage, activations := stats.snapshot(len(p.Nodes))
	if activations == 0 {
		return nil, fmt.Errorf("plan: cannot shrink before any activation")
	}
	// Only an alternative can be dropped for disuse: the other inputs of an
	// operator are used whenever the operator is.
	unused := make([]bool, len(p.Nodes))
	for i, n := range p.Nodes {
		if n.Op == physical.ChoosePlan {
			for _, k := range p.Inputs(int32(i)) {
				unused[k] = usage[k] == 0
			}
		}
	}
	root, err := p.prune(func(i int, _ *physical.Node) bool { return unused[i] })
	if err != nil {
		return nil, fmt.Errorf("plan: used choose-plan with no used alternatives: %w", err)
	}
	return NewModule(root, 0)
}
