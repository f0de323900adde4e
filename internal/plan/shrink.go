package plan

import (
	"fmt"

	"dynplan/internal/physical"
)

// UsageFraction returns the fraction of the module's nodes that have been
// part of at least one chosen plan recorded into stats.
func (m *AccessModule) UsageFraction(stats *UsageStats) float64 {
	if m.nodes == 0 {
		return 0
	}
	usage, _ := stats.snapshot()
	used := 0
	for _, c := range usage {
		if c > 0 {
			used++
		}
	}
	return float64(used) / float64(m.nodes)
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
	usage, activations := stats.snapshot()
	if activations == 0 {
		return nil, fmt.Errorf("plan: cannot shrink before any activation")
	}
	// Only an alternative can be dropped for disuse: the other inputs of an
	// operator are used whenever the operator is.
	unused := make(map[*physical.Node]bool)
	m.root.Walk(func(n *physical.Node) {
		if n.Op == physical.ChoosePlan {
			for _, c := range n.Children {
				unused[c] = usage[c] == 0
			}
		}
	})
	root, err := prune(m.root, func(n *physical.Node) bool { return unused[n] })
	if err != nil {
		return nil, fmt.Errorf("plan: used choose-plan with no used alternatives: %w", err)
	}
	return NewModule(root)
}
