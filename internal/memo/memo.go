// Package memo implements the memo structure of the Volcano optimizer
// generator's search engine: the table of optimization goals and their
// winners that turns top-down plan enumeration into dynamic programming.
//
// An optimization goal is the combination of a logical sub-query (a set of
// base relations, with selections pushed down) and a required physical
// property (§2 of the paper: "an optimization goal is the combination of a
// logical algebra expression and the desired physical properties"). In
// traditional optimizers each goal has exactly one winner; in dynamic-plan
// optimization the winner may be a *set* of mutually incomparable plans,
// materialized as a choose-plan operator. Either way, parents consume a
// single plan node per goal, which is what keeps dynamic plans DAGs with
// shared subplans rather than exponentially large trees (§3).
package memo

import (
	"fmt"

	"dynplan/internal/cost"
	"dynplan/internal/logical"
	"dynplan/internal/physical"
)

// Goal identifies one optimization sub-problem.
type Goal struct {
	Set  logical.RelSet
	Prop physical.Prop
}

// String renders the goal.
func (g Goal) String() string {
	return fmt.Sprintf("{%v, %s}", g.Set.Members(), g.Prop)
}

// Winner is the result of optimizing one goal: a single plan node — a
// concrete operator, or a choose-plan over the goal's surviving
// incomparable alternatives — together with its cost interval and output
// cardinality. Alternatives records how many plans survived pruning (1
// for a fully determined winner).
type Winner struct {
	Plan         *physical.Node
	Cost         cost.Cost
	Card         cost.Range
	Alternatives int
}

// Memo is the goal table.
type Memo struct {
	winners map[Goal]Winner
}

// New returns an empty memo.
func New() *Memo {
	return &Memo{winners: make(map[Goal]Winner)}
}

// Lookup returns the memoized winner for a goal, if present.
func (m *Memo) Lookup(g Goal) (Winner, bool) {
	w, ok := m.winners[g]
	return w, ok
}

// Store memoizes the winner for a goal.
func (m *Memo) Store(g Goal, w Winner) { m.winners[g] = w }

// Len returns the number of memoized goals.
func (m *Memo) Len() int { return len(m.winners) }

// ExtraAlternatives returns the number of plans retained beyond the first
// across all goals — the mutually incomparable (or tied) survivors that
// choose-plan operators carry into the dynamic plan. Zero for a fully
// determined (static) optimization.
func (m *Memo) ExtraAlternatives() int {
	total := 0
	for _, w := range m.winners {
		if w.Alternatives > 1 {
			total += w.Alternatives - 1
		}
	}
	return total
}
