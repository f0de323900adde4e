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
// cardinality.
type Winner struct {
	Plan *physical.Node
	Cost cost.Cost
	Card cost.Range
}

// Memo is the goal table.
type Memo struct {
	winners map[Goal]Winner
	// goals lists the stored goals, so Reset costs what the search stored
	// rather than what the table once grew to.
	goals []Goal
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
func (m *Memo) Store(g Goal, w Winner) {
	m.winners[g] = w
	m.goals = append(m.goals, g)
}

// Len returns the number of memoized goals.
func (m *Memo) Len() int { return len(m.winners) }

// Reset empties the memo, keeping its table's room for the next search.
// It deletes the stored goals one by one: clearing the table would cost
// its capacity, which a small search after a large one has not used.
func (m *Memo) Reset() {
	for _, g := range m.goals {
		delete(m.winners, g)
	}
	m.goals = m.goals[:0]
}
