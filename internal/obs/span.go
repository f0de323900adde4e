package obs

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// OptimizerSpan is the telemetry of one optimization run: what the search
// engine enumerated, what it pruned versus kept incomparable, what the
// memo grew to, and what the produced plan looks like. It quantifies the
// search-effort story of §3 (branch-and-bound erosion under interval
// costs) and the plan-size story of Figure 6 in one machine-readable
// structure.
type OptimizerSpan struct {
	// Goals is the number of distinct optimization goals the memo holds
	// (the memo-size metric).
	Goals int `json:"goals"`
	// Candidates is the number of candidate implementations the rules
	// fired across all goals.
	Candidates int `json:"candidates"`
	// PrunedByBound, PrunedDominated, PrunedEqual, and PrunedSampled
	// decompose the candidates discarded, by mechanism.
	PrunedByBound   int `json:"pruned_by_bound"`
	PrunedDominated int `json:"pruned_dominated"`
	PrunedEqual     int `json:"pruned_equal,omitempty"`
	PrunedSampled   int `json:"pruned_sampled,omitempty"`
	// KeptIncomparable is the number of plans retained beyond the first
	// across all goals — the survivors whose cost intervals overlapped
	// (or tied) and that choose-plan operators carry to start-up-time.
	KeptIncomparable int `json:"kept_incomparable"`
	// Comparisons is the number of interval cost comparisons performed.
	Comparisons int `json:"comparisons"`
	// ChoosePlansEmitted is the number of choose-plan operators the search
	// inserted (one per goal with >1 survivor); PlanChoosePlans is how
	// many remain reachable in the final plan DAG.
	ChoosePlansEmitted int `json:"choose_plans_emitted"`
	PlanChoosePlans    int `json:"plan_choose_plans"`
	// PlanNodes is the number of distinct operator nodes in the produced
	// plan, and EncodedAlternatives the number of complete static plans it
	// encodes — Figure 6's series.
	PlanNodes           int     `json:"plan_nodes"`
	EncodedAlternatives float64 `json:"encoded_alternatives"`
	// CostLo and CostHi are the produced plan's compile-time predicted
	// cost interval — the band (§5) the calibration layer later checks
	// observed executions against.
	CostLo float64 `json:"cost_lo,omitempty"`
	CostHi float64 `json:"cost_hi,omitempty"`
	// WallNanos is the optimization wall time.
	WallNanos int64 `json:"wall_ns"`
}

// Render formats the span as a short human-readable report.
func (s *OptimizerSpan) Render() string {
	if s == nil {
		return "optimizer span: not recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "optimizer span: %s\n", time.Duration(s.WallNanos))
	fmt.Fprintf(&b, "  memo: %d goals, %d candidates, %d comparisons\n",
		s.Goals, s.Candidates, s.Comparisons)
	fmt.Fprintf(&b, "  pruned: %d by bound, %d dominated, %d equal, %d sampled; kept incomparable: %d\n",
		s.PrunedByBound, s.PrunedDominated, s.PrunedEqual, s.PrunedSampled, s.KeptIncomparable)
	fmt.Fprintf(&b, "  plan: %d nodes, %d choose-plans (%d emitted during search), %.0f alternatives encoded\n",
		s.PlanNodes, s.PlanChoosePlans, s.ChoosePlansEmitted, s.EncodedAlternatives)
	return b.String()
}

// ChoiceTrace records how one choose-plan operator was resolved at
// start-up-time: the alternatives it offered, the predicted cost of each
// under the activation's bindings (the interval endpoints collapse to
// points once host variables are bound), which one the decision procedure
// picked, and why.
type ChoiceTrace struct {
	// Operator is the choose-plan's label ("Choose-Plan (3 alternatives)").
	Operator string `json:"operator"`
	// Alternatives are the labels of the operators heading each branch, in
	// the plan's order.
	Alternatives []string `json:"alternatives"`
	// Costs are the predicted execution costs (seconds) evaluated for each
	// alternative.
	Costs []float64 `json:"costs"`
	// Picked is the index of the selected alternative.
	Picked int `json:"picked"`
	// Reason explains the selection in one line.
	Reason string `json:"reason"`
}

// AppendReason appends to b why a decision picked costs[picked]: its cost
// against the cheapest rejected branch's. Every activation explains each
// choose-plan it resolves, so reasons are appended, not formatted.
func AppendReason(b []byte, costs []float64, picked int) []byte {
	runnerUp := -1
	for i, c := range costs {
		if i != picked && (runnerUp < 0 || c < costs[runnerUp]) {
			runnerUp = i
		}
	}
	b = appendSeconds(append(b, "predicted "...), costs[picked])
	if runnerUp >= 0 {
		b = appendSeconds(append(b, " vs runner-up "...), costs[runnerUp])
	}
	return b
}

// appendSeconds appends v as fmt's "%.4gs" would print it (fmt formats
// floats through strconv too).
func appendSeconds(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', 4, 64), 's')
}

// RenderDecisions formats a start-up decision trace, one choose-plan per
// block.
func RenderDecisions(trace []ChoiceTrace) string {
	if len(trace) == 0 {
		return "start-up decisions: none (static plan)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "start-up decisions: %d choose-plan(s) resolved\n", len(trace))
	for i, t := range trace {
		fmt.Fprintf(&b, "  [%d] %s → alternative %d: %s\n", i+1, t.Operator, t.Picked+1, t.Reason)
		for j, alt := range t.Alternatives {
			mark := " "
			if j == t.Picked {
				mark = "*"
			}
			fmt.Fprintf(&b, "    %s %d. %-50s %.4gs\n", mark, j+1, alt, t.Costs[j])
		}
	}
	return b.String()
}
