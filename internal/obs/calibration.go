package obs

// Interval calibration is the observatory's feedback loop on the paper's
// central object. The optimizer plans over cost and cardinality
// *intervals* (§5): a plan is only correct to keep if the true run-time
// figure actually lands inside its predicted [lo, hi] band. This file
// checks exactly that at the close of each metered execution — each
// operator's predicted cardinality interval against its observed row
// count, and the plan's predicted cost interval against the observed
// simulated cost — and reduces each comparison to the two standard
// calibration verdicts: the q-error (multiplicative miss factor) and the
// interval-violation bit (actual strictly outside the band).

// Prediction is the compile-time interval attached to a plan node: the
// cost model's predicted output-cardinality band, evaluated under the
// activation's bindings.
type Prediction struct {
	CardLo float64 `json:"card_lo"`
	CardHi float64 `json:"card_hi"`
}

// CalibrationVerdict is one predicted-vs-actual comparison: a cardinality
// check on a single operator, or the cost check on the whole plan.
type CalibrationVerdict struct {
	// Kind is "cardinality" for per-operator row-count checks and "cost"
	// for the plan-level simulated-cost check.
	Kind string `json:"kind"`
	// Op and Label identify the operator; Rel names the base relation it
	// reads, when it reads one — the handle that lets the observatory pin
	// a stale catalog entry to the relation that caused it.
	Op    string `json:"op"`
	Rel   string `json:"rel,omitempty"`
	Label string `json:"label,omitempty"`
	// PredictedLo and PredictedHi are the interval the optimizer promised;
	// Actual is what the execution observed.
	PredictedLo float64 `json:"predicted_lo"`
	PredictedHi float64 `json:"predicted_hi"`
	Actual      float64 `json:"actual"`
	// QError is the multiplicative factor by which Actual missed the
	// interval: 1 when inside, max(lo,1)/max(a,1) below, max(a,1)/max(hi,1)
	// above (1-floored so empty results don't divide by zero).
	QError float64 `json:"q_error"`
	// Violation is true when Actual fell strictly outside [lo, hi] — the
	// paper's correctness condition for keeping the plan is broken.
	Violation bool `json:"violation"`
}

// BandCheck is a predicted [Lo, Hi] interval together with the verdict
// logic every band comparison in the system shares: the post-run
// calibration table and the mid-query cardinality guards (internal/reopt)
// both reduce predicted-vs-actual to Verdict, so the two layers cannot
// drift apart on what counts as a violation or how badly an actual missed.
type BandCheck struct {
	Lo, Hi float64
}

// Verdict computes the interval q-error and violation bit for an actual
// value against the band, 1-flooring both sides so zero-row operators and
// zero-cost intervals stay finite: q-error is 1 when actual lands inside
// [Lo, Hi], max(Lo,1)/max(actual,1) below, max(actual,1)/max(Hi,1) above.
// An inverted band is normalized first.
func (b BandCheck) Verdict(actual float64) (qerror float64, violation bool) {
	lo, hi := b.Lo, b.Hi
	if lo > hi {
		lo, hi = hi, lo
	}
	floor := func(v float64) float64 {
		if v < 1 {
			return 1
		}
		return v
	}
	switch {
	case actual < lo:
		return floor(lo) / floor(actual), true
	case actual > hi:
		return floor(actual) / floor(hi), true
	default:
		return 1, false
	}
}

// Calibrate walks an execution's stats tree and produces the calibration
// verdicts: one cardinality verdict per distinct operator carrying a
// Prediction (also annotating the node's QError/Violation fields, so
// EXPLAIN ANALYZE can render them), plus one plan-level cost verdict when
// a predicted cost interval is supplied (planHi > 0). actualCost is the
// execution's observed simulated cost in seconds. Nil-safe on a nil tree.
func Calibrate(tree *PlanStats, planLo, planHi, actualCost float64) []CalibrationVerdict {
	if tree == nil {
		return nil
	}
	// At most one verdict per distinct node plus the plan's: sized once.
	verdicts := make([]CalibrationVerdict, 0, tree.NodeCount()+1)
	seen := make(map[*PlanStats]bool)
	var walk func(s *PlanStats)
	walk = func(s *PlanStats) {
		if seen[s] {
			return
		}
		seen[s] = true
		if p := s.Predicted; p != nil {
			qe, viol := BandCheck{Lo: p.CardLo, Hi: p.CardHi}.Verdict(float64(s.Counters.Rows))
			s.QError = qe
			s.Violation = viol
			verdicts = append(verdicts, CalibrationVerdict{
				Kind:        "cardinality",
				Op:          s.Op,
				Rel:         s.Rel,
				Label:       s.Label,
				PredictedLo: p.CardLo,
				PredictedHi: p.CardHi,
				Actual:      float64(s.Counters.Rows),
				QError:      qe,
				Violation:   viol,
			})
		}
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	walk(tree)
	if planHi > 0 {
		qe, viol := BandCheck{Lo: planLo, Hi: planHi}.Verdict(actualCost)
		verdicts = append(verdicts, CalibrationVerdict{
			Kind:        "cost",
			Op:          tree.Op,
			Label:       "plan",
			PredictedLo: planLo,
			PredictedHi: planHi,
			Actual:      actualCost,
			QError:      qe,
			Violation:   viol,
		})
	}
	return verdicts
}

// calibKey identifies a calibration aggregate: the verdict kind, the
// operator, and the relation it reads.
type calibKey struct {
	Kind string
	Op   string
	Rel  string
}

// CalibrationReport is the workload-level aggregate of the verdicts for
// one (kind, operator, relation) key — how often the optimizer's interval
// held and how badly it missed when it didn't.
type CalibrationReport struct {
	Kind string `json:"kind"`
	Op   string `json:"op"`
	Rel  string `json:"rel,omitempty"`
	// Observations counts verdicts folded in; Violations the subset whose
	// actual fell outside the predicted band.
	Observations int64 `json:"observations"`
	Violations   int64 `json:"violations"`
	// MaxQError and SumQError summarize the miss magnitude; LastActual and
	// the last predicted band give the most recent concrete data point.
	MaxQError float64 `json:"max_q_error"`
	SumQError float64 `json:"sum_q_error"`
	LastLo    float64 `json:"last_predicted_lo"`
	LastHi    float64 `json:"last_predicted_hi"`
	LastQ     float64 `json:"last_q_error"`
	LastVal   float64 `json:"last_actual"`
}

// observe folds one verdict into the report.
func (r *CalibrationReport) observe(v CalibrationVerdict) {
	r.Observations++
	if v.Violation {
		r.Violations++
	}
	if v.QError > r.MaxQError {
		r.MaxQError = v.QError
	}
	r.SumQError += v.QError
	r.LastLo = v.PredictedLo
	r.LastHi = v.PredictedHi
	r.LastQ = v.QError
	r.LastVal = v.Actual
}

// ViolationRate returns the fraction of observations that violated their
// interval.
func (r CalibrationReport) ViolationRate() float64 {
	if r.Observations == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Observations)
}
