// Package reopt implements mid-query re-optimization: cardinality guards
// at materialization points, safe plan switching, and graceful degradation
// under a re-planning budget.
//
// The paper's dynamic plans defend against parameters unknown at
// compile-time; this package defends against parameters that are *wrong* at
// start-up-time — stale catalog cardinalities, skewed data under the
// uniform estimation model, applications guessing their own selectivities.
// The start-up-time choose-plan decision trusts the bound values; when the
// data disagrees, the chosen plan can be arbitrarily bad even though the
// dynamic plan still contains the right one.
//
// The remedy follows the classic mid-query re-optimization recipe
// (Kabra & DeWitt's guards, Pavlopoulou et al.'s staged switching) adapted
// to dynamic plans:
//
//  1. Guard: every materialization point (hash-join build, sort input,
//     temp-scan load) whose subtree reads exactly one base relation carries
//     the cost model's predicted cardinality band. The executor reports the
//     observed row count; a q-error beyond the tolerance trips the guard.
//  2. Spool: the rows already materialized are spooled into a temporary —
//     the work is kept, not discarded — and the observed selectivity
//     corrects the tripped predicate's binding for all later cost
//     evaluations (never for execution: predicate literals must not move).
//  3. Remedy, escalating under a budget:
//     switch — re-run the start-up decision of the surviving dynamic plan
//     under the corrected bindings and splice the temporary in place of the
//     violated base subplan;
//     re-plan — re-enter the optimizer with the temporary registered as a
//     base relation of its observed cardinality, resuming without
//     recomputing finished work;
//     degrade — budget exhausted: finish the current plan over the
//     temporary and record that re-optimization gave up.
//
// The loop has two triggers that differ only in when the observation is
// forced. The lazy trigger is the guard above: the plan runs until a
// materialization it needed anyway disagrees with the prediction. The eager
// trigger (Policy.Eager) is the paper's §7 proposal — "evaluating subplans
// as part of choose-plan decision procedures … result cardinality is known":
// before the first tuple, the cheapest access path of a base relation the
// resolved plan still scans is evaluated into a temporary (Observe), so
// every join decision is made over observed cardinalities. Both raise the
// same Violation and are remedied by the same escalation.
//
// The time axis is the caller's: a context deadline bounds a slow query,
// and the executor surfaces it as a typed qerr error.
package reopt

import (
	"context"
	"fmt"
	"maps"
	"time"

	"dynplan/internal/bindings"
	"dynplan/internal/catalog"
	"dynplan/internal/cost"
	"dynplan/internal/exec"
	"dynplan/internal/logical"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/qerr"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/storage"
)

// Policy configures mid-query re-optimization for one query.
type Policy struct {
	// Query is the logical query, required for the re-plan remedy; nil
	// restricts the controller to switch and degrade.
	Query *logical.Query
	// Config is the search configuration re-planning optimizes under.
	Config search.Config
	// Params are the cost-model constants; zero value means defaults.
	Params physical.Params

	// MaxAttempts bounds how many guard trips are remedied before the
	// controller degrades to finishing the current plan (default 2).
	MaxAttempts int
	// MaxPlanningTime bounds the cumulative optimizer time re-planning may
	// spend (default 250ms); once exceeded, further trips degrade.
	MaxPlanningTime time.Duration
	// Eager forces the observation before the first tuple (see Observe):
	// every base relation the plan scans is evaluated into a temporary and
	// the plan re-decided, one relation per attempt. The relation count
	// bounds the attempts instead of MaxAttempts.
	Eager bool

	// Trace and Span, when set, hang a "replan" span (with its planning
	// time attributed as a wait state) off the query's Remedy stage span
	// for every re-planning pass. Nil disables.
	Trace *obs.Trace
	Span  *obs.Span
}

// withDefaults fills the zero fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 2
	}
	if p.MaxPlanningTime == 0 {
		p.MaxPlanningTime = 250 * time.Millisecond
	}
	if p.Params == (physical.Params{}) {
		p.Params = physical.DefaultParams()
	}
	return p
}

// Remedy is the controller's decision after a guard trip.
type Remedy int

const (
	// RemedyDegrade finishes the current plan over the temporary.
	RemedyDegrade Remedy = iota
	// RemedySwitch re-runs the dynamic plan's start-up decision under
	// corrected bindings.
	RemedySwitch
	// RemedyReplan re-enters the optimizer with the temporary as a base
	// relation.
	RemedyReplan
)

// String names the remedy.
func (r Remedy) String() string {
	switch r {
	case RemedySwitch:
		return "switch"
	case RemedyReplan:
		return "replan"
	default:
		return "degrade"
	}
}

// Violation is the typed error a tripped cardinality guard raises. It
// unwraps to qerr.ErrCardinalityViolation, and the executor's operator
// attribution wraps it in a qerr.OpError on the way out, so callers that did
// not arm re-optimization still get a fully classified failure.
type Violation struct {
	// Node is the plan node whose materialization tripped the guard.
	Node *physical.Node
	// Op and Rel attribute the violation (operator label, base relation).
	Op, Rel string
	// Observed is the materialized row count; Band the predicted interval;
	// QError the miss factor.
	Observed int
	Band     obs.BandCheck
	QError   float64
}

// Error renders the violation.
func (v *Violation) Error() string {
	return fmt.Sprintf("cardinality guard tripped at %s [%s]: observed %d rows outside predicted [%.3g, %.3g] (q-error %.3g)",
		v.Op, v.Rel, v.Observed, v.Band.Lo, v.Band.Hi, v.QError)
}

// Unwrap classifies the violation under the qerr taxonomy.
func (v *Violation) Unwrap() error { return qerr.ErrCardinalityViolation }

// tripInfo records one tripped relation: where its rows were spooled and
// what was observed.
type tripInfo struct {
	temp     string
	observed int
	rowBytes int
	// order is the sort order the spooled rows are in ("" when the order
	// is a materialization accident, as for every lazily spooled temporary).
	order string
}

// Controller owns one query's re-optimization state: the policy and
// budget, the spooled temporaries, the per-relation trips and observed
// selectivities, and the decision trace. It is created per execution
// attempt by the pipeline's Remedy stage and must be finished exactly once
// (Finish releases the temporaries; it is idempotent). A controller has one
// owner: the goroutine that runs the query, guards included.
type Controller struct {
	pol Policy

	temps     map[string]*exec.Temp
	trips     map[string]tripInfo
	overrides map[string]float64
	events    []obs.ReoptEvent
	lastTrip  *Violation
	attempts  int
	planning  time.Duration
	created   int
	released  int
	switched  bool
	replanned bool
	degraded  bool
	finished  bool
}

// NewController returns a controller for one query execution under pol.
func NewController(pol Policy) *Controller {
	pol = pol.withDefaults()
	return &Controller{
		pol:       pol,
		temps:     make(map[string]*exec.Temp),
		trips:     make(map[string]tripInfo),
		overrides: make(map[string]float64),
	}
}

// fill copies a violation's attribution into an event.
func fill(e obs.ReoptEvent, v *Violation) obs.ReoptEvent {
	if v != nil {
		e.Op, e.Rel = v.Op, v.Rel
		e.Observed = float64(v.Observed)
		e.PredictedLo, e.PredictedHi = v.Band.Lo, v.Band.Hi
		e.QError = v.QError
	}
	return e
}

// bandInfo is one guarded node's predicted band plus the handles needed to
// correct the estimate after a trip.
type bandInfo struct {
	check    obs.BandCheck
	rel      string
	variable string
	baseCard int
}

// tolerance is the q-error a band violation must exceed to trip a guard:
// small misses are the estimation model being an estimation model, not a
// reason to abandon a running plan.
const tolerance = 2

// guard implements exec.MatGuard for one plan execution.
type guard struct {
	c     *Controller
	bands map[*physical.Node]bandInfo
	db    *exec.DB
}

// Guard returns the cardinality guard for one execution of root by db:
// every node whose subtree reads exactly one base relation (temporaries
// excluded — their cardinality is observed, hence exact) is banded with the
// cost model's predicted cardinality under b, corrected by what has been
// observed. A degraded controller returns nil: the decision to finish the
// current plan must not be re-litigated by the plan it decided to finish.
func (c *Controller) Guard(b *bindings.Bindings, root *physical.Node, db *exec.DB) (exec.MatGuard, error) {
	if c.degraded || root == nil {
		return nil, nil
	}
	prog, err := physical.Lower(0, 0, root)
	if err != nil {
		return nil, fmt.Errorf("reopt: guarding: %w", err)
	}
	e := prog.At(&c.pol.Params, c.CorrectBindings(b))
	bands := make(map[*physical.Node]bandInfo)
	// rels[i] is the single base relation node i's subtree reads, or ""
	// when the subtree is disqualified: it reads several relations, or it
	// reads a temporary (whose cardinality is observed, hence exact).
	rels := make([]string, len(prog.Nodes))
nodes:
	for i, n := range prog.Nodes {
		if n.Op == physical.TempScan {
			continue
		}
		rel := n.Rel
		for _, k := range prog.Inputs(int32(i)) {
			if rels[k] == "" || (rel != "" && rel != rels[k]) {
				continue nodes
			}
			rel = rels[k]
		}
		if rels[i] = rel; rel != "" {
			bands[n] = band(e.Card[i], n, rel)
		}
	}
	return &guard{c: c, bands: bands, db: db}, nil
}

// band is the guard of a single-relation subplan predicted to produce
// card rows.
func band(card float64, n *physical.Node, rel string) bandInfo {
	variable, baseCard := subplanScanInfo(n)
	return bandInfo{
		check:    obs.BandCheck{Lo: card, Hi: card},
		rel:      rel,
		variable: variable,
		baseCard: baseCard,
	}
}

// CheckMat is the executor's materialization hook: compare the observed
// row count against the node's band and, on a violation beyond the
// tolerance, spool the materialized rows — the work is kept — and trip.
func (g *guard) CheckMat(n *physical.Node, count int, schema exec.Schema, rows func() []storage.Row) error {
	b, ok := g.bands[n]
	if !ok {
		return nil
	}
	qe, viol := b.check.Verdict(float64(count))
	if !viol || qe <= tolerance || !g.c.armed(b.rel) {
		return nil
	}
	// Spooling is charged to the execution's account like any temporary:
	// keeping the finished work is not free, and the benchmarks must report
	// the net benefit.
	g.db.AddTemp(tempName(b.rel), schema, rows(), n.RowBytes)
	return g.c.trip(n, b, count, "")
}

// Observe is the eager trigger, run before a resolved plan's first tuple:
// while root still scans a base relation, the cheapest access path of the
// cheapest such relation — picked among the variants the dynamic plan dag
// carries for it, priced under everything observed so far — is evaluated
// by db into a temporary and tripped like a lazy guard, so the caller's
// remedy re-decides the plan around the observed cardinality. Index-join
// inners are probed, never scanned, and stay unobserved. Observe returns
// nil when the policy is lazy or nothing is left to observe.
func (c *Controller) Observe(db *exec.DB, dag, root *physical.Node, b *bindings.Bindings) error {
	if !c.pol.Eager {
		return nil
	}
	pending := make(map[string]bool)
	root.Walk(func(n *physical.Node) {
		if n.Op.IsScan() {
			pending[n.Rel] = true
		}
	})
	var variants []*physical.Node
	for _, v := range baseSubplans(dag) {
		if pending[baseRelation(v)] {
			variants = append(variants, v)
		}
	}
	prog, err := physical.Lower(0, 0, variants...)
	if err != nil {
		return fmt.Errorf("reopt: observing: %w", err)
	}
	e := prog.At(&c.pol.Params, c.CorrectBindings(b))
	best := int32(-1)
	var bestRel string
	for _, v := range variants {
		// Ties go to the first relation by name, then to its first variant.
		i, rel := prog.Index(v), baseRelation(v)
		if best < 0 || e.Cost[i] < e.Cost[best] || (e.Cost[i] == e.Cost[best] && rel < bestRel) {
			best, bestRel = i, rel
		}
	}
	if best < 0 || !c.armed(bestRel) {
		return nil
	}
	chosen, card := prog.Resolve(&c.pol.Params, &e, best)
	_, count, err := db.Materialize(tempName(bestRel), chosen, b)
	if err != nil {
		return fmt.Errorf("reopt: observing %s: %w", bestRel, err)
	}
	return c.trip(chosen, band(card, chosen, bestRel), count, chosen.Ordering())
}

// tempName names the temporary a relation's observed rows are spooled into.
func tempName(rel string) string { return "reopt_" + rel }

// armed reports whether rel may still trip. A relation that already
// tripped does not trip again — its temporary already carries the truth,
// and the plan reading it is the remedy, not a new problem.
func (c *Controller) armed(rel string) bool {
	_, dup := c.trips[rel]
	return !dup && !c.degraded && !c.finished
}

// trip records the observation of b.rel — count rows, spooled in the given
// order under tempName — corrects the relation's selectivity estimate, and
// raises the violation.
func (c *Controller) trip(n *physical.Node, b bandInfo, count int, order string) error {
	c.created++
	c.trips[b.rel] = tripInfo{temp: tempName(b.rel), observed: count, rowBytes: n.RowBytes, order: order}
	if b.variable != "" && b.baseCard > 0 {
		c.overrides[b.variable] = min(float64(count)/float64(b.baseCard), 1)
	}
	qe, _ := b.check.Verdict(float64(count))
	v := &Violation{Node: n, Op: n.Label(), Rel: b.rel, Observed: count, Band: b.check, QError: qe}
	c.lastTrip = v
	return v
}

// Decide charges one attempt against the budget and picks the remedy:
// switch when a dynamic plan survives to re-activate, re-plan when the
// logical query is available, degrade when neither — or when the budget
// (attempts or cumulative planning time) is exhausted.
func (c *Controller) Decide(v *Violation, canSwitch, canReplan bool) Remedy {
	c.attempts++
	c.events = append(c.events, fill(obs.ReoptEvent{Stage: "violation", Attempt: c.attempts}, v))
	// A relation trips at most once, so eager observation is bounded by the
	// relation count and needs no attempt budget of its own.
	if (!c.pol.Eager && c.attempts > c.pol.MaxAttempts) || c.planning > c.pol.MaxPlanningTime {
		return RemedyDegrade
	}
	if canSwitch {
		return RemedySwitch
	}
	if canReplan {
		return RemedyReplan
	}
	return RemedyDegrade
}

// NoteSwitch records that the switch remedy was taken.
func (c *Controller) NoteSwitch(v *Violation, note string) {
	c.switched = true
	c.events = append(c.events, fill(obs.ReoptEvent{Stage: "switch", Attempt: c.attempts, Note: note}, v))
}

// Replan re-enters the optimizer with every tripped relation replaced by a
// derived base relation of its observed cardinality (selection already
// applied, indexes gone — a temporary has neither), then rewrites the
// fresh plan's scans of those relations into Temp-Scans over the spooled
// rows. The finished work is resumed, not recomputed.
func (c *Controller) Replan(ctx context.Context, b *bindings.Bindings) (*physical.Node, cost.Cost, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, cost.Cost{}, fmt.Errorf("reopt: replanning aborted: %w", qerr.FromContext(context.Cause(ctx)))
	}
	if c.pol.Query == nil {
		return nil, cost.Cost{}, fmt.Errorf("reopt: replanning requires the logical query")
	}
	start := time.Now()
	var sp *obs.Span
	if c.pol.Trace != nil {
		sp = c.pol.Trace.Start(c.pol.Span, "replan", obs.SpanReplan)
	}
	dq, err := c.deriveQuery()
	if err != nil {
		sp.End()
		return nil, cost.Cost{}, err
	}
	corrected := c.CorrectBindings(b)
	res, err := runtimeopt.OptimizeRuntime(dq, corrected, c.pol.Config)
	elapsed := time.Since(start)
	sp.AddWait(obs.WaitReplanPlanning, elapsed.Nanoseconds())
	sp.End()
	c.planning += elapsed
	if err != nil {
		return nil, cost.Cost{}, fmt.Errorf("reopt: re-optimization failed: %w", err)
	}
	prog, err := physical.Lower(res.Stats.Nodes(), res.Stats.Edges(), res.Plan)
	if err != nil {
		return nil, cost.Cost{}, fmt.Errorf("reopt: re-optimized plan: %w", err)
	}
	e := prog.At(&c.pol.Params, corrected)
	chosen, _ := prog.Resolve(&c.pol.Params, &e, int32(len(prog.Nodes)-1))
	forced := c.rewriteScans(chosen)
	c.replanned = true
	c.events = append(c.events, fill(obs.ReoptEvent{
		Stage:         "replan",
		Attempt:       c.attempts,
		PlanningNanos: elapsed.Nanoseconds(),
		Note:          fmt.Sprintf("re-optimized with %d temp(s) as base relations", len(c.trips)),
	}, c.lastTrip))
	return forced, res.Cost, nil
}

// deriveQuery clones the logical query with every tripped relation replaced
// by a derived relation of the observed cardinality. The derived relation
// keeps the original name — the temporary's schema columns are qualified
// with it — but drops the selection predicate (already applied in the
// spooled rows) and the B-tree flags (a temporary has no indexes), so the
// optimizer can only plan a sequential read of the truth.
func (c *Controller) deriveQuery() (*logical.Query, error) {
	src := c.pol.Query
	dq := &logical.Query{
		Rels:  make([]logical.QRel, len(src.Rels)),
		Edges: make([]logical.JoinEdge, len(src.Edges)),
	}
	attrMap := make(map[*catalog.Attribute]*catalog.Attribute)
	for i, qr := range src.Rels {
		ti, tripped := c.trips[qr.Rel.Name]
		if !tripped {
			dq.Rels[i] = qr
			continue
		}
		attrs := make([]*catalog.Attribute, len(qr.Rel.Attrs))
		for j, a := range qr.Rel.Attrs {
			na := catalog.NewAttribute(a.Name, a.DomainSize, false)
			attrs[j] = na
			attrMap[a] = na
		}
		nr := catalog.NewRelation(qr.Rel.Name, ti.observed, qr.Rel.RecordBytes, attrs...)
		dq.Rels[i] = logical.QRel{Rel: nr}
	}
	for i, e := range src.Edges {
		ne := e
		if na, ok := attrMap[e.LeftAttr]; ok {
			ne.LeftAttr = na
		}
		if na, ok := attrMap[e.RightAttr]; ok {
			ne.RightAttr = na
		}
		dq.Edges[i] = ne
	}
	if err := dq.Validate(); err != nil {
		return nil, fmt.Errorf("reopt: derived query invalid: %w", err)
	}
	return dq, nil
}

// rewriteScans redirects every scan of a tripped relation to its
// temporary. The derived relations carry no indexes, so these scans are
// sequential and unordered; no Sort wrapping is needed here — any order
// the new plan needs it plans explicitly.
func (c *Controller) rewriteScans(root *physical.Node) *physical.Node {
	replace := make(map[*physical.Node]*physical.Node)
	root.Walk(func(n *physical.Node) {
		if !n.Op.IsScan() {
			return
		}
		if ti, ok := c.trips[n.Rel]; ok {
			replace[n] = &physical.Node{
				Op:       physical.TempScan,
				Rel:      ti.temp,
				BaseCard: ti.observed,
				RowBytes: ti.rowBytes,
			}
		}
	})
	if len(replace) == 0 {
		return root
	}
	return substitute(root, replace)
}

// Rewrite splices the temporaries into a (re-activated or degraded) plan:
// every maximal single-relation subplan over a tripped relation is replaced
// by a Temp-Scan of its spooled rows, Sort-wrapped when the subplan
// promised an order the temporary is not in — a lazily spooled temporary's
// row order is a materialization accident (hash-table flattening), an
// eagerly observed one keeps the order of the access path that filled it.
func (c *Controller) Rewrite(root *physical.Node) *physical.Node {
	if len(c.trips) == 0 || root == nil {
		return root
	}
	replace := make(map[*physical.Node]*physical.Node)
	for _, base := range baseSubplans(root) {
		ti, ok := c.trips[baseRelation(base)]
		if !ok {
			continue
		}
		scan := &physical.Node{
			Op:       physical.TempScan,
			Rel:      ti.temp,
			Attr:     ti.order,
			BaseCard: ti.observed,
			RowBytes: ti.rowBytes,
		}
		if o := base.Ordering(); o != "" && o != ti.order {
			replace[base] = &physical.Node{
				Op:       physical.Sort,
				Attr:     o,
				RowBytes: base.RowBytes,
				Children: []*physical.Node{scan},
			}
		} else {
			replace[base] = scan
		}
	}
	if len(replace) == 0 {
		return root
	}
	return substitute(root, replace)
}

// DegradeRoot commits to finishing the current plan over the temporaries:
// the budget is spent (or no remedy is possible), so guards are disarmed
// and the plan runs to completion.
func (c *Controller) DegradeRoot(root *physical.Node, note string) *physical.Node {
	rewritten := c.Rewrite(root)
	c.degraded = true
	c.events = append(c.events, fill(obs.ReoptEvent{Stage: "degrade", Attempt: c.attempts, Note: note}, c.lastTrip))
	return rewritten
}

// CorrectBindings returns b with every observed selectivity override
// applied. The result feeds cost evaluation only — start-up decisions,
// guard bands, predictions. It must never reach execution: a predicate's
// literal is selectivity × domain, and moving it would change the query's
// answer, not its plan.
func (c *Controller) CorrectBindings(b *bindings.Bindings) *bindings.Bindings {
	if len(c.overrides) == 0 {
		return b
	}
	// trip keeps every override inside [0, 1].
	nb := bindings.NewBindings(b.Memory)
	maps.Copy(nb.Sel, b.Sel)
	maps.Copy(nb.Sel, c.overrides)
	return nb
}

// Temps returns the controller's live temporaries, for the executor's temp
// namespace. The map is shared: the executor registers what a trip spools
// in it (exec.DB.AddTemp), and the next attempt's executor reads it.
func (c *Controller) Temps() map[string]*exec.Temp { return c.temps }

// Finish releases every temporary. It is idempotent — the pipeline defers
// it, and every path (success, typed error, panic recovery) must release
// exactly once.
func (c *Controller) Finish() {
	if c.finished {
		return
	}
	c.finished = true
	c.released += len(c.temps)
	clear(c.temps)
}

// Account is the per-query re-optimization summary an ExecResult carries.
type Account struct {
	// Events is the decision trace, in order.
	Events []obs.ReoptEvent `json:"events,omitempty"`
	// Attempts counts guard trips the controller remedied; Switched,
	// Replanned, and Degraded record which remedies ran.
	Attempts  int  `json:"attempts"`
	Switched  bool `json:"switched,omitempty"`
	Replanned bool `json:"replanned,omitempty"`
	Degraded  bool `json:"degraded,omitempty"`
	// TempsCreated counts the spooled temporaries; PlanningNanos the
	// cumulative optimizer time re-planning spent.
	TempsCreated  int   `json:"temps_created,omitempty"`
	PlanningNanos int64 `json:"planning_ns,omitempty"`
	// ObservedSelectivities maps the host variable of every tripped
	// relation's predicate to the selectivity actually observed in the
	// data — the corrections all later cost evaluations ran under.
	ObservedSelectivities map[string]float64 `json:"observed_selectivities,omitempty"`
}

// Account returns the controller's summary, or nil when nothing happened —
// the common case must cost an ExecResult nothing.
func (c *Controller) Account() *Account {
	if len(c.events) == 0 && c.attempts == 0 {
		return nil
	}
	return &Account{
		Events:        append([]obs.ReoptEvent(nil), c.events...),
		Attempts:      c.attempts,
		Switched:      c.switched,
		Replanned:     c.replanned,
		Degraded:      c.degraded,
		TempsCreated:  c.created,
		PlanningNanos: c.planning.Nanoseconds(),

		ObservedSelectivities: maps.Clone(c.overrides),
	}
}

// Events returns the decision trace, in order. The slice is the
// controller's own: copy it to keep it past the controller.
func (c *Controller) Events() []obs.ReoptEvent { return c.events }

// TempBalance reports the created/released tally, for leak audits.
func (c *Controller) TempBalance() (created, released int) {
	return c.created, c.released
}

// subplanScanInfo returns the host variable of the subtree's selection
// predicate (if any) and the scanned relation's unfiltered cardinality.
func subplanScanInfo(n *physical.Node) (string, int) {
	variable := ""
	baseCard := 0
	n.Walk(func(m *physical.Node) {
		if m.Var != "" {
			variable = m.Var
		}
		if m.Op.IsScan() {
			baseCard = m.BaseCard
		}
	})
	return variable, baseCard
}

// baseSubplans returns the distinct maximal subplans whose subtrees consist
// only of scans, filters, and choose-plans over a single relation — the
// units a temporary can substitute for, and the units §7 evaluates into
// one.
func baseSubplans(root *physical.Node) []*physical.Node {
	var out []*physical.Node
	seen := make(map[*physical.Node]bool)
	var walk func(n *physical.Node)
	walk = func(n *physical.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if isBaseSubplan(n) {
			out = append(out, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}

func isBaseSubplan(n *physical.Node) bool { return baseRelation(n) != "" }

// baseRelation returns the one relation n scans when n is a base subplan,
// and "" otherwise.
func baseRelation(n *physical.Node) string {
	if n.Op.IsScan() {
		return n.Rel
	}
	if n.Op != physical.Filter && n.Op != physical.ChoosePlan {
		return ""
	}
	rel := ""
	for _, c := range n.Children {
		r := baseRelation(c)
		if r == "" || (rel != "" && r != rel) {
			return ""
		}
		rel = r
	}
	return rel
}

// substitute rebuilds the DAG with the given node replacements, cloning
// only the spine above a replacement so shared subplans stay shared.
func substitute(n *physical.Node, replace map[*physical.Node]*physical.Node) *physical.Node {
	memo := make(map[*physical.Node]*physical.Node)
	var walk func(m *physical.Node) *physical.Node
	walk = func(m *physical.Node) *physical.Node {
		if r, ok := replace[m]; ok {
			return r
		}
		if r, ok := memo[m]; ok {
			return r
		}
		children := make([]*physical.Node, len(m.Children))
		changed := false
		for i, c := range m.Children {
			children[i] = walk(c)
			changed = changed || children[i] != c
		}
		r := m
		if changed {
			clone := *m
			clone.Children = children
			r = &clone
		}
		memo[m] = r
		return r
	}
	return walk(n)
}
