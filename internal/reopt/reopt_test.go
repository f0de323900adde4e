package reopt

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dynplan/internal/bindings"
	"dynplan/internal/exec"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/qerr"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/storage"
	"dynplan/internal/workload"
)

// TestReplanCanceledContext pins cancellation during re-planning: a
// canceled context aborts Replan with a typed error before any optimizer
// work runs.
func TestReplanCanceledContext(t *testing.T) {
	c := NewController(Policy{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Replan(ctx, nil)
	if err == nil || !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("Replan on canceled ctx = %v, want ErrCanceled", err)
	}
}

// TestReplanRequiresQuery pins the remedy precondition.
func TestReplanRequiresQuery(t *testing.T) {
	c := NewController(Policy{})
	if _, _, err := c.Replan(context.Background(), nil); err == nil {
		t.Fatal("Replan without a query succeeded")
	}
}

// TestDecideBudget pins the escalation ladder: within budget the
// controller prefers switch over re-plan over degrade; past MaxAttempts
// every trip degrades.
func TestDecideBudget(t *testing.T) {
	c := NewController(Policy{MaxAttempts: 1})
	v := &Violation{Op: "Sort", Rel: "R", Observed: 10, Band: obs.BandCheck{Lo: 1, Hi: 2}, QError: 5}
	if r := c.Decide(v, true, true); r != RemedySwitch {
		t.Errorf("first trip = %v, want switch", r)
	}
	if r := c.Decide(v, true, true); r != RemedyDegrade {
		t.Errorf("trip past MaxAttempts = %v, want degrade", r)
	}

	c = NewController(Policy{MaxAttempts: 3})
	if r := c.Decide(v, false, true); r != RemedyReplan {
		t.Errorf("no module = %v, want replan", r)
	}
	if r := c.Decide(v, false, false); r != RemedyDegrade {
		t.Errorf("no remedy available = %v, want degrade", r)
	}
}

// TestDecidePlanningTimeBudget pins the second budget axis: once the
// cumulative optimizer time exceeds MaxPlanningTime, trips degrade even
// with attempts to spare.
func TestDecidePlanningTimeBudget(t *testing.T) {
	c := NewController(Policy{MaxAttempts: 10, MaxPlanningTime: time.Nanosecond})
	c.planning = time.Second
	v := &Violation{Op: "Sort", Rel: "R", QError: 5}
	if r := c.Decide(v, true, true); r != RemedyDegrade {
		t.Errorf("over planning budget = %v, want degrade", r)
	}
}

// TestFinishIdempotent pins the release contract the leak audit depends
// on: however many times Finish runs, each temporary is released exactly
// once.
func TestFinishIdempotent(t *testing.T) {
	c := NewController(Policy{})
	c.temps["reopt_R"] = nil
	c.created = 1
	c.Finish()
	c.Finish()
	created, released := c.TempBalance()
	if created != 1 || released != 1 {
		t.Errorf("balance = (%d, %d), want (1, 1)", created, released)
	}
}

// TestViolationTyped pins the error taxonomy: a violation matches
// qerr.ErrCardinalityViolation through errors.Is and renders its
// attribution.
func TestViolationTyped(t *testing.T) {
	v := &Violation{Op: "Hash-Join", Rel: "R", Observed: 100, Band: obs.BandCheck{Lo: 10, Hi: 20}, QError: 5}
	if !errors.Is(v, qerr.ErrCardinalityViolation) {
		t.Error("violation does not match ErrCardinalityViolation")
	}
	msg := v.Error()
	for _, want := range []string{"Hash-Join", "R", "100"} {
		if !strings.Contains(msg, want) {
			t.Errorf("violation message %q misses %q", msg, want)
		}
	}
}

// TestAccountNilWhenIdle pins the common-case cost: a controller that
// never tripped returns a nil account.
func TestAccountNilWhenIdle(t *testing.T) {
	c := NewController(Policy{})
	if acct := c.Account(); acct != nil {
		t.Errorf("idle controller account = %+v, want nil", acct)
	}
}

// TestBaseSubplanDetection pins the decomposition both triggers rest on:
// the maximal single-relation subplans of a dynamic plan cover every
// relation of the query.
func TestBaseSubplanDetection(t *testing.T) {
	w := workload.New(25)
	dyn, err := runtimeopt.OptimizeDynamic(w.Query(3), search.Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	bases := baseSubplans(dyn.Plan)
	if len(bases) < 3 {
		t.Fatalf("found %d base subplans for a 3-relation query", len(bases))
	}
	rels := make(map[string]bool)
	for _, base := range bases {
		if !isBaseSubplan(base) {
			t.Error("non-base subplan returned")
		}
		rels[baseRelation(base)] = true
	}
	for _, r := range []string{"R1", "R2", "R3"} {
		if !rels[r] {
			t.Errorf("no base subplan covers %s", r)
		}
	}
}

// TestObserveEagerly drives the eager trigger by hand the way the Reopt
// stage does — observe, switch, re-resolve under corrected bindings,
// splice — and pins its contract: one materialization per relation, each
// raising a typed violation and recording the observed selectivity; the
// attempt budget does not apply; a lazy controller observes nothing.
func TestObserveEagerly(t *testing.T) {
	w := workload.New(22)
	store := w.LoadStoreSkewed(3)
	idx, err := w.BuildIndexes(store)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := runtimeopt.OptimizeDynamic(w.Query(3), search.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	const claimed = 0.01
	b := bindings.NewBindings(64)
	for _, v := range dyn.Plan.Variables() {
		b.BindSelectivity(v, claimed)
	}
	model := physical.NewModel(physical.DefaultParams())

	c := NewController(Policy{Eager: true, MaxAttempts: 1})
	defer c.Finish()
	db := &exec.DB{Catalog: w.Catalog, Store: store, Indexes: idx, Acc: &storage.Accountant{}, Temps: c.Temps()}
	resolve := func() *physical.Node {
		prog, err := physical.Lower(0, 0, dyn.Plan)
		if err != nil {
			t.Fatal(err)
		}
		e := prog.At(&model.P, c.CorrectBindings(b))
		chosen, _ := prog.Resolve(&model.P, &e, int32(len(prog.Nodes)-1))
		return c.Rewrite(chosen)
	}
	if err := NewController(Policy{}).Observe(db, dyn.Plan, resolve(), b); err != nil {
		t.Fatalf("lazy controller observed: %v", err)
	}
	observed := 0
	for {
		err := c.Observe(db, dyn.Plan, resolve(), b)
		if err == nil {
			break
		}
		var v *Violation
		if !errors.As(err, &v) {
			t.Fatalf("observation raised %v, want a *Violation", err)
		}
		if observed++; observed > 3 {
			t.Fatal("a relation was observed twice")
		}
		if r := c.Decide(v, true, false); r != RemedySwitch {
			t.Fatalf("observation %d remedied by %v: the attempt budget must not bound the eager trigger", observed, r)
		}
	}
	final := resolve()
	if n := final.Operators()[physical.TempScan]; observed == 0 || n != observed {
		t.Errorf("final plan reads %d temporaries after %d observations", n, observed)
	}
	if created, _ := c.TempBalance(); created != observed {
		t.Errorf("%d temporaries for %d observations", created, observed)
	}
	if db.Acc.PageWrites() == 0 {
		t.Error("materialization was not charged")
	}
	acct := c.Account()
	if len(acct.ObservedSelectivities) != observed {
		t.Errorf("%d selectivities for %d observations", len(acct.ObservedSelectivities), observed)
	}
	want := workload.ActualSelectivity(claimed, 3) // ≈ 0.215
	for v, got := range acct.ObservedSelectivities {
		if got < want*0.5 || got > want*1.5 {
			t.Errorf("%s: observed %g, want ≈%g (claimed %g)", v, got, want, claimed)
		}
	}
	// The spliced plan runs, and reads only temporaries.
	if _, _, _, err := db.Run(final, b); err != nil {
		t.Fatal(err)
	}
}

// TestRewriteKeepsObservedOrder pins the order a temporary carries: an
// access path that promised the order the temporary was filled in reads it
// as is, one that promised another order gets its Sort, and a lazily
// spooled temporary (no order) is sorted for every promise.
func TestRewriteKeepsObservedOrder(t *testing.T) {
	btree := func(attr string) *physical.Node {
		return &physical.Node{Op: physical.BtreeScan, Rel: "R", Attr: attr, BaseCard: 100, RowBytes: 512}
	}
	for _, tc := range []struct {
		order, promised string
		wantSort        bool
	}{
		{"R.a", "a", false},
		{"R.a", "jl", true},
		{"", "a", true},
	} {
		c := NewController(Policy{})
		_ = c.trip(btree("a"), bandInfo{rel: "R"}, 10, tc.order)
		got := c.Rewrite(btree(tc.promised))
		if got.Ordering() != "R."+tc.promised {
			t.Errorf("temporary in order %q for a %s scan: rewritten plan delivers %q", tc.order, tc.promised, got.Ordering())
		}
		if (got.Op == physical.Sort) != tc.wantSort {
			t.Errorf("temporary in order %q for a %s scan: rewritten to %s", tc.order, tc.promised, got.Label())
		}
	}
}
