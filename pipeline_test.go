package dynplan

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dynplan/internal/obs"
)

// execCase is one reachable (target kind × Governed × Resilient × Reopt)
// combination of Database.Exec, with the stage spans a traced run of it
// must show — the participation rules of the stages table written down
// once as data.
type execCase struct {
	name   string
	target any
	o      ExecOptions
	stages string
}

// execMatrix enumerates every combination Exec accepts: the four target
// kinds under Governed × Reopt, a module additionally under Resilient
// (which requires one), plus the Adaptive dynamic plan (activated like its
// module).
func execMatrix(t *testing.T, e *obsEnv) []execCase {
	t.Helper()
	act, err := e.mod.Activate(e.binds)
	if err != nil {
		t.Fatal(err)
	}
	reopt := &ReoptPolicy{Query: e.q}
	resolved := []execCase{
		{"", nil, ExecOptions{}, "Record Run"},
		{"/governed", nil, ExecOptions{Governed: true}, "Record Admit Run"},
		{"/reopt", nil, ExecOptions{Reopt: reopt}, "Record Remedy Run"},
		{"/governed+reopt", nil, ExecOptions{Governed: true, Reopt: reopt}, "Record Admit Remedy Run"},
	}
	var cases []execCase
	for _, tgt := range []struct {
		kind   string
		target any
	}{{"plan", e.static}, {"node", e.static.Root()}, {"activation", act}} {
		for _, c := range resolved {
			cases = append(cases, execCase{tgt.kind + c.name, tgt.target, c.o, c.stages})
		}
	}
	return append(cases,
		execCase{"module", e.mod, ExecOptions{},
			"Record Activate Run"},
		execCase{"module/governed", e.mod, ExecOptions{Governed: true},
			"Record Admit Activate Run"},
		execCase{"module/resilient", e.mod, ExecOptions{Resilient: true},
			"Record Remedy Activate Run"},
		execCase{"module/governed+resilient", e.mod, ExecOptions{Governed: true, Resilient: true},
			"Record Admit Remedy Activate Run"},
		execCase{"module/reopt", e.mod, ExecOptions{Reopt: reopt},
			"Record Remedy Activate Run"},
		execCase{"module/governed+reopt", e.mod, ExecOptions{Governed: true, Reopt: reopt},
			"Record Admit Remedy Activate Run"},
		execCase{"module/resilient+reopt", e.mod, ExecOptions{Resilient: true, Reopt: reopt},
			"Record Remedy Activate Run"},
		execCase{"module/governed+resilient+reopt", e.mod, ExecOptions{Governed: true, Resilient: true, Reopt: reopt},
			"Record Admit Remedy Activate Run"},
		execCase{"plan/adaptive", e.dyn, ExecOptions{Adaptive: true},
			"Record Remedy Activate Run"},
	)
}

// TestStageParticipation pins which stages take part in every reachable
// option combination: the stage spans of a traced run, in order, must
// equal the literal list. (With a fresh catalog no guard trips, so Reopt
// wraps exactly one attempt and Activate/Run appear once; the Adaptive row
// observes each relation in an attempt of its own, so a stage is listed
// at its first span.)
func TestStageParticipation(t *testing.T) {
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{TotalPages: 1024, MaxConcurrent: 4})
	defer e.db.ClearGovernor()
	for _, tc := range execMatrix(t, e) {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.o
			o.Trace = true
			res, err := e.db.Exec(context.Background(), tc.target, e.binds, o)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, s := range spansOfKind(res.Trace, obs.SpanStage) {
				if !slices.Contains(got, s.Name) {
					got = append(got, s.Name)
				}
			}
			if strings.Join(got, " ") != tc.stages {
				t.Errorf("stage spans = %q, want %q", strings.Join(got, " "), tc.stages)
			}
		})
	}
}

// TestExecRejectsInvalidCombinations checks Exec's fail-fast typed errors
// for option/target mismatches.
func TestExecRejectsInvalidCombinations(t *testing.T) {
	e := newObsEnv(t)
	ctx := context.Background()
	cases := []struct {
		name string
		q    any
		o    ExecOptions
	}{
		{"unknown-target", 42, ExecOptions{}},
		{"nil-target", nil, ExecOptions{}},
		{"resilient-plan", e.static, ExecOptions{Resilient: true}},
		{"resilient-node", e.static.Root(), ExecOptions{Resilient: true}},
		{"dynamic-plan", e.dyn, ExecOptions{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.db.Exec(ctx, tc.q, e.binds, tc.o)
			if err == nil {
				t.Fatal("invalid combination executed")
			}
			if !errors.Is(err, ErrPipeline) {
				t.Fatalf("rejection is not typed ErrPipeline: %v", err)
			}
		})
	}
	// The dynamic-plan guard keeps its historical error text.
	if _, err := e.db.Exec(context.Background(), e.dyn, e.binds, ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "cannot execute a dynamic plan directly") {
		t.Errorf("dynamic-plan guard lost its error: %v", err)
	}
}

// TestExecPipelineDispatchAllocs pins the satellite perf guard inline:
// stage dispatch through the stack allocates nothing on the
// disabled-observatory path (the per-query execState is the caller's only
// allocation, excluded here by reusing one).
func TestExecPipelineDispatchAllocs(t *testing.T) {
	db := New().OpenDatabase()
	stubRunStage(t)
	st := &execState{db: db}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := st.exec(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("plain dispatch allocates %v objects per call, want 0", allocs)
	}
}

// stubRunStage replaces the terminal Run stage with one that returns an
// empty result, until the test or benchmark ends: what remains of st.exec
// is pure stage dispatch. (No test in this package runs in parallel, so
// swapping the row of the shared stages table is safe.)
func stubRunStage(tb testing.TB) {
	run := &stages[len(stages)-1]
	orig := run.stage
	stub := &ExecResult{}
	run.stage = func(context.Context, *execState, pipelineFunc) (*ExecResult, error) { return stub, nil }
	tb.Cleanup(func() { run.stage = orig })
}

// TestGovernedAndResilientResolveGrantIdentically is the regression
// satellite for the shared Activate stage: for the same effective memory
// grant, the governed path (grant negotiated by the broker) and the
// resilient path (grant passed directly) must resolve choose-plans to
// the same branch — including when the broker degrades the grant.
func TestGovernedAndResilientResolveGrantIdentically(t *testing.T) {
	sys, q := resilChainSystem(t, 3)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.ChoosePlanCount() == 0 {
		t.Fatal("module has no choose-plans; the scenario is vacuous")
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db := resilDatabase(t, sys)
	db.EnableObservatory() // PlanDigest identifies the resolved branch
	defer db.DisableObservatory()
	ctx := context.Background()

	cases := []struct {
		name             string
		poolPages, want  float64
		expectDegraded   bool
		expectGrantPages float64
	}{
		// Full grant: broker satisfies the request as-is.
		{"full-grant", 1024, 48, false, 48},
		// Degraded grant: the request exceeds the pool, so the broker
		// degrades to what it has and choose-plan resolution must see the
		// degraded number — on both paths.
		{"degraded-grant", 64, 256, true, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db.SetGovernor(GovernorConfig{TotalPages: tc.poolPages, MinGrantPages: 8, MaxConcurrent: 2})
			defer db.ClearGovernor()

			gov, err := db.Exec(ctx, mod, resilBindings(3, 0.4, tc.want), ExecOptions{Governed: true, Resilient: true})
			if err != nil {
				t.Fatal(err)
			}
			if gov.Admission == nil {
				t.Fatal("governed execution carries no admission stats")
			}
			if gov.Admission.Degraded != tc.expectDegraded || gov.Admission.GrantedPages != tc.expectGrantPages {
				t.Fatalf("grant = %+v, want degraded=%v granted=%v",
					gov.Admission, tc.expectDegraded, tc.expectGrantPages)
			}

			// The resilient path with the grant as its memory binding must
			// resolve to the identical plan.
			res, err := db.Exec(ctx, mod, resilBindings(3, 0.4, gov.Admission.GrantedPages), ExecOptions{Resilient: true})
			if err != nil {
				t.Fatal(err)
			}
			if gov.PlanDigest == "" || res.PlanDigest == "" {
				t.Fatal("executions carry no plan digest")
			}
			if gov.PlanDigest != res.PlanDigest {
				t.Errorf("governed grant of %v pages resolved plan %s; resilient at the same grant resolved %s",
					gov.Admission.GrantedPages, gov.PlanDigest, res.PlanDigest)
			}
			if gov.EffectiveMemoryPages != res.EffectiveMemoryPages {
				t.Errorf("effective memory differs: governed %v, resilient %v",
					gov.EffectiveMemoryPages, res.EffectiveMemoryPages)
			}
		})
	}
}

// fieldExpectation says how one ExecResult field must look after a
// successful query under one option set.
type fieldExpectation int

const (
	expectZero fieldExpectation = iota // must be the zero value
	expectSet                          // must be non-zero (non-nil, non-empty)
	expectAny                          // data-dependent; either is fine
)

// TestExecResultFieldUniformity is the field-drift satellite: every
// ExecResult field must be classified for every option set, and populated
// (or explicitly zero) accordingly. A new field without a classification row
// fails the test, so metadata can no longer drift silently between
// execution paths.
func TestExecResultFieldUniformity(t *testing.T) {
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{TotalPages: 1024, MaxConcurrent: 4})
	defer e.db.ClearGovernor()
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()
	ctx := context.Background()

	act, err := e.mod.Activate(e.binds)
	if err != nil {
		t.Fatal(err)
	}
	moduleTrace := expectAny
	if e.dyn.ChoosePlanCount() > 0 {
		moduleTrace = expectSet
	}

	runs := []struct {
		name   string
		target any
		o      ExecOptions
	}{
		{"Plan", e.static, ExecOptions{}},
		{"Node", e.static.Root(), ExecOptions{}},
		{"Activation", act, ExecOptions{}},
		{"Module", e.mod, ExecOptions{}},
		{"Resilient", e.mod, ExecOptions{Resilient: true}},
		{"Governed", e.mod, ExecOptions{Governed: true, Resilient: true}},
		{"GovernedPlan", e.static, ExecOptions{Governed: true}},
		{"Adaptive", e.dyn, ExecOptions{Adaptive: true}},
	}

	// One row per ExecResult field: the default expectation, plus per-run
	// overrides. Every field of the struct must appear here.
	expectations := map[string]struct {
		def       fieldExpectation
		overrides map[string]fieldExpectation
	}{
		"Rows":          {def: expectSet},
		"Columns":       {def: expectSet},
		"SeqPageReads":  {def: expectAny},
		"RandPageReads": {def: expectAny},
		"PageWrites":    {def: expectAny},
		"TupleOps":      {def: expectSet},
		// No faults are injected, so the resilience account must stay
		// uniformly zero — on every path, not just the plain ones.
		"Retries":              {def: expectZero},
		"BranchSwitched":       {def: expectZero},
		"FaultsAbsorbed":       {def: expectZero},
		"Backoffs":             {def: expectZero},
		"BackoffTotal":         {def: expectZero},
		"EffectiveMemoryPages": {def: expectSet},
		// Admission stats exist exactly on the stacks with an Admit stage.
		"Admission": {def: expectZero, overrides: map[string]fieldExpectation{
			"Governed": expectSet, "GovernedPlan": expectSet,
		}},
		// The observatory is enabled, so every run carries operator stats, a
		// digest, and calibration verdicts.
		"Operators":   {def: expectSet},
		"PlanDigest":  {def: expectSet},
		"Calibration": {def: expectSet},
		// Start-up decision traces ride along wherever an Activate stage ran.
		"Decisions": {def: expectZero, overrides: map[string]fieldExpectation{
			"Module": moduleTrace, "Resilient": moduleTrace, "Governed": moduleTrace, "Adaptive": moduleTrace,
		}},
		// Only the Adaptive run arms re-optimization (and observes, so its
		// account is never nil); with a fresh catalog no lazy guard would
		// trip anyway.
		"Reopt": {def: expectZero, overrides: map[string]fieldExpectation{"Adaptive": expectSet}},
		// No run here sets ExecOptions.Tenant or executes a prepared
		// statement, so the tenancy and plan-cache provenance must stay
		// uniformly zero.
		"Tenant":       {def: expectZero},
		"PlanCacheHit": {def: expectZero},
		// Tracing is off (neither EnableTracing nor ExecOptions.Trace), so
		// no run may carry a trace ID or span tree.
		"TraceID": {def: expectZero},
		"Trace":   {def: expectZero},
	}

	typ := reflect.TypeOf(ExecResult{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := expectations[typ.Field(i).Name]; !ok {
			t.Errorf("ExecResult field %q has no uniformity classification; add it to this test's table",
				typ.Field(i).Name)
		}
	}

	for _, f := range runs {
		t.Run(f.name, func(t *testing.T) {
			res, err := e.db.Exec(ctx, f.target, e.binds, f.o)
			if err != nil {
				t.Fatal(err)
			}
			v := reflect.ValueOf(*res)
			for i := 0; i < typ.NumField(); i++ {
				name := typ.Field(i).Name
				spec, ok := expectations[name]
				if !ok {
					continue // reported above
				}
				want := spec.def
				if o, ok := spec.overrides[f.name]; ok {
					want = o
				}
				isZero := v.Field(i).IsZero()
				switch want {
				case expectSet:
					if isZero {
						t.Errorf("field %s is zero; this run must populate it", name)
					}
				case expectZero:
					if !isZero {
						t.Errorf("field %s = %v; this run must leave it zero", name, v.Field(i))
					}
				}
			}
		})
	}
}

// TestExactlyOneRunRecordPerQuery is the structural recording criterion:
// every option combination adds exactly one query tally and one run record
// to the observatory per query, because only the outermost Record stage
// records.
func TestExactlyOneRunRecordPerQuery(t *testing.T) {
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{TotalPages: 1024, MaxConcurrent: 4})
	defer e.db.ClearGovernor()
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()

	for _, tc := range execMatrix(t, e) {
		t.Run(tc.name, func(t *testing.T) {
			before := e.db.MetricsSnapshot()
			beforeLog := len(e.db.RecentQueries(0))
			if _, err := e.db.Exec(context.Background(), tc.target, e.binds, tc.o); err != nil {
				t.Fatal(err)
			}
			after := e.db.MetricsSnapshot()
			if got := after.Queries - before.Queries; got != 1 {
				t.Errorf("query tally grew by %d, want exactly 1", got)
			}
			if got := len(e.db.RecentQueries(0)) - beforeLog; got != 1 {
				t.Errorf("query log grew by %d records, want exactly 1", got)
			}
			if after.Errors != before.Errors {
				t.Errorf("successful query counted as error")
			}
			if after.Executions < after.Queries {
				t.Errorf("executions=%d < queries=%d", after.Executions, after.Queries)
			}
		})
	}
}

// TestPipelineErrorRendering pins the error shape and its sentinel.
func TestPipelineErrorRendering(t *testing.T) {
	err := &PipelineError{Reason: "bad target"}
	if !strings.Contains(err.Error(), "bad target") {
		t.Errorf("error renders as %q", err.Error())
	}
	if !errors.Is(err, ErrPipeline) {
		t.Error("PipelineError does not unwrap to ErrPipeline")
	}
}

// TestConstructionPoints pins where the pipeline's collaborators may be
// constructed or armed, so no bespoke path can run a half-governed,
// half-instrumented execution beside the stage stack: each pattern may
// appear only under its allowed path prefixes. Patterns are regular
// expressions, so this file's own source never matches them.
func TestConstructionPoints(t *testing.T) {
	rules := []struct {
		what        string
		pattern     *regexp.Regexp
		allowed     []string
		testsExempt bool
	}{
		// Guards are armed and controllers built only by the Remedy stage.
		{"re-optimization controller construction", regexp.MustCompile(`reopt\.NewController`), []string{"internal/reopt/", "pipeline.go"}, true},
		{"cardinality guard arming", regexp.MustCompile(`\.Guards = `), []string{"internal/exec/", "pipeline.go"}, true},
		// One span-tree shape, one plan cache per database.
		{"tracer construction", regexp.MustCompile(`obs\.NewTrace`), []string{"internal/obs/", "pipeline.go"}, true},
		{"plan cache construction", regexp.MustCompile(`plancache\.New\(`), []string{"internal/plancache/", "pipeline.go"}, false},
		// The observatory has one writer, the pipeline entry: no layer below
		// it holds the registry, so telemetry stays one fold per query.
		{"observatory registry access", regexp.MustCompile(`obs\.Registry`), []string{"internal/obs/", "pipeline.go", "observatory.go", "database.go"}, true},
		// Exactly-one-recording is structural (the Record stage); the
		// context hack that used to suppress inner recording stays deleted.
		{"the recording-suppression hack", regexp.MustCompile("Suppress" + "Recording"), nil, false},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
	nextRule:
		for _, r := range rules {
			if r.testsExempt && strings.HasSuffix(path, "_test.go") {
				continue
			}
			for _, prefix := range r.allowed {
				if strings.HasPrefix(path, prefix) {
					continue nextRule
				}
			}
			if r.pattern.Match(src) {
				t.Errorf("%s: %s outside %v", path, r.what, r.allowed)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
