// Package dynplan is a query optimizer and execution engine implementing
// dynamic query evaluation plans, a reproduction of Richard L. Cole and
// Goetz Graefe, "Optimization of Dynamic Query Evaluation Plans", SIGMOD
// 1994.
//
// Traditional optimizers assume run-time parameters — predicate
// selectivities bound to host variables, available memory — are known at
// compile-time, and produce a single static plan that can be badly
// sub-optimal when the assumptions miss. dynplan models uncertain
// parameters as intervals, acknowledges that overlapping cost intervals
// make plans incomparable at compile-time, and produces a *dynamic plan*:
// a DAG containing every potentially optimal plan, with choose-plan
// operators that select among alternatives at start-up-time, when the
// bindings are known. The chosen plan is guaranteed to be as good as the
// one full re-optimization would find — at a small fraction of the cost.
//
// # Quick start
//
//	sys := dynplan.New()
//	sys.MustCreateRelation("emp", 1000, 512,
//		dynplan.Attr{Name: "salary", DomainSize: 1000, BTree: true},
//		dynplan.Attr{Name: "dept", DomainSize: 50, BTree: true},
//	)
//	q, _ := sys.BuildQuery(dynplan.QuerySpec{
//		Relations: []dynplan.RelSpec{
//			{Name: "emp", Pred: &dynplan.Pred{Attr: "salary", Variable: "limit"}},
//		},
//	})
//	dp, _ := sys.OptimizeDynamic(q, dynplan.Uncertainty{})
//	mod, _ := dp.Module()
//	act, _ := mod.Activate(dynplan.Bindings{
//		Selectivities: map[string]float64{"limit": 0.01},
//		MemoryPages:   64,
//	})
//	fmt.Println(act.Explain()) // an index scan: few rows qualify
//
// # Execution
//
// Database.Exec is the one execution entry point: it runs a *Plan,
// *Module, *Activation, or resolved plan node under the bindings through
// one pipeline of stages, in which ExecOptions decide which stages take
// part — admission and memory grants (Governed), retrying fallback onto
// surviving alternatives (Resilient), mid-query re-optimization (Reopt,
// or Adaptive for §7's observe-before-deciding trigger of the same loop),
// tracing. Database.Prepare returns a handle whose Exec enters the same
// pipeline with a module from the shared plan cache.
//
// See the examples directory for runnable programs: quickstart (the
// paper's Figure 1 scenario), embeddedquery (Figure 2: hash-join
// build-side switching), memorypressure (uncertain memory), shrinking
// (the access-module self-shrinking heuristic of §4), adaptive (§7
// run-time decisions under selectivity estimation error), and
// schemachange (surviving DROP INDEX through choose-plan fallback).
package dynplan
