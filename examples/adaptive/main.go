// Adaptive demonstrates the paper's §7 research direction, implemented in
// this repository as an extension: delaying choose-plan decisions beyond
// start-up-time into run-time by letting decision procedures *evaluate
// subplans*.
//
// The scenario: an application binds its host variables with selectivity
// estimates that are badly wrong (the data is skewed; the estimates
// assume uniformity). Start-up-time decisions trust the estimates and
// pick an index-join chain that explodes; with ExecOptions.Adaptive the
// execution pipeline's Reopt stage materializes each base input before the
// first tuple, observes its actual cardinality, corrects the estimates,
// and only then decides the joins.
package main

import (
	"context"
	"fmt"
	"log"

	"dynplan"
)

func main() {
	sys := dynplan.New()
	// High join fan-out (small join domains) makes intermediate results
	// grow along the chain — the regime where wrong join decisions hurt.
	for i := 1; i <= 4; i++ {
		sys.MustCreateRelation(fmt.Sprintf("E%d", i), 800, 512,
			dynplan.Attr{Name: "a", DomainSize: 800, BTree: true},
			dynplan.Attr{Name: "jl", DomainSize: 160, BTree: true},
			dynplan.Attr{Name: "jh", DomainSize: 160, BTree: true},
		)
	}
	spec := dynplan.QuerySpec{}
	for i := 1; i <= 4; i++ {
		spec.Relations = append(spec.Relations, dynplan.RelSpec{
			Name: fmt.Sprintf("E%d", i),
			Pred: &dynplan.Pred{Attr: "a", Variable: fmt.Sprintf("v%d", i)},
		})
	}
	for i := 1; i < 4; i++ {
		spec.Joins = append(spec.Joins, dynplan.JoinSpec{
			LeftRel: fmt.Sprintf("E%d", i), LeftAttr: "jh",
			RightRel: fmt.Sprintf("E%d", i+1), RightAttr: "jl",
		})
	}
	q, err := sys.BuildQuery(spec)
	if err != nil {
		log.Fatal(err)
	}

	dyn, err := sys.OptimizeDynamic(q, dynplan.Uncertainty{})
	if err != nil {
		log.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		log.Fatal(err)
	}

	// The data is skewed with exponent 4: a predicate claiming
	// selectivity 0.02 actually qualifies 0.02^(1/4) ≈ 0.38 of the rows.
	db := sys.OpenDatabase()
	if err := db.GenerateSkewedData(1, 4, "a"); err != nil {
		log.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		log.Fatal(err)
	}

	b := dynplan.Bindings{Selectivities: map[string]float64{}, MemoryPages: 64}
	for i := 1; i <= 4; i++ {
		b.Selectivities[fmt.Sprintf("v%d", i)] = 0.02 // badly wrong
	}
	params := dynplan.DefaultParams()

	// Start-up-time decisions trust the claims.
	act, err := mod.Activate(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("start-up choice (claims selectivity 0.02, predicts %.4gs):\n%s\n",
		act.PredictedCost(), act.Explain())
	resS, err := db.Exec(context.Background(), act, b, dynplan.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: %d rows, simulated %.4gs (%d random + %d sequential reads)\n\n",
		len(resS.Rows), resS.SimulatedSeconds(params), resS.RandPageReads, resS.SeqPageReads)

	// Run-time decisions observe before deciding. Observability is switched
	// on so the result carries the executed plan's operator tree.
	db.EnableObservability()
	resA, err := db.Exec(context.Background(), dyn, b, dynplan.ExecOptions{Adaptive: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptive run: %d subplans materialized, observed selectivities %v\n",
		resA.Reopt.TempsCreated, resA.Reopt.ObservedSelectivities)
	fmt.Printf("final plan (decided with observed cardinalities):\n%s\n", resA.ExplainAnalyze(params))
	fmt.Printf("executed: %d rows, simulated %.4gs (%d random + %d sequential reads, %d temp-page writes)\n",
		len(resA.Rows), resA.SimulatedSeconds(params), resA.RandPageReads, resA.SeqPageReads, resA.PageWrites)
	fmt.Printf("\nspeedup from run-time decisions: %.1fx\n",
		resS.SimulatedSeconds(params)/resA.SimulatedSeconds(params))
}
