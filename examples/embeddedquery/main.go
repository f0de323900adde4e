// Embeddedquery reproduces the paper's Figure 2: a hash join of relations
// R and S where S's size is predictable but R is filtered by an embedded
// query's host variable.
//
// Since hash joins perform much better when the smaller input builds the
// hash table, the dynamic plan keeps both join orders — and both access
// paths for R — linked by choose-plan operators. Activating the same
// access module with different host-variable bindings switches both the
// scan method and the build side, without re-optimizing.
package main

import (
	"context"
	"fmt"
	"log"

	"dynplan"
)

func main() {
	sys := dynplan.New()
	sys.MustCreateRelation("R", 1000, 512,
		dynplan.Attr{Name: "a", DomainSize: 1000, BTree: true},
		dynplan.Attr{Name: "k", DomainSize: 500, BTree: true},
	)
	sys.MustCreateRelation("S", 400, 512,
		dynplan.Attr{Name: "k", DomainSize: 500, BTree: true},
	)

	q, err := sys.BuildQuery(dynplan.QuerySpec{
		Relations: []dynplan.RelSpec{
			{Name: "R", Pred: &dynplan.Pred{Attr: "a", Variable: "v"}},
			{Name: "S"},
		},
		Joins: []dynplan.JoinSpec{
			{LeftRel: "R", LeftAttr: "k", RightRel: "S", RightAttr: "k"},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query:", q)

	dyn, err := sys.OptimizeDynamic(q, dynplan.Uncertainty{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndynamic plan (cost %v, %d nodes, %d choose-plans):\n",
		dyn.Cost(), dyn.NodeCount(), dyn.ChoosePlanCount())
	fmt.Print(dyn.Explain())

	mod, err := dyn.Module()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naccess module: %d bytes\n", len(mod.Bytes()))

	db := sys.OpenDatabase()
	if err := db.GenerateData(21); err != nil {
		log.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		log.Fatal(err)
	}

	// The embedded query runs repeatedly with different host variables;
	// each invocation activates the same module.
	for _, sel := range []float64{0.01, 0.95} {
		b := dynplan.Bindings{
			Selectivities: map[string]float64{"v": sel},
			MemoryPages:   64,
		}
		act, err := mod.Activate(b)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- σ(R) selectivity %.2f: %d decisions, predicted %.4gs ---\n",
			sel, act.Decisions(), act.PredictedCost())
		fmt.Print(act.Explain())

		res, err := db.Exec(context.Background(), act, b, dynplan.ExecOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("executed: %d rows, io: %d seq + %d rand reads, %d tuple ops\n",
			len(res.Rows), res.SeqPageReads, res.RandPageReads, res.TupleOps)

		// Compare with what full re-optimization would have picked: the
		// paper's guarantee is that the chosen plan is just as good.
		rt, err := sys.OptimizeAt(q, b)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run-time optimization predicts %.4gs — guarantee %v\n",
			rt.Cost().Lo, act.PredictedCost() <= rt.Cost().Lo+1e-9)
	}
}
