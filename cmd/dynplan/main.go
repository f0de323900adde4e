// Command dynplan optimizes, explains, activates, and executes the
// paper's experimental queries from the command line.
//
// Usage:
//
//	dynplan -query 3                          # dynamic plan for the 4-way join
//	dynplan -query 3 -mode static             # the traditional plan
//	dynplan -query 3 -sel 0.2 -mem 32         # activate and show the chosen plan
//	dynplan -query 3 -sel 0.2 -execute        # ... and run it on synthetic data
//	dynplan -query 3 -sel 0.2 -mode runtime   # what run-time optimization picks
//	dynplan -query 3 -memo                    # operator histogram of the plan
//	dynplan -sql "SELECT * FROM R1, R2 WHERE R1.a <= ?v AND R1.jh = R2.jl" -sel 0.1
//	dynplan -query 2 -save q2.mod             # compile once...
//	dynplan -load q2.mod -sel 0.3 -execute    # ...invoke many times
//
// -sel accepts one selectivity for all host variables or a comma-separated
// list, one per variable.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dynplan"
	"dynplan/internal/workload"
)

func main() {
	queryNo := flag.Int("query", 1, "paper query number (1-5)")
	sqlQuery := flag.String("sql", "", "SQL-ish query against the synthetic catalog (overrides -query)")
	mode := flag.String("mode", "dynamic", "optimization mode: dynamic, static, runtime")
	selFlag := flag.String("sel", "", "bound selectivities (single value or comma-separated per variable); enables activation")
	mem := flag.Float64("mem", 64, "memory pages available at run-time")
	memUncertain := flag.Bool("mem-uncertain", false, "model memory as uncertain at compile-time")
	execute := flag.Bool("execute", false, "execute the (chosen) plan on synthetic data")
	opCounts := flag.Bool("memo", false, "print the plan's operator inventory: how many nodes use each operator")
	seed := flag.Int64("seed", 11, "workload seed")
	saveModule := flag.String("save", "", "write the plan's access module to this file")
	loadModule := flag.String("load", "", "read the access module from this file instead of optimizing")
	flag.Parse()

	if *queryNo < 1 || *queryNo > 5 {
		fatal(fmt.Errorf("query must be 1-5"))
	}
	spec := workload.PaperQueries()[*queryNo-1]

	w := workload.New(*seed)
	sys := dynplan.New()
	for _, rel := range w.Catalog.Relations() {
		attrs := make([]dynplan.Attr, 0, len(rel.Attrs))
		for _, a := range rel.Attrs {
			attrs = append(attrs, dynplan.Attr{Name: a.Name, DomainSize: a.DomainSize, BTree: a.BTree})
		}
		sys.MustCreateRelation(rel.Name, rel.Cardinality, rel.RecordBytes, attrs...)
	}

	var q *dynplan.Query
	var err error
	if *sqlQuery != "" {
		q, err = sys.Parse(*sqlQuery)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("parsed query: %s\n\n", q)
	} else {
		qspec := dynplan.QuerySpec{}
		for i := 0; i < spec.Relations; i++ {
			qspec.Relations = append(qspec.Relations, dynplan.RelSpec{
				Name: fmt.Sprintf("R%d", i+1),
				Pred: &dynplan.Pred{Attr: workload.SelAttr, Variable: fmt.Sprintf("v%d", i+1)},
			})
		}
		for i := 1; i < spec.Relations; i++ {
			qspec.Joins = append(qspec.Joins, dynplan.JoinSpec{
				LeftRel: fmt.Sprintf("R%d", i), LeftAttr: workload.JoinHi,
				RightRel: fmt.Sprintf("R%d", i+1), RightAttr: workload.JoinLo,
			})
		}
		q, err = sys.BuildQuery(qspec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %s\n\n", spec.Name, q)
	}

	if *loadModule != "" {
		runLoadedModule(sys, *loadModule, *selFlag, *mem, *execute, *seed)
		return
	}

	var binds *dynplan.Bindings
	if *selFlag != "" {
		sels, err := parseSels(*selFlag, q.Variables())
		if err != nil {
			fatal(err)
		}
		binds = &dynplan.Bindings{Selectivities: sels, MemoryPages: *mem}
	}

	var p *dynplan.Plan
	switch *mode {
	case "dynamic":
		p, err = sys.OptimizeDynamic(q, dynplan.Uncertainty{Memory: *memUncertain})
	case "static":
		p, err = sys.OptimizeStatic(q)
	case "runtime":
		if binds == nil {
			fatal(fmt.Errorf("-mode runtime requires -sel"))
		}
		p, err = sys.OptimizeAt(q, *binds)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	if err != nil {
		fatal(err)
	}

	st := p.Stats()
	fmt.Printf("%s plan: cost %v, %d nodes, %d choose-plans, %.4g alternatives\n",
		*mode, p.Cost(), p.NodeCount(), p.ChoosePlanCount(), p.Alternatives())
	fmt.Printf("search: %d goals, %d candidates (%d pruned by bound), %v elapsed\n\n",
		st.Goals, st.Candidates, st.PrunedByBound, st.Elapsed)
	fmt.Print(p.Explain())

	if *opCounts {
		// The plan's operator inventory, not the optimizer's memo: one line
		// per physical operator the plan uses, with its node count.
		fmt.Println("\noperator inventory:")
		for op, n := range p.Root().Operators() {
			fmt.Printf("  %-20s %d\n", op, n)
		}
	}

	chosen := p.Root()
	if *saveModule != "" {
		mod, err := p.Module()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*saveModule, mod.Bytes(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\naccess module written to %s (%d bytes, %d nodes)\n",
			*saveModule, len(mod.Bytes()), mod.NodeCount())
	}
	if binds != nil && p.IsDynamic() {
		mod, err := p.Module()
		if err != nil {
			fatal(err)
		}
		act, err := mod.Activate(*binds)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nactivation: %s\nchosen plan (predicted %.4gs):\n%s",
			act, act.PredictedCost(), act.Explain())
		chosen = act.Chosen()
	}

	if *execute {
		if binds == nil {
			fatal(fmt.Errorf("-execute requires -sel"))
		}
		db := sys.OpenDatabase()
		if err := db.GenerateData(*seed + 1); err != nil {
			fatal(err)
		}
		if err := db.BuildIndexes(); err != nil {
			fatal(err)
		}
		res, err := db.Exec(context.Background(), chosen, *binds, dynplan.ExecOptions{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nexecuted: %d rows; io: %d seq reads, %d rand reads, %d writes, %d tuple ops; simulated %.4gs\n",
			len(res.Rows), res.SeqPageReads, res.RandPageReads, res.PageWrites, res.TupleOps,
			res.SimulatedSeconds(dynplan.DefaultParams()))
	}
}

// runLoadedModule activates (and optionally executes) a previously saved
// access module — the compile-once / invoke-many cycle across process
// runs.
func runLoadedModule(sys *dynplan.System, path, selFlag string, mem float64, execute bool, seed int64) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	mod, err := sys.LoadModule(raw)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded access module: %d nodes, %d bytes, variables %v\n",
		mod.NodeCount(), len(raw), mod.Variables())
	if selFlag == "" {
		fatal(fmt.Errorf("-load requires -sel to activate the module"))
	}
	sels, err := parseSels(selFlag, mod.Variables())
	if err != nil {
		fatal(err)
	}
	binds := &dynplan.Bindings{Selectivities: sels, MemoryPages: mem}
	act, err := mod.Activate(*binds)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("activation: %s\nchosen plan (predicted %.4gs):\n%s",
		act, act.PredictedCost(), act.Explain())
	if execute {
		db := sys.OpenDatabase()
		if err := db.GenerateData(seed + 1); err != nil {
			fatal(err)
		}
		if err := db.BuildIndexes(); err != nil {
			fatal(err)
		}
		res, err := db.Exec(context.Background(), act, *binds, dynplan.ExecOptions{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nexecuted: %d rows; simulated %.4gs\n",
			len(res.Rows), res.SimulatedSeconds(dynplan.DefaultParams()))
	}
}

func parseSels(s string, vars []string) (map[string]float64, error) {
	parts := strings.Split(s, ",")
	out := make(map[string]float64, len(vars))
	if len(parts) == 1 {
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("bad -sel value %q", parts[0])
		}
		for _, name := range vars {
			out[name] = v
		}
		return out, nil
	}
	if len(parts) != len(vars) {
		return nil, fmt.Errorf("-sel has %d values but the query has %d variables", len(parts), len(vars))
	}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -sel value %q", p)
		}
		out[vars[i]] = v
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dynplan:", err)
	os.Exit(1)
}
