package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"dynplan"
)

// adaptivePoint is one row of the §7 extension experiment: start-up
// decisions versus run-time decisions (ExecOptions.Adaptive) under
// selectivity estimation error, on a catalog whose joins grow (fan-out 5)
// so wrong decisions compound.
type adaptivePoint struct {
	relations       int
	claimed, actual float64
	// Simulated execution seconds (I/O + CPU accounted by the engine).
	startupExec, adaptiveExec float64
	// materialized counts the base subplans the adaptive run evaluated into
	// temporaries; rowsAgree is false if the two strategies returned
	// different results (they never should).
	materialized int
	rowsAgree    bool
}

// adaptiveSkew is the data skew of the experiment: a claimed selectivity ŝ
// actually qualifies ŝ^(1/4) of the rows.
const adaptiveSkew = 4

// adaptiveSeries produces the §7 series — 2/3/4-relation chains × claimed
// selectivity 0.005/0.02 — through the public API only.
func adaptiveSeries(seed int64) ([]adaptivePoint, error) {
	params := dynplan.DefaultParams()
	var points []adaptivePoint
	for _, nRels := range []int{2, 3, 4} {
		sys := dynplan.New()
		spec := dynplan.QuerySpec{}
		for i := 1; i <= nRels; i++ {
			name := fmt.Sprintf("E%d", i)
			sys.MustCreateRelation(name, 800, 512,
				dynplan.Attr{Name: "a", DomainSize: 800, BTree: true},
				dynplan.Attr{Name: "jl", DomainSize: 160, BTree: true},
				dynplan.Attr{Name: "jh", DomainSize: 160, BTree: true},
			)
			spec.Relations = append(spec.Relations, dynplan.RelSpec{
				Name: name,
				Pred: &dynplan.Pred{Attr: "a", Variable: fmt.Sprintf("v%d", i)},
			})
			if i > 1 {
				spec.Joins = append(spec.Joins, dynplan.JoinSpec{
					LeftRel: fmt.Sprintf("E%d", i-1), LeftAttr: "jh",
					RightRel: name, RightAttr: "jl",
				})
			}
		}
		q, err := sys.BuildQuery(spec)
		if err != nil {
			return nil, err
		}
		dyn, err := sys.OptimizeDynamic(q, dynplan.Uncertainty{})
		if err != nil {
			return nil, err
		}
		mod, err := dyn.Module()
		if err != nil {
			return nil, err
		}
		db := sys.OpenDatabase()
		if err := db.GenerateSkewedData(seed, adaptiveSkew, "a"); err != nil {
			return nil, err
		}
		if err := db.BuildIndexes(); err != nil {
			return nil, err
		}
		for _, claimed := range []float64{0.005, 0.02} {
			b := dynplan.Bindings{Selectivities: map[string]float64{}, MemoryPages: params.ExpectedMemory}
			for i := 1; i <= nRels; i++ {
				b.Selectivities[fmt.Sprintf("v%d", i)] = claimed
			}
			startup, err := db.Exec(context.Background(), mod, b, dynplan.ExecOptions{})
			if err != nil {
				return nil, err
			}
			adaptive, err := db.Exec(context.Background(), dyn, b, dynplan.ExecOptions{Adaptive: true})
			if err != nil {
				return nil, err
			}
			points = append(points, adaptivePoint{
				relations:    nRels,
				claimed:      claimed,
				actual:       math.Pow(claimed, 1.0/adaptiveSkew),
				startupExec:  startup.SimulatedSeconds(params),
				adaptiveExec: adaptive.SimulatedSeconds(params),
				materialized: materializations(adaptive),
				rowsAgree:    slices.Equal(canonicalRows(startup), canonicalRows(adaptive)),
			})
		}
	}
	return points, nil
}

// materializations reads the number of base subplans an adaptive run
// evaluated into temporaries off its re-optimization account.
func materializations(res *dynplan.ExecResult) int {
	if res.Reopt == nil {
		return 0
	}
	return res.Reopt.TempsCreated
}

// canonicalRows renders a result as a sorted multiset with columns in
// name order: plan switches legitimately permute columns and row order.
func canonicalRows(res *dynplan.ExecResult) []string {
	perm := make([]int, len(res.Columns))
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int { return strings.Compare(res.Columns[a], res.Columns[b]) })
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		vals := make([]int64, len(perm))
		for k, j := range perm {
			vals[k] = row[j]
		}
		out[i] = fmt.Sprint(vals)
	}
	slices.Sort(out)
	return out
}

// adaptiveReport renders the extension experiment.
func adaptiveReport(points []adaptivePoint) string {
	var b strings.Builder
	title := "Extension (§7): start-up vs run-time decisions under estimation error"
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(&b, "%-6s %9s %8s  %12s %13s %6s %6s %7s\n",
		"rels", "claimed", "actual", "startup [s]", "adaptive [s]", "ratio", "mater.", "agree")
	for _, p := range points {
		ratio := 0.0
		if p.adaptiveExec > 0 {
			ratio = p.startupExec / p.adaptiveExec
		}
		fmt.Fprintf(&b, "%-6d %9.3f %8.3f  %12.4g %13.4g %5.1fx %6d %7v\n",
			p.relations, p.claimed, p.actual, p.startupExec, p.adaptiveExec, ratio,
			p.materialized, p.rowsAgree)
	}
	return b.String()
}
