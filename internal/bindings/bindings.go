// Package bindings models the run-time parameters that traditional
// optimizers assume are known at compile-time: the values of host variables
// in embedded-query predicates and the amount of memory available to the
// query. Dynamic-plan optimization (Cole & Graefe, SIGMOD 1994) treats
// these as unbound at compile-time — described only by ranges — and
// instantiates them at start-up-time, when choose-plan operators evaluate
// cost functions with the actual values.
package bindings

import (
	"fmt"
	"math/rand"
	"sort"

	"dynplan/internal/cost"
)

// Env is the optimizer's view of the cost-model parameters. Each entry of
// Sel is the selectivity range of one host variable; Memory is the range of
// available memory in pages. Points model bound parameters, non-degenerate
// ranges model parameters unknown until start-up.
//
// Three standard environments occur in practice:
//   - compile-time dynamic: Sel[v] = [0, 1], Memory = [16, 112] or a point;
//   - compile-time static: Sel[v] = the traditional default (0.05),
//     Memory = the expected value (64 pages);
//   - start-up: every range a point taken from a Bindings value.
type Env struct {
	Sel    map[string]cost.Range
	Memory cost.Range
}

// NewEnv returns an environment with no variables and the given memory.
func NewEnv(memory cost.Range) *Env {
	return &Env{Sel: make(map[string]cost.Range), Memory: memory}
}

// Selectivity returns the selectivity range for a host variable. Unknown
// variables get the full range [0, 1]: a variable never mentioned to the
// optimizer is maximally uncertain.
func (e *Env) Selectivity(variable string) cost.Range {
	if e == nil || e.Sel == nil {
		return cost.NewRange(0, 1)
	}
	if r, ok := e.Sel[variable]; ok {
		return r
	}
	return cost.NewRange(0, 1)
}

// Bind sets the selectivity range of one variable and returns the
// environment for chaining.
func (e *Env) Bind(variable string, r cost.Range) *Env {
	if e.Sel == nil {
		e.Sel = make(map[string]cost.Range)
	}
	e.Sel[variable] = r
	return e
}

// Vars returns the variable names in sorted order, for deterministic
// iteration.
func (e *Env) Vars() []string {
	vars := make([]string, 0, len(e.Sel))
	for v := range e.Sel {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

// IsPoint reports whether every parameter is bound, i.e. whether the
// environment induces a total order on plan costs.
func (e *Env) IsPoint() bool {
	if !e.Memory.IsPoint() {
		return false
	}
	for _, r := range e.Sel {
		if !r.IsPoint() {
			return false
		}
	}
	return true
}

// Bindings is one concrete instantiation of the run-time parameters, as
// supplied when a query (or its access module) is invoked: a selectivity
// per host variable and the memory actually available.
//
// Applications bind literal values; the harness and the plan start-up code
// work in selectivities directly because the experiment predicates are
// normalized range predicates ("attr <= ?v") whose selectivity is
// value ÷ domain size.
type Bindings struct {
	Sel    map[string]float64
	Memory float64
}

// NewBindings returns an empty binding set with the given memory budget.
func NewBindings(memoryPages float64) *Bindings {
	return &Bindings{Sel: make(map[string]float64), Memory: memoryPages}
}

// BindSelectivity records the actual selectivity of a variable's predicate.
func (b *Bindings) BindSelectivity(variable string, sel float64) *Bindings {
	if sel < 0 || sel > 1 {
		panic(fmt.Sprintf("bindings: selectivity %g out of [0,1] for %q", sel, variable))
	}
	b.Sel[variable] = sel
	return b
}

// Selectivity returns the bound selectivity of a variable. It returns an
// error for unbound variables: executing a plan with a free host variable
// is a caller bug that must not be silently defaulted.
func (b *Bindings) Selectivity(variable string) (float64, error) {
	s, ok := b.Sel[variable]
	if !ok {
		return 0, fmt.Errorf("bindings: host variable %q is unbound", variable)
	}
	return s, nil
}

// Env converts the bindings into a fully bound (all-points) environment,
// the form choose-plan decision procedures evaluate at start-up-time.
func (b *Bindings) Env() *Env {
	e := &Env{Sel: make(map[string]cost.Range, len(b.Sel)), Memory: cost.PointRange(b.Memory)}
	for v, s := range b.Sel {
		e.Sel[v] = cost.PointRange(s)
	}
	return e
}

// Generator draws random binding sets for the experiments: selectivities
// uniform over [0, 1] and, when memory is uncertain, memory uniform over
// [MemLo, MemHi] pages (defaults 16 and 112, the paper's §6 values). The
// generator is deterministic for a given seed.
type Generator struct {
	rng          *rand.Rand
	vars         []string
	memUncertain bool
	MemLo, MemHi float64
	MemDefault   float64
}

// NewGenerator returns a generator over the given host variables. If
// memUncertain is false every binding set carries MemDefault pages.
func NewGenerator(seed int64, vars []string, memUncertain bool) *Generator {
	g := &Generator{
		rng:          rand.New(rand.NewSource(seed)),
		vars:         append([]string(nil), vars...),
		memUncertain: memUncertain,
		MemLo:        16,
		MemHi:        112,
		MemDefault:   64,
	}
	sort.Strings(g.vars)
	return g
}

// Next draws the next binding set.
func (g *Generator) Next() *Bindings {
	mem := g.MemDefault
	if g.memUncertain {
		mem = g.MemLo + g.rng.Float64()*(g.MemHi-g.MemLo)
	}
	b := NewBindings(mem)
	for _, v := range g.vars {
		b.BindSelectivity(v, g.rng.Float64())
	}
	return b
}

// Draw returns n binding sets.
func (g *Generator) Draw(n int) []*Bindings {
	out := make([]*Bindings, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
