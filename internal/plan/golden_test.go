package plan

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/activate_golden.json from this build's Activate")

const goldenPath = "testdata/activate_golden.json"

// goldenRun is everything one activation reports that a caller can
// observe, reduced to exact, comparable values: floats by bit pattern,
// long strings by digest, nodes by their position in encode order.
type goldenRun struct {
	Err            string `json:"err,omitempty"`
	Chosen         string `json:"chosen,omitempty"`
	Cost           string `json:"cost,omitempty"`
	CostLo         string `json:"cost_lo,omitempty"`
	CostHi         string `json:"cost_hi,omitempty"`
	Decisions      int    `json:"decisions"`
	NodesEvaluated int    `json:"nodes_evaluated"`
	Trace          string `json:"trace,omitempty"`
	Picked         []int  `json:"picked"`
}

// goldenModule pins one paper query's module and the usage statistics its
// activations leave behind (the shrunk module is a function of exactly
// which nodes every run recorded as used).
type goldenModule struct {
	Nodes       int                  `json:"nodes"`
	Bytes       string               `json:"bytes"`
	Usage       string               `json:"usage_fraction"`
	ShrunkNodes int                  `json:"shrunk_nodes"`
	ShrunkBytes string               `json:"shrunk_bytes"`
	Runs        map[string]goldenRun `json:"runs"`
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b))[:24] }

func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// encodeOrder numbers the DAG's nodes children-first, the order the wire
// format stores them in.
func encodeOrder(root *physical.Node) map[*physical.Node]int {
	index := make(map[*physical.Node]int)
	var visit func(n *physical.Node)
	visit = func(n *physical.Node) {
		if _, ok := index[n]; ok {
			return
		}
		for _, c := range n.Children {
			visit(c)
		}
		index[n] = len(index)
	}
	visit(root)
	return index
}

func record(rep *StartupReport, err error, order map[*physical.Node]int) goldenRun {
	if err != nil {
		return goldenRun{Err: err.Error(), Picked: []int{}}
	}
	run := goldenRun{
		Chosen:         digest([]byte(rep.Chosen.Format())),
		Cost:           bits(rep.ChosenCost),
		CostLo:         bits(rep.ChosenCost),
		CostHi:         bits(rep.ChosenCost),
		Decisions:      rep.Decisions,
		NodesEvaluated: rep.NodesEvaluated,
		Trace:          digest([]byte(obs.RenderDecisions(rep.Trace))),
		Picked:         make([]int, len(rep.Picked)),
	}
	for i, n := range rep.Picked {
		// A pick that is a pruning clone, not a module node, has no
		// position; -1 records that too.
		idx, ok := order[n]
		if !ok {
			idx = -1
		}
		run.Picked[i] = idx
	}
	return run
}

// goldenTable activates mod under 20 seeded binding draws × {plain, one
// index dropped, first plain pick avoided}.
func goldenTable(t *testing.T, mod *AccessModule, relations int) goldenModule {
	t.Helper()
	order := encodeOrder(mod.Root())
	stats := NewUsageStats()
	gm := goldenModule{
		Nodes: mod.NodeCount(),
		Bytes: digest(mod.Bytes()),
		Runs:  make(map[string]goldenRun),
	}
	gen := bindings.NewGenerator(int64(1000+relations), workload.Variables(relations), true)
	for i, b := range gen.Draw(20) {
		plain, err := mod.Activate(b, StartupOptions{Usage: stats})
		gm.Runs[fmt.Sprintf("draw%02d/plain", i)] = record(plain, err, order)

		rel := fmt.Sprintf("R%d", i%relations+1)
		attr := []string{workload.SelAttr, workload.JoinLo, workload.JoinHi}[i%3]
		rep, err := mod.Activate(b, StartupOptions{Usage: stats,
			IndexExists: func(r, a string) bool { return r != rel || a != attr }})
		gm.Runs[fmt.Sprintf("draw%02d/noindex-%s.%s", i, rel, attr)] = record(rep, err, order)

		if plain != nil && len(plain.Picked) > 0 {
			first := plain.Picked[0]
			rep, err = mod.Activate(b, StartupOptions{Usage: stats,
				Avoid: func(n *physical.Node) bool { return n == first }})
			gm.Runs[fmt.Sprintf("draw%02d/avoid", i)] = record(rep, err, order)
		}
	}
	gm.Usage = bits(mod.UsageFraction(stats))
	shrunk, err := mod.Shrink(stats)
	if err != nil {
		t.Fatal(err)
	}
	gm.ShrunkNodes, gm.ShrunkBytes = shrunk.NodeCount(), digest(shrunk.Bytes())
	return gm
}

func paperModule(t testing.TB, relations int) *AccessModule {
	t.Helper()
	q := workload.New(11).Query(relations)
	res, err := runtimeopt.OptimizeDynamic(q, search.Config{Params: physical.DefaultParams()}, true)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestActivateGolden is the differential guard of the start-up evaluator:
// the table in testdata is recorded (with -update) by the evaluator as it
// stood before the latest rewrite of start-up processing, and every
// activation of the current one must reproduce it bit for bit — from the
// compiled module and from its decoded bytes alike.
func TestActivateGolden(t *testing.T) {
	got := make(map[string]goldenModule)
	for _, spec := range workload.PaperQueries() {
		mod := paperModule(t, spec.Relations)
		key := fmt.Sprintf("relations=%d", spec.Relations)
		got[key] = goldenTable(t, mod, spec.Relations)

		loaded, err := Load(mod.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		fromBytes := goldenTable(t, loaded, spec.Relations)
		compareGolden(t, key+" (loaded vs compiled)", got[key], fromBytes)
	}

	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenModule
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d modules, this build produced %d", len(want), len(got))
	}
	for key, w := range want {
		compareGolden(t, key, w, got[key])
	}
}

func compareGolden(t *testing.T, key string, want, got goldenModule) {
	t.Helper()
	if len(want.Runs) != len(got.Runs) {
		t.Errorf("%s: %d runs, want %d", key, len(got.Runs), len(want.Runs))
	}
	for name, w := range want.Runs {
		if g := got.Runs[name]; fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s %s:\n got %+v\nwant %+v", key, name, g, w)
		}
	}
	want.Runs, got.Runs = nil, nil
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: module\n got %+v\nwant %+v", key, got, want)
	}
}

// TestActivateAllocations pins the allocation count of the hot path: a
// plain activation of the 10-relation module (925 nodes) allocates for its
// report — the chosen spine, the picks, the trace and its one reason
// string — and nothing per node or per decision. It measures 7; the bound
// leaves 3 for a draw whose report outgrows its slabs.
func TestActivateAllocations(t *testing.T) {
	mod := paperModule(t, 10)
	b := bindings.NewGenerator(7, workload.Variables(10), true).Next()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := mod.Activate(b, StartupOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("plain activation of the 10-relation module: %.0f allocs, want <= 10", allocs)
	}
}

// TestActivateConcurrent shares one module among 32 goroutines: every
// report must equal the serial one for the same bindings, whichever
// pooled scratch the activation happened to draw.
func TestActivateConcurrent(t *testing.T) {
	mod := paperModule(t, 6)
	order := encodeOrder(mod.Root())
	draws := bindings.NewGenerator(3, workload.Variables(6), true).Draw(8)
	want := make([]goldenRun, len(draws))
	for i, b := range draws {
		rep, err := mod.Activate(b, StartupOptions{})
		want[i] = record(rep, err, order)
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(draws)
				rep, err := mod.Activate(draws[i], StartupOptions{})
				if got := record(rep, err, order); fmt.Sprint(got) != fmt.Sprint(want[i]) {
					t.Errorf("goroutine %d draw %d:\n got %+v\nwant %+v", g, i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestSweepMatchesIntervalModel is the per-node differential guard of the
// start-up sweep, which runs the cost kernel at one corner over the
// program's lowered constants, against the interval model, which runs it
// at both corners over the nodes themselves: with every parameter bound
// the corners coincide, so every node's sweep cardinality and cost must
// equal both bounds of the model's, bit for bit — and so must every
// decision's trace costs and the chosen plan's cost.
func TestSweepMatchesIntervalModel(t *testing.T) {
	params := physical.DefaultParams()
	model := physical.NewModel(params)
	for _, spec := range workload.PaperQueries() {
		n := spec.Relations
		mod := paperModule(t, n)
		gen := bindings.NewGenerator(int64(2000+n), workload.Variables(n), true)
		for i, b := range gen.Draw(50) {
			rel := fmt.Sprintf("R%d", i%n+1)
			attr := []string{workload.SelAttr, workload.JoinLo, workload.JoinHi}[i%3]
			var first *physical.Node
			for _, c := range []struct {
				name string
				opt  StartupOptions
			}{
				{"plain", StartupOptions{}},
				{"noindex", StartupOptions{IndexExists: func(r, a string) bool { return r != rel || a != attr }}},
				{"avoid", StartupOptions{Avoid: func(n *physical.Node) bool { return n == first }}},
			} {
				name := fmt.Sprintf("relations=%d draw%02d %s", n, i, c.name)
				prog := mod.prog
				if c.name != "plain" {
					var err error
					if prog, err = mod.prog.restrict(c.opt); errors.Is(err, ErrInfeasible) {
						continue
					} else if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				e := prog.evaluator()
				if missing := prog.Bind(&e.Eval, b); len(missing) > 0 {
					t.Fatalf("%s: unbound %v", name, missing)
				}
				rep := e.run(params)
				res := model.EvaluateProgram(prog.Program, b.Env())
				for j, node := range prog.Nodes {
					r := res[j]
					card, cost := bits(e.Card[j]), bits(e.Cost[j])
					if card != bits(r.Card.Lo) || card != bits(r.Card.Hi) || cost != bits(r.Cost.Lo) || cost != bits(r.Cost.Hi) {
						t.Fatalf("%s: node %d (%s): sweep card %g cost %g, model %v / %v",
							name, j, node.Label(), e.Card[j], e.Cost[j], r.Card, r.Cost)
					}
				}
				want := decisionCosts(prog.Program, res, int32(len(prog.Nodes)-1), nil)
				if len(want) != len(rep.Trace) {
					t.Fatalf("%s: %d decisions traced, model resolves %d", name, len(rep.Trace), len(want))
				}
				for k, tr := range rep.Trace {
					if !slices.EqualFunc(tr.Costs, want[k], func(a, b float64) bool { return bits(a) == bits(b) }) {
						t.Fatalf("%s: decision %d traces costs %v, model %v", name, k, tr.Costs, want[k])
					}
				}
				if r := model.Evaluate(rep.Chosen, b.Env()); bits(rep.ChosenCost) != bits(r.Cost.Lo) || bits(rep.ChosenCost) != bits(r.Cost.Hi) {
					t.Fatalf("%s: chosen cost %g, model %v", name, rep.ChosenCost, r.Cost)
				}
				if c.name == "plain" && len(rep.Picked) > 0 {
					first = rep.Picked[0]
				}
				e.release()
			}
		}
	}
}

// TestCardsMatchModel pins the cardinalities a report carries for the
// calibration layer: one per operator of the chosen plan, in post-order,
// each equal bit for bit to the interval model's evaluation of that
// operator's subplan — clones above a resolved choose-plan included, whose
// cardinality the sweep computed from the choose-plan's first alternative.
func TestCardsMatchModel(t *testing.T) {
	model := physical.NewModel(physical.DefaultParams())
	for _, spec := range workload.PaperQueries() {
		n := spec.Relations
		mod := paperModule(t, n)
		for i, b := range bindings.NewGenerator(int64(5000+n), workload.Variables(n), true).Draw(20) {
			rep, err := mod.Activate(b, StartupOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cards := rep.Cards
			var walk func(n *physical.Node)
			walk = func(n *physical.Node) {
				for _, c := range n.Children {
					walk(c)
				}
				want := model.Evaluate(n, b.Env()).Card
				if len(cards) == 0 || bits(cards[0]) != bits(want.Lo) || bits(cards[0]) != bits(want.Hi) {
					t.Fatalf("relations=%d draw%02d: %s: cards %v, model %v", spec.Relations, i, n.Label(), cards, want)
				}
				cards = cards[1:]
			}
			walk(rep.Chosen)
			if len(cards) > 0 {
				t.Fatalf("relations=%d draw%02d: %d cards beyond the chosen plan", spec.Relations, i, len(cards))
			}
		}
	}
}

// decisionCosts resolves the plan at node i of p under the model's
// results res the way start-up does — depth first, each choose-plan to its
// cheapest alternative, the first of equals — and appends each decision's
// alternative costs to out.
func decisionCosts(p *physical.Program, res []physical.Result, i int32, out [][]float64) [][]float64 {
	kids := p.Inputs(i)
	if p.Nodes[i].Op == physical.ChoosePlan {
		costs, best := make([]float64, len(kids)), 0
		for j, k := range kids {
			if costs[j] = res[k].Cost.Lo; costs[j] < costs[best] {
				best = j
			}
		}
		return decisionCosts(p, res, kids[best], append(out, costs))
	}
	for _, k := range kids {
		out = decisionCosts(p, res, k, out)
	}
	return out
}
