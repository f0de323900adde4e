package search_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/logical"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/search_golden.json from this build's Optimize")

const goldenPath = "testdata/search_golden.json"

// goldenResult is everything one optimization reports that a caller can
// observe, reduced to exact, comparable values: floats by bit pattern,
// plan text and module bytes by digest.
type goldenResult struct {
	Err               string `json:"err,omitempty"`
	Plan              string `json:"plan"`
	CostLo            string `json:"cost_lo"`
	CostHi            string `json:"cost_hi"`
	CardLo            string `json:"card_lo"`
	CardHi            string `json:"card_hi"`
	Nodes             int    `json:"nodes"`
	ChoosePlanNodes   int    `json:"choose_plan_nodes"`
	Alternatives      string `json:"alternatives"`
	ExtraAlternatives int    `json:"extra_alternatives"`
	Module            string `json:"module"`
	Goals             int    `json:"goals"`
	Candidates        int    `json:"candidates"`
	PrunedByBound     int    `json:"pruned_by_bound"`
	PrunedDominated   int    `json:"pruned_dominated"`
	PrunedEqual       int    `json:"pruned_equal"`
	PrunedSampled     int    `json:"pruned_sampled"`
	Comparisons       int    `json:"comparisons"`
	ChoosePlans       int    `json:"choose_plans"`
	CandidatesByOp    string `json:"candidates_by_op"`
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b))[:24] }

func fbits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func record(t *testing.T, res *search.Result, err error) goldenResult {
	t.Helper()
	if err != nil {
		return goldenResult{Err: err.Error()}
	}
	mod, err := plan.NewModule(res.Plan, res.Stats.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	ops := make([]string, 0, len(st.CandidatesByOp))
	for op, n := range st.CandidatesByOp {
		ops = append(ops, fmt.Sprintf("%s=%d", op, n))
	}
	sort.Strings(ops)
	return goldenResult{
		Plan:              digest([]byte(res.Plan.Format())),
		CostLo:            fbits(res.Cost.Lo),
		CostHi:            fbits(res.Cost.Hi),
		CardLo:            fbits(res.Card.Lo),
		CardHi:            fbits(res.Card.Hi),
		Nodes:             res.Plan.CountNodes(),
		ChoosePlanNodes:   res.Plan.CountChoosePlans(),
		Alternatives:      fbits(res.Plan.Alternatives()),
		ExtraAlternatives: st.KeptIncomparable,
		Module:            digest(mod.Bytes()),
		Goals:             st.Goals,
		Candidates:        st.Candidates,
		PrunedByBound:     st.PrunedByBound,
		PrunedDominated:   st.PrunedDominated,
		PrunedEqual:       st.PrunedEqual,
		PrunedSampled:     st.PrunedSampled,
		Comparisons:       st.Comparisons,
		ChoosePlans:       st.ChoosePlans,
		CandidatesByOp:    fmt.Sprint(ops),
	}
}

// window builds the chain Rlo ⋈ … ⋈ R(lo+n-1) over the §6 catalog: one
// unbound selection "Ri.a <= ?vi" per relation, edges Ri.jh = R(i+1).jl.
func window(w *workload.Workload, lo, n int) *logical.Query {
	q := &logical.Query{}
	for i := lo; i < lo+n; i++ {
		rel := w.Catalog.MustRelation(fmt.Sprintf("R%d", i))
		q.Rels = append(q.Rels, logical.QRel{Rel: rel,
			Pred: &logical.SelPred{Attr: rel.MustAttribute(workload.SelAttr), Variable: fmt.Sprintf("v%d", i)}})
	}
	for i := 0; i+1 < n; i++ {
		q.Edges = append(q.Edges, logical.JoinEdge{Left: i, Right: i + 1,
			LeftAttr:  q.Rels[i].Rel.MustAttribute(workload.JoinHi),
			RightAttr: q.Rels[i+1].Rel.MustAttribute(workload.JoinLo)})
	}
	return q
}

// cycle closes the 4-relation chain R1…R4 with the edge R4.jh = R1.jl.
func cycle(w *workload.Workload) *logical.Query {
	q := window(w, 1, 4)
	q.Edges = append(q.Edges, logical.JoinEdge{Left: 3, Right: 0,
		LeftAttr:  q.Rels[3].Rel.MustAttribute(workload.JoinHi),
		RightAttr: q.Rels[0].Rel.MustAttribute(workload.JoinLo)})
	return q
}

// goldenTable optimizes every query of the table under its configurations.
func goldenTable(t *testing.T) map[string]goldenResult {
	w := workload.New(11)
	cfg := search.Config{Params: physical.DefaultParams()}
	got := make(map[string]goldenResult)
	run := func(key string, q *logical.Query, env *bindings.Env, c search.Config) {
		res, err := search.Optimize(q, env, c)
		got[key] = record(t, res, err)
	}

	for n := 2; n <= 7; n++ {
		for lo := 1; lo+n-1 <= workload.MaxRelations; lo++ {
			q := window(w, lo, n)
			for _, order := range []string{"", fmt.Sprintf("R%d.a", lo)} {
				c := cfg
				c.FinalOrder = order
				key := fmt.Sprintf("chain/R%d+%d/order=%s", lo, n, order)
				run(key+"/dynamic", q, runtimeopt.DynamicEnv(q, c, false), c)
				run(key+"/dynamic-memory", q, runtimeopt.DynamicEnv(q, c, true), c)
			}
		}
	}
	for name, q := range map[string]*logical.Query{"star4": w.StarQuery(4), "cycle4": cycle(w)} {
		run(name+"/dynamic", q, runtimeopt.DynamicEnv(q, cfg, false), cfg)
		run(name+"/dynamic-memory", q, runtimeopt.DynamicEnv(q, cfg, true), cfg)
		run(name+"/static", q, runtimeopt.StaticEnv(q, cfg), cfg)
	}

	for _, spec := range workload.PaperQueries() {
		n := spec.Relations
		q := w.Query(n)
		key := fmt.Sprintf("paper/relations=%d", n)
		run(key+"/dynamic", q, runtimeopt.DynamicEnv(q, cfg, false), cfg)
		run(key+"/dynamic-memory", q, runtimeopt.DynamicEnv(q, cfg, true), cfg)
		run(key+"/static", q, runtimeopt.StaticEnv(q, cfg), cfg)
		prune := cfg
		prune.PruneEqualCost = true
		run(key+"/prune-equal", q, runtimeopt.DynamicEnv(q, prune, true), prune)
		sampled := cfg
		sampled.SampledDominance = 8
		run(key+"/sampled8", q, runtimeopt.DynamicEnv(q, sampled, true), sampled)
		for i, b := range bindings.NewGenerator(int64(500+n), workload.Variables(n), true).Draw(5) {
			res, err := runtimeopt.OptimizeRuntime(q, b, cfg)
			got[fmt.Sprintf("%s/runtime-draw%d", key, i)] = record(t, res, err)
		}
	}
	return got
}

// TestOptimizeGolden is the differential guard of the search engine: the
// table in testdata is recorded (with -update) by the optimizer as it
// stood before the latest rewrite of the search, and every optimization
// of the current one must reproduce it bit for bit — plans, module bytes,
// cost and cardinality intervals, and the search statistics.
func TestOptimizeGolden(t *testing.T) {
	got := goldenTable(t)
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
	var want map[string]goldenResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d optimizations, this build produced %d", len(want), len(got))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: missing", key)
		} else if g != w {
			t.Errorf("%s:\n got %+v\nwant %+v", key, g, w)
		}
	}
}
