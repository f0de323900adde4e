package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/storage"
	"dynplan/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden tables from this build's executor")

const goldenPath = "testdata/exec_golden.json"

// goldenRun is what one execution reports, reduced to exact values: the
// result by digest in delivery order, the account by its four counters,
// and every operator's own tally in plan preorder.
type goldenRun struct {
	Err     string   `json:"err,omitempty"`
	Rows    int      `json:"rows"`
	Digest  string   `json:"digest,omitempty"`
	Account string   `json:"account,omitempty"`
	Ops     []string `json:"ops,omitempty"`
}

// goldenInput is one access module and the bindings it is activated and
// run under.
type goldenInput struct {
	name  string
	mod   *plan.AccessModule
	draws []*bindings.Bindings
}

// goldenInputs lists the five paper queries under 20 generator draws each,
// and the exec_heavy-shaped chains — R1, R1⋈R2, R1⋈R2⋈R3, and the last
// ordered by R1.a, whose key ties make the delivery order observable —
// under 20 high-selectivity draws each.
func goldenInputs(t *testing.T, w *workload.Workload) []goldenInput {
	t.Helper()
	module := func(n int, order string) *plan.AccessModule {
		res, err := runtimeopt.OptimizeDynamic(w.Query(n), search.Config{FinalOrder: order}, true)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := plan.NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	var in []goldenInput
	for _, spec := range workload.PaperQueries() {
		n := spec.Relations
		gen := bindings.NewGenerator(int64(2000+n), workload.Variables(n), true)
		in = append(in, goldenInput{fmt.Sprintf("paper/relations=%d", n), module(n, ""), gen.Draw(20)})
	}
	for _, c := range []struct {
		n     int
		order string
	}{{1, ""}, {2, ""}, {3, ""}, {3, "R1.a"}} {
		rng := rand.New(rand.NewSource(int64(3000 + 10*c.n + len(c.order))))
		draws := make([]*bindings.Bindings, 20)
		for i := range draws {
			b := bindings.NewBindings(16 + rng.Float64()*96)
			for _, v := range workload.Variables(c.n) {
				b.BindSelectivity(v, 0.2+0.8*rng.Float64())
			}
			draws[i] = b
		}
		name := fmt.Sprintf("chain/relations=%d", c.n)
		if c.order != "" {
			name += "/order=" + c.order
		}
		in = append(in, goldenInput{name, module(c.n, c.order), draws})
	}
	return in
}

// goldenPlans are hand-built plans for what the optimizer picks for none
// of the inputs above: Merge-Join over index-ordered inputs (it stops
// reading one input once the other ends), Merge-Join over sorts, an
// Index-Join with a residual selection, and the hash-spill and
// external-sort charges of a small grant. They run serially.
func goldenPlans(w *workload.Workload) map[string]*physical.Node {
	scan := func(rel string) *physical.Node {
		return &physical.Node{Op: physical.FileScan, Rel: rel, BaseCard: w.Catalog.MustRelation(rel).Cardinality, RowBytes: 512}
	}
	btree := func(rel, attr string) *physical.Node {
		return &physical.Node{Op: physical.BtreeScan, Rel: rel, Attr: attr, BaseCard: w.Catalog.MustRelation(rel).Cardinality, RowBytes: 512}
	}
	filter := func(rel, v string, child *physical.Node) *physical.Node {
		return &physical.Node{Op: physical.Filter, SelAttr: rel + ".a", Var: v, RowBytes: 512, Children: []*physical.Node{child}}
	}
	srt := func(attr string, child *physical.Node) *physical.Node {
		return &physical.Node{Op: physical.Sort, Attr: attr, RowBytes: 512, Children: []*physical.Node{child}}
	}
	join := func(op physical.Op, l, r *physical.Node) *physical.Node {
		return &physical.Node{Op: op, LeftAttr: "R1.jh", RightAttr: "R2.jl", RowBytes: 1024, Children: []*physical.Node{l, r}}
	}
	fbs := &physical.Node{Op: physical.FilterBtreeScan, Rel: "R1", Attr: "a", SelAttr: "R1.a", Var: "v1",
		BaseCard: w.Catalog.MustRelation("R1").Cardinality, RowBytes: 512}
	return map[string]*physical.Node{
		"merge/btree": join(physical.MergeJoin, filter("R1", "v1", btree("R1", "jh")), filter("R2", "v2", btree("R2", "jl"))),
		"merge/sort":  join(physical.MergeJoin, srt("R1.jh", filter("R1", "v1", scan("R1"))), srt("R2.jl", filter("R2", "v2", scan("R2")))),
		"index/residual": {Op: physical.IndexJoin, Rel: "R2", Attr: "jl", LeftAttr: "R1.jh", RightAttr: "R2.jl",
			SelAttr: "R2.a", Var: "v2", RowBytes: 1024, Children: []*physical.Node{fbs}},
		"hash/filtered": join(physical.HashJoin, filter("R1", "v1", scan("R1")), filter("R2", "v2", scan("R2"))),
		"sort/btree":    srt("R3.jh", btree("R3", "a")),
	}
}

// digestRows hashes the schema and the rows in the order given.
func digestRows(schema Schema, rows []storage.Row) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", strings.Join(schema, ","))
	var buf [8]byte
	for _, r := range rows {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(r)))
		h.Write(buf[:])
		for _, v := range r {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:24]
}

// goldenExec runs one resolved plan, metered, on a fresh accountant, with
// cards as its predicted cardinalities.
func goldenExec(base *DB, root *physical.Node, b *bindings.Bindings, cards []float64) goldenRun {
	db := &DB{Catalog: base.Catalog, Store: base.Store, Indexes: base.Indexes, Acc: &storage.Accountant{},
		Obs: obs.NewCollector(), Cards: cards}
	rows, schema, err := db.Run(root, b)
	if err != nil {
		return goldenRun{Err: err.Error()}
	}
	run := goldenRun{Rows: len(rows), Account: db.Acc.String()}
	run.Digest = digestRows(schema, rows)
	seen := make(map[*obs.PlanStats]bool)
	var walk func(s *obs.PlanStats)
	walk = func(s *obs.PlanStats) {
		if seen[s] {
			return
		}
		seen[s] = true
		c := s.Counters
		run.Ops = append(run.Ops, fmt.Sprintf("%s %s rows=%d tuples=%d seq=%d rand=%d write=%d",
			s.Op, s.Rel, c.Rows, c.TupleOps, c.SeqPageReads, c.RandPageReads, c.PageWrites))
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	walk(db.Obs.Tree(root))
	return run
}

// TestExecGolden is the differential guard of the executor: the table in
// testdata is recorded (with -update) by the executor as it stood before
// its latest rewrite, and every run of the current one must reproduce it
// exactly — the same rows in the same order, the same account and the
// same per-operator tallies.
// Refresh it only for an intended behaviour change, and say so.
func TestExecGolden(t *testing.T) {
	w := workload.New(11)
	base := testDB(t, w)
	got := make(map[string]goldenRun)
	for _, in := range goldenInputs(t, w) {
		for i, b := range in.draws {
			rep, err := in.mod.Activate(b, plan.StartupOptions{})
			if err != nil {
				t.Fatalf("%s draw %d: %v", in.name, i, err)
			}
			got[fmt.Sprintf("%s/draw%02d", in.name, i)] = goldenExec(base, rep.Chosen, b, nil)
		}
	}
	for name, p := range goldenPlans(w) {
		for key, b := range goldenHandBindings() {
			got[fmt.Sprintf("hand/%s/%s", name, key)] = goldenExec(base, p, b, nil)
		}
	}
	checkGolden(t, goldenPath, got)
}

// goldenHandBindings are the bindings every hand-built plan runs under: a
// starved and a roomy grant, each at four selectivity pairs.
func goldenHandBindings() map[string]*bindings.Bindings {
	out := make(map[string]*bindings.Bindings)
	for _, mem := range []float64{2, 64} {
		for _, sel := range [][2]float64{{0.1, 0.9}, {0.5, 0.5}, {0.9, 0.1}, {1, 1}} {
			b := bindings.NewBindings(mem)
			b.BindSelectivity("v1", sel[0])
			b.BindSelectivity("v2", sel[1])
			out[fmt.Sprintf("mem=%g/sel=%g,%g", mem, sel[0], sel[1])] = b
		}
	}
	return out
}

// checkGolden compares got, run by run, against the table at path; with
// -update it rewrites the table instead.
func checkGolden[R any](t *testing.T, path string, got map[string]R) {
	t.Helper()
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]R
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d runs, this build produced %d", len(want), len(got))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if g, w := got[k], want[k]; fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s:\n got %+v\nwant %+v", k, g, w)
		}
	}
}
