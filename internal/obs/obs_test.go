package obs

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dynplan/internal/physical"
)

func TestCountersAdd(t *testing.T) {
	a := Counters{Opens: 1, NextCalls: 10, Rows: 9, SeqPageReads: 4, RandPageReads: 2,
		PageWrites: 1, TupleOps: 30, FaultsAbsorbed: 1, WallNanos: 100, MemBytes: 512}
	b := Counters{Opens: 2, NextCalls: 5, Rows: 4, SeqPageReads: 6, RandPageReads: 1,
		PageWrites: 2, TupleOps: 10, FaultsAbsorbed: 2, WallNanos: 50, MemBytes: 256}
	a.Add(b)
	want := Counters{Opens: 3, NextCalls: 15, Rows: 13, SeqPageReads: 10, RandPageReads: 3,
		PageWrites: 3, TupleOps: 40, FaultsAbsorbed: 3, WallNanos: 150, MemBytes: 512}
	if a != want {
		t.Errorf("Add: got %+v, want %+v", a, want)
	}
	// MemBytes is a high-water mark: adding a larger tally widens it.
	a.Add(Counters{MemBytes: 4096})
	if a.MemBytes != 4096 {
		t.Errorf("Add should take the max MemBytes, got %d", a.MemBytes)
	}
}

func TestSimulatedSeconds(t *testing.T) {
	c := Counters{SeqPageReads: 10, RandPageReads: 4, PageWrites: 2, TupleOps: 1000}
	r := CostRates{SeqPage: 0.008, RandPage: 0.02, Write: 0.008, Tuple: 1e-5}
	got := c.SimulatedSeconds(r)
	want := 10*0.008 + 4*0.02 + 2*0.008 + 1000*1e-5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SimulatedSeconds: got %g, want %g", got, want)
	}
}

// chainPlan builds scan(R) ⋈ scan(S) ⋈ scan(T) as a physical tree.
func chainPlan() (*physical.Node, *physical.Node, *physical.Node, *physical.Node, *physical.Node) {
	r := &physical.Node{Op: physical.FileScan, Rel: "R"}
	s := &physical.Node{Op: physical.FileScan, Rel: "S"}
	tt := &physical.Node{Op: physical.FileScan, Rel: "T"}
	j1 := &physical.Node{Op: physical.HashJoin, LeftAttr: "R.j", RightAttr: "S.j", Children: []*physical.Node{r, s}}
	j2 := &physical.Node{Op: physical.HashJoin, LeftAttr: "S.k", RightAttr: "T.k", Children: []*physical.Node{j1, tt}}
	return j2, j1, r, s, tt
}

func TestCollectorTreeMirrorsPlanShape(t *testing.T) {
	root, j1, r, s, tt := chainPlan()
	c := NewCollector()
	c.StatsFor(r).Add(Counters{Rows: 100, SeqPageReads: 10})
	c.StatsFor(s).Add(Counters{Rows: 50, SeqPageReads: 5})
	c.StatsFor(tt).Add(Counters{Rows: 20, SeqPageReads: 2})
	c.StatsFor(j1).Add(Counters{Rows: 30, SeqPageReads: 15, MemBytes: 1 << 20})
	c.StatsFor(root).Add(Counters{Rows: 7, SeqPageReads: 17})

	tree := c.Tree(root)
	if tree == nil {
		t.Fatal("Tree returned nil on an enabled collector")
	}
	if tree.NodeCount() != root.CountNodes() {
		t.Errorf("stats tree has %d nodes, plan has %d", tree.NodeCount(), root.CountNodes())
	}
	// Shape: root joins (j1, T); j1 joins (R, S).
	if len(tree.Children) != 2 || len(tree.Children[0].Children) != 2 {
		t.Fatalf("stats tree does not mirror the plan shape: %+v", tree)
	}
	if tree.Counters.Rows != 7 {
		t.Errorf("root rows = %d, want 7", tree.Counters.Rows)
	}
	if got := tree.Children[0].Counters.MemBytes; got != 1<<20 {
		t.Errorf("j1 mem = %d, want %d", got, 1<<20)
	}
	if got := tree.Children[0].Children[0].Counters.Rows; got != 100 {
		t.Errorf("scan R rows = %d, want 100", got)
	}

	// Total: root's inclusive counters with tree-wide MemBytes high-water.
	total := tree.Total()
	if total.Rows != 7 || total.SeqPageReads != 17 || total.MemBytes != 1<<20 {
		t.Errorf("Total = %+v", total)
	}
}

func TestCollectorTreeSharedSubplan(t *testing.T) {
	// A DAG: the same scan feeds both join inputs. The stats tree must
	// preserve the sharing (one PlanStats node referenced twice).
	r := &physical.Node{Op: physical.FileScan, Rel: "R"}
	join := &physical.Node{Op: physical.HashJoin, LeftAttr: "R.j", RightAttr: "R.j",
		Children: []*physical.Node{r, r}}
	c := NewCollector()
	c.StatsFor(r).Add(Counters{Rows: 10})
	tree := c.Tree(join)
	if tree.Children[0] != tree.Children[1] {
		t.Error("shared plan node mapped to distinct stats nodes")
	}
	if tree.NodeCount() != 2 {
		t.Errorf("NodeCount = %d, want 2", tree.NodeCount())
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Error("nil collector reports Enabled")
	}
	if c.StatsFor(&physical.Node{Op: physical.FileScan, Rel: "R"}) != nil {
		t.Error("nil collector returned a counter struct")
	}
	if c.Tree(&physical.Node{Op: physical.FileScan, Rel: "R"}) != nil {
		t.Error("nil collector returned a stats tree")
	}
}

// TestDisabledCollectorAllocatesNothing pins the zero-overhead contract:
// the disabled (nil) collector's fast path performs no allocation.
func TestDisabledCollectorAllocatesNothing(t *testing.T) {
	var c *Collector
	n := &physical.Node{Op: physical.FileScan, Rel: "R"}
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Enabled() {
			t.Fatal("unreachable")
		}
		_ = c.StatsFor(n)
		_ = c.Tree(n)
	})
	if allocs != 0 {
		t.Errorf("disabled collector allocated %.1f times per run, want 0", allocs)
	}
}

func TestRunRecordRoundTrip(t *testing.T) {
	root, _, r, s, tt := chainPlan()
	c := NewCollector()
	for _, n := range []*physical.Node{root, r, s, tt} {
		c.StatsFor(n).Add(Counters{Rows: 3, SeqPageReads: 2, WallNanos: 10})
	}
	rec := &RunRecord{
		Name:  "roundtrip-test",
		Query: "R join S join T",
		Metrics: map[string]float64{
			"rows": 7, "seq-page-reads": 17,
		},
		SimCostTotal: 1.25,
		Optimizer:    &OptimizerSpan{Goals: 6, Candidates: 20, ChoosePlansEmitted: 2, PlanNodes: 5},
		Operators:    c.Tree(root),
		Decisions: []ChoiceTrace{
			{Operator: "Choose-Plan (2 alternatives)", Alternatives: []string{"Hash-Join", "Merge-Join"},
				Costs: []float64{1.5, 2.5}, Reason: string(AppendReason(nil, []float64{1.5, 2.5}, 0))},
		},
	}

	name, err := rec.Filename()
	if err != nil {
		t.Fatal(err)
	}
	if name != "BENCH_roundtrip-test.json" {
		t.Errorf("Filename = %q", name)
	}

	dir := t.TempDir()
	if err := rec.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	var back RunRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != rec.Name || back.Query != rec.Query || back.SimCostTotal != rec.SimCostTotal {
		t.Errorf("round trip lost scalar fields: %+v", back)
	}
	if !reflect.DeepEqual(back.Metrics, rec.Metrics) {
		t.Errorf("round trip lost metrics: %+v", back.Metrics)
	}
	if !reflect.DeepEqual(back.Optimizer, rec.Optimizer) {
		t.Errorf("round trip lost optimizer span: %+v", back.Optimizer)
	}
	if !reflect.DeepEqual(back.Decisions, rec.Decisions) {
		t.Errorf("round trip lost decisions: %+v", back.Decisions)
	}
	if back.Operators.NodeCount() != rec.Operators.NodeCount() {
		t.Errorf("round trip lost operator tree: %d nodes, want %d",
			back.Operators.NodeCount(), rec.Operators.NodeCount())
	}
	if back.Operators.Counters != rec.Operators.Counters {
		t.Errorf("round trip lost root counters: %+v", back.Operators.Counters)
	}
}

func TestRunRecordFilenameRejectsUnsafeNames(t *testing.T) {
	for _, bad := range []string{"", "a/b", "a b", "../x", "a\nb"} {
		r := &RunRecord{Name: bad}
		if _, err := r.Filename(); err == nil {
			t.Errorf("Filename accepted unsafe name %q", bad)
		}
	}
}

func TestRenderContainsPerOperatorFigures(t *testing.T) {
	root, j1, r, _, _ := chainPlan()
	c := NewCollector()
	c.StatsFor(r).Add(Counters{Rows: 100, NextCalls: 101, SeqPageReads: 10, WallNanos: 5000})
	c.StatsFor(j1).Add(Counters{Rows: 30, NextCalls: 31, SeqPageReads: 15, WallNanos: 9000, MemBytes: 2048})
	c.StatsFor(root).Add(Counters{Rows: 7, NextCalls: 8, SeqPageReads: 17, WallNanos: 12000})
	out := c.Tree(root).Render(CostRates{SeqPage: 0.008})
	for _, want := range []string{"Hash-Join", "File-Scan R", "rows=100", "seq=15", "mem=2.0KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderSharedNodePrintedOnce(t *testing.T) {
	r := &physical.Node{Op: physical.FileScan, Rel: "R"}
	join := &physical.Node{Op: physical.HashJoin, LeftAttr: "R.j", RightAttr: "R.j",
		Children: []*physical.Node{r, r}}
	c := NewCollector()
	c.StatsFor(r).Add(Counters{Rows: 10})
	out := c.Tree(join).Render(CostRates{})
	if got := strings.Count(out, "shared, shown above"); got != 1 {
		t.Errorf("shared subplan marker appears %d times, want 1:\n%s", got, out)
	}
}

func TestNewChoiceReasons(t *testing.T) {
	costs := []float64{1.5, 2.5, 2}
	tr := ChoiceTrace{Operator: "Choose-Plan (3 alternatives)", Alternatives: []string{"a", "b", "c"},
		Costs: costs, Reason: string(AppendReason(nil, costs, 0))}
	if tr.Reason != "predicted 1.5s vs runner-up 2s" {
		t.Errorf("Reason = %q", tr.Reason)
	}
	if got := string(AppendReason([]byte("x;"), costs[:1], 0)); got != "x;predicted 1.5s" {
		t.Errorf("AppendReason without a runner-up = %q", got)
	}

	out := RenderDecisions([]ChoiceTrace{tr})
	if !strings.Contains(out, "* 1.") || !strings.Contains(out, "2.5s") {
		t.Errorf("RenderDecisions output:\n%s", out)
	}
	if RenderDecisions(nil) == "" {
		t.Error("RenderDecisions(nil) should explain there were no decisions")
	}
}

func TestOptimizerSpanRender(t *testing.T) {
	s := &OptimizerSpan{Goals: 12, Candidates: 40, PrunedByBound: 5, KeptIncomparable: 3,
		ChoosePlansEmitted: 3, PlanChoosePlans: 2, PlanNodes: 17, EncodedAlternatives: 20}
	out := s.Render()
	for _, want := range []string{"12 goals", "40 candidates", "kept incomparable: 3", "17 nodes", "20 alternatives"} {
		if !strings.Contains(out, want) {
			t.Errorf("span render missing %q:\n%s", want, out)
		}
	}
	var nilSpan *OptimizerSpan
	if !strings.Contains(nilSpan.Render(), "not recorded") {
		t.Error("nil span render should say not recorded")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{512: "512B", 2048: "2.0KB", 3 << 20: "3.0MB"}
	for n, want := range cases {
		if got := formatBytes(n); got != want {
			t.Errorf("formatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
