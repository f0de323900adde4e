package obs

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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

// chainStats builds the stats tree of (R ⋈ S) ⋈ T as the executor returns
// it, one post-order slab with the root last, with the given counters per
// operator in that order.
func chainStats(c ...Counters) []PlanStats {
	ops := []PlanStats{
		{Op: "File-Scan", Label: "File-Scan R", Rel: "R"},
		{Op: "File-Scan", Label: "File-Scan S", Rel: "S"},
		{Op: "Hash-Join", Label: "Hash-Join R.j = S.j (build left)"},
		{Op: "File-Scan", Label: "File-Scan T", Rel: "T"},
		{Op: "Hash-Join", Label: "Hash-Join S.k = T.k (build left)"},
	}
	ops[2].Children = []*PlanStats{&ops[0], &ops[1]}
	ops[4].Children = []*PlanStats{&ops[2], &ops[3]}
	for i := range c {
		ops[i].Counters = c[i]
	}
	return ops
}

// countStats returns the number of nodes of a stats tree.
func countStats(s *PlanStats) int {
	n := 1
	for _, c := range s.Children {
		n += countStats(c)
	}
	return n
}

func TestRunRecordRoundTrip(t *testing.T) {
	scan := Counters{Rows: 3, SeqPageReads: 2, WallNanos: 10}
	ops := chainStats(scan, scan, Counters{}, scan, scan)
	rec := &RunRecord{
		Name:  "roundtrip-test",
		Query: "R join S join T",
		Metrics: map[string]float64{
			"rows": 7, "seq-page-reads": 17,
		},
		SimCostTotal: 1.25,
		Optimizer:    &OptimizerSpan{Goals: 6, Candidates: 20, ChoosePlansEmitted: 2, PlanNodes: 5},
		Operators:    &ops[len(ops)-1],
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
	if countStats(back.Operators) != countStats(rec.Operators) {
		t.Errorf("round trip lost operator tree: %d nodes, want %d",
			countStats(back.Operators), countStats(rec.Operators))
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
	ops := chainStats(
		Counters{Rows: 100, NextCalls: 101, SeqPageReads: 10, WallNanos: 5000},
		Counters{}, // S
		Counters{Rows: 30, NextCalls: 31, SeqPageReads: 15, WallNanos: 9000, MemBytes: 2048},
		Counters{}, // T
		Counters{Rows: 7, NextCalls: 8, SeqPageReads: 17, WallNanos: 12000})
	out := ops[len(ops)-1].Render(CostRates{SeqPage: 0.008})
	for _, want := range []string{"Hash-Join", "File-Scan R", "rows=100", "seq=15", "mem=2.0KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	// Pre-order: each operator's line before its inputs'.
	if i, j := strings.Index(out, "Hash-Join S.k"), strings.Index(out, "File-Scan R"); i < 0 || j < i {
		t.Errorf("Render output not in pre-order:\n%s", out)
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
