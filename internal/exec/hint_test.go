package exec

import (
	"fmt"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/storage"
	"dynplan/internal/workload"
)

// actualCards runs root once, metered, and returns every operator's output
// rows in post-order: what a start-up sweep that is never wrong predicts.
func actualCards(base *DB, root *physical.Node, b *bindings.Bindings) []float64 {
	db := &DB{Catalog: base.Catalog, Store: base.Store, Indexes: base.Indexes, Acc: &storage.Accountant{}, Obs: obs.NewCollector()}
	db.Run(root, b) // a failed run's tallies predict as well as any
	var cards []float64
	var walk func(n *physical.Node)
	walk = func(n *physical.Node) {
		for _, c := range n.Children {
			walk(c)
		}
		cards = append(cards, float64(db.Obs.StatsFor(n).Rows))
	}
	walk(root)
	return cards
}

// TestHintsAreInvisible pins that DB.Cards size buffers and nothing else.
// Every plan of the executor's golden table, and one DOP 2 run, executes
// without predictions and then with them exact, a tenth and ten times the
// actual rows, and one short. Every hinted run must return the unhinted
// run's rows in the same order (as a multiset at DOP 2) under the same
// schema, with the same account and the same per-operator tallies.
func TestHintsAreInvisible(t *testing.T) {
	w := workload.New(11)
	base := testDB(t, w)
	check := func(name string, root *physical.Node, b *bindings.Bindings, dop int) {
		t.Helper()
		want := goldenExec(base, root, b, dop, nil)
		exact := actualCards(base, root, b)
		scaled := func(f float64) []float64 {
			out := make([]float64, len(exact))
			for i, c := range exact {
				out[i] = f * c
			}
			return out
		}
		for _, h := range []struct {
			name  string
			cards []float64
		}{{"exact", exact}, {"x0.1", scaled(0.1)}, {"x10", scaled(10)}, {"one short", exact[1:]}} {
			if got := goldenExec(base, root, b, dop, h.cards); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s, %s predictions:\n got %+v\nwant %+v", name, h.name, got, want)
			}
		}
	}
	inputs := goldenInputs(t, w)
	for _, in := range inputs {
		for i, b := range in.draws {
			rep, err := in.mod.Activate(b, plan.StartupOptions{})
			if err != nil {
				t.Fatalf("%s draw %d: %v", in.name, i, err)
			}
			check(fmt.Sprintf("%s/draw%02d", in.name, i), rep.Chosen, b, 1)
		}
	}
	for name, p := range goldenPlans(w) {
		for key, b := range goldenHandBindings() {
			check(fmt.Sprintf("hand/%s/%s", name, key), p, b, 1)
		}
	}
	last := inputs[len(inputs)-1]
	rep, err := last.mod.Activate(last.draws[0], plan.StartupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check(last.name+"/draw00/dop=2", rep.Chosen, last.draws[0], 2)
}
