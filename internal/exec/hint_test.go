package exec

import (
	"fmt"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/storage"
	"dynplan/internal/workload"
)

// actualCards runs root once, metered, and returns every operator's output
// rows in post-order, the order of the stats slab: what a start-up sweep
// that is never wrong predicts.
func actualCards(t *testing.T, base *DB, root *physical.Node, b *bindings.Bindings) []float64 {
	t.Helper()
	db := &DB{Catalog: base.Catalog, Store: base.Store, Indexes: base.Indexes, Acc: &storage.Accountant{}, Meter: true}
	_, _, stats, err := db.Run(root, b)
	if err != nil {
		t.Fatal(err)
	}
	cards := make([]float64, len(stats))
	for i, s := range stats {
		cards[i] = float64(s.Counters.Rows)
	}
	return cards
}

// TestHintsAreInvisible pins that DB.Cards size buffers and nothing else.
// Every plan of the executor's golden table executes without predictions
// and then with them exact, a tenth and ten times the actual rows, and one
// short. Every hinted run must return the unhinted run's rows in the same
// order under the same schema, with the same account and the same
// per-operator tallies.
func TestHintsAreInvisible(t *testing.T) {
	w := workload.New(11)
	base := testDB(t, w)
	check := func(name string, root *physical.Node, b *bindings.Bindings) {
		t.Helper()
		want := goldenExec(base, root, b, nil)
		exact := actualCards(t, base, root, b)
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
			if got := goldenExec(base, root, b, h.cards); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s, %s predictions:\n got %+v\nwant %+v", name, h.name, got, want)
			}
		}
	}
	for _, in := range goldenInputs(t, w) {
		for i, b := range in.draws {
			rep, err := in.mod.Activate(b, plan.StartupOptions{})
			if err != nil {
				t.Fatalf("%s draw %d: %v", in.name, i, err)
			}
			check(fmt.Sprintf("%s/draw%02d", in.name, i), rep.Chosen, b)
		}
	}
	for name, p := range goldenPlans(w) {
		for key, b := range goldenHandBindings() {
			check(fmt.Sprintf("hand/%s/%s", name, key), p, b)
		}
	}
}
