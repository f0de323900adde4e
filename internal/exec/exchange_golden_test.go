package exec

import (
	"fmt"
	"sort"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/storage"
	"dynplan/internal/workload"
)

const exchangeGoldenPath = "testdata/exchange_golden.json"

// exchangeRun is what one parallel execution reports about its exchanges:
// the error, the account, and every exchange's kind, operator, relation
// and per-worker rows/seq/rand/write/tuples/mem tallies. Sibling exchanges
// record in completion order, so the exchanges are a sorted multiset.
type exchangeRun struct {
	Err       string   `json:"err,omitempty"`
	Account   string   `json:"account"`
	Exchanges []string `json:"exchanges,omitempty"`
}

// exchangeExec runs one resolved plan at the given degree of parallelism
// on a fresh accountant and collects its exchange reports.
func exchangeExec(base *DB, root *physical.Node, b *bindings.Bindings, dop int) exchangeRun {
	db := &DB{Catalog: base.Catalog, Store: base.Store, Indexes: base.Indexes,
		Acc: &storage.Accountant{}, Parallel: dop, Par: &obs.ParallelExec{}}
	_, _, err := db.Run(root, b)
	run := exchangeRun{Account: db.Acc.String()}
	if err != nil {
		run.Err = err.Error()
	}
	for _, e := range db.Par.Stats(dop, dop, 0, 0, "").Exchanges {
		s := fmt.Sprintf("%s %s %s", e.Kind, e.Op, e.Rel)
		for _, c := range e.Workers {
			s += fmt.Sprintf(" %d/%d/%d/%d/%d/%d", c.Rows, c.SeqPageReads, c.RandPageReads, c.PageWrites, c.TupleOps, c.MemBytes)
		}
		run.Exchanges = append(run.Exchanges, s)
	}
	sort.Strings(run.Exchanges)
	return run
}

// TestExchangeGolden pins the parallel layer's per-worker books: the
// exec golden checks only a parallel run's result and totals, this table
// every exchange's per-worker tallies, at DOP 2 and 4, over the golden
// inputs and the hand-built plans. Merge-Join over index-ordered inputs is
// left out: it stops reading early, so how many rows a torn worker
// delivered before teardown varies run to run.
func TestExchangeGolden(t *testing.T) {
	w := workload.New(11)
	base := testDB(t, w)
	got := make(map[string]exchangeRun)
	for _, in := range goldenInputs(t, w) {
		for i, b := range in.draws {
			rep, err := in.mod.Activate(b, plan.StartupOptions{})
			if err != nil {
				t.Fatalf("%s draw %d: %v", in.name, i, err)
			}
			for _, dop := range []int{2, 4} {
				got[fmt.Sprintf("%s/draw%02d/dop=%d", in.name, i, dop)] = exchangeExec(base, rep.Chosen, b, dop)
			}
		}
	}
	for name, p := range goldenPlans(w) {
		if name == "merge/btree" {
			continue
		}
		for key, b := range goldenHandBindings() {
			for _, dop := range []int{2, 4} {
				got[fmt.Sprintf("hand/%s/%s/dop=%d", name, key, dop)] = exchangeExec(base, p, b, dop)
			}
		}
	}
	checkGolden(t, exchangeGoldenPath, got)
}
