package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"dynplan/internal/bindings"
	"dynplan/internal/physical"
	"dynplan/internal/qerr"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/storage"
	"dynplan/internal/workload"
)

// staticPlan optimizes the n-relation chain query into a static plan.
func staticPlan(t *testing.T, w *workload.Workload, n int) *physical.Node {
	t.Helper()
	res, err := runtimeopt.OptimizeStatic(w.Query(n), search.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

func midBindings(n int) *bindings.Bindings {
	b := bindings.NewBindings(64)
	for i := 1; i <= n; i++ {
		b.BindSelectivity(varName(i), 0.5)
	}
	return b
}

func varName(i int) string {
	return string([]byte{'v', byte('0' + i)})
}

// TestCancelBeforeRun verifies an already-canceled context stops execution
// at the boundary, before any operator runs.
func TestCancelBeforeRun(t *testing.T) {
	w := workload.New(11)
	db := testDB(t, w)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db.Ctx = ctx
	_, _, _, err := db.Run(staticPlan(t, w, 2), midBindings(2))
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should also match context.Canceled: %v", err)
	}
}

// TestCancelMidScan cancels while draining and verifies the error arrives
// within a bounded number of Next calls, and that no iterator leaks.
func TestCancelMidScan(t *testing.T) {
	w := workload.New(11)
	db := testDB(t, w)
	lc := NewLeakChecker()
	db.Wrap = lc.Wrap

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	db.Ctx = ctx

	it, _, err := db.Build(staticPlan(t, w, 2), midBindings(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		it.Close()
		t.Fatal(err)
	}
	// Drain a few rows, then cancel; cancellation must surface within a
	// bounded number of further Next calls. Every operator polls, so the
	// bound is pollEvery calls of the root iterator at worst.
	for i := 0; i < 3; i++ {
		if _, ok, err := it.Next(); err != nil || !ok {
			t.Fatalf("priming drain: ok=%v err=%v", ok, err)
		}
	}
	cancel()
	var cerr error
	calls := 0
	for calls < pollEvery+1 {
		calls++
		_, ok, err := it.Next()
		if err != nil {
			cerr = err
			break
		}
		if !ok {
			t.Fatal("stream ended before cancellation was observed")
		}
	}
	if cerr == nil {
		t.Fatalf("cancellation not observed within %d Next calls", calls)
	}
	if !errors.Is(cerr, qerr.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", cerr)
	}
	// Cancellation must not be blamed on an operator.
	if op := qerr.Operator(cerr); op != "" {
		t.Fatalf("cancellation attributed to operator %q", op)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if leaked := lc.Leaked(); len(leaked) > 0 {
		t.Fatalf("leaked iterators: %v", leaked)
	}
}

// TestDeadlineExceeded verifies deadline expiry is classified separately
// from cancellation.
func TestDeadlineExceeded(t *testing.T) {
	w := workload.New(11)
	db := testDB(t, w)
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second) // already expired
	defer cancel()
	db.Ctx = ctx
	_, _, _, err := db.Run(staticPlan(t, w, 1), midBindings(1))
	if !errors.Is(err, qerr.ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("deadline expiry should be distinct from explicit cancellation: %v", err)
	}
	if !qerr.Canceled(err) {
		t.Fatalf("qerr.Canceled should cover deadline expiry: %v", err)
	}
}

// TestPanicRecovered verifies the executor boundary converts operator
// panics into typed errors instead of crashing the process.
func TestPanicRecovered(t *testing.T) {
	w := workload.New(11)
	db := testDB(t, w)
	db.Wrap = func(it Iterator, n *physical.Node) Iterator {
		return panicIter{}
	}
	_, _, _, err := db.Run(staticPlan(t, w, 1), midBindings(1))
	if !errors.Is(err, qerr.ErrOperatorPanic) {
		t.Fatalf("want ErrOperatorPanic, got %v", err)
	}
}

type panicIter struct{}

func (panicIter) Open() error                    { panic("boom") }
func (panicIter) NextBatch([]int32) (int, error) { panic("boom") }
func (panicIter) Close() error                   { return nil }

// TestTransientFaultSurfacesTyped verifies an injected page fault reaches
// the caller with the taxonomy sentinel and the raising operator's name,
// and that the failed pipeline leaks nothing.
func TestTransientFaultSurfacesTyped(t *testing.T) {
	w := workload.New(11)
	db := testDB(t, w)
	lc := NewLeakChecker()
	db.Wrap = lc.Wrap
	db.Faults = storage.NewInjector(storage.FaultConfig{
		Seed:          7,
		TransientRate: 0.5,
	})
	_, _, _, err := db.Run(staticPlan(t, w, 2), midBindings(2))
	if err == nil {
		t.Fatal("expected an injected fault to surface")
	}
	if !errors.Is(err, qerr.ErrFaultInjected) {
		t.Fatalf("want ErrFaultInjected, got %v", err)
	}
	if !errors.Is(err, qerr.ErrTransientIO) {
		t.Fatalf("want ErrTransientIO, got %v", err)
	}
	if !qerr.Retryable(err) {
		t.Fatalf("transient fault should be retryable: %v", err)
	}
	if op := qerr.Operator(err); op == "" {
		t.Fatalf("fault should name the raising operator: %v", err)
	}
	if leaked := lc.Leaked(); len(leaked) > 0 {
		t.Fatalf("leaked iterators after failure: %v", leaked)
	}
	if lc.Wrapped() == 0 {
		t.Fatal("leak checker wrapped no iterators")
	}
}

// TestTransientFaultsAbsorbedByRetries verifies in-place read retries make
// a faulty run produce byte-identical rows to a fault-free run.
func TestTransientFaultsAbsorbedByRetries(t *testing.T) {
	w := workload.New(11)
	for _, n := range []int{1, 2, 3} {
		db := testDB(t, w)
		b := midBindings(n)
		p := staticPlan(t, w, n)
		cleanRows, schema, _, err := db.Run(p, b)
		if err != nil {
			t.Fatal(err)
		}
		db.Faults = storage.NewInjector(storage.FaultConfig{
			Seed:          13,
			TransientRate: 0.10,
			ReadRetries:   3,
		})
		faultyRows, fschema, _, err := db.Run(p, b)
		if err != nil {
			t.Fatalf("n=%d: faults not absorbed: %v", n, err)
		}
		if got, want := normalize(faultyRows, fschema), normalize(cleanRows, schema); got != want {
			t.Fatalf("n=%d: faulty run differs from clean run", n)
		}
		st := db.Faults.Stats()
		if st.Injected == 0 {
			t.Fatalf("n=%d: injector fired no faults (reads=%d)", n, st.Reads)
		}
		if st.Absorbed != st.Injected {
			t.Fatalf("n=%d: %d faults injected but only %d absorbed", n, st.Injected, st.Absorbed)
		}
	}
}

// TestMemoryShrinkFailsHashBuild verifies a mid-query memory-shrink event
// makes a no-longer-fitting hash build fail with ErrInsufficientMemory as
// the build side finishes.
func TestMemoryShrinkFailsHashBuild(t *testing.T) {
	w := workload.New(11)
	base := testDB(t, w)
	// A hash join with a generous planned grant, so the build "fits" at
	// planning time but not after the shrink event.
	n := 2
	b := midBindings(n)
	p := staticPlan(t, w, n)
	if !hasOp(p, physical.HashJoin) {
		t.Fatal("chosen static plan has no hash join")
	}
	db := &DB{Catalog: base.Catalog, Store: base.Store, Indexes: base.Indexes, Acc: &storage.Accountant{},
		Faults: storage.NewInjector(storage.FaultConfig{
			Seed:                3,
			MemShrinkAfterReads: 1,
			MemShrinkFactor:     0.001,
		})}
	_, _, _, err := db.Run(p, b)
	if !errors.Is(err, qerr.ErrInsufficientMemory) {
		t.Fatalf("want ErrInsufficientMemory, got %v", err)
	}
	if !qerr.Retryable(err) {
		t.Fatalf("memory shortfall should be retryable (with a downgrade): %v", err)
	}
}

func hasOp(n *physical.Node, op physical.Op) bool {
	if n == nil {
		return false
	}
	if n.Op == op {
		return true
	}
	for _, c := range n.Children {
		if hasOp(c, op) {
			return true
		}
	}
	return false
}
