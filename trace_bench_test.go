package dynplan

import (
	"context"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
)

// BenchmarkTraceOverhead pins the cost of span tracing at both ends of
// the switch. With tracing off, the per-stage hook is a single pointer
// comparison folded into the composed stage closures — the "disabled"
// case asserts the dispatch still allocates nothing, so queries that
// never asked for a trace pay nothing for the tracer's existence. With
// tracing on, the "traced" case measures the real price of building a
// span tree per query: the trace header, one arena for the spans, and
// the finish walk — the figure the overhead ablation in EXPERIMENTS.md
// quotes.
func BenchmarkTraceOverhead(b *testing.B) {
	db := New().OpenDatabase()
	stubRunStage(b)
	ctx := context.Background()
	binds := bindings.NewBindings(64)

	var disabledAllocs float64
	b.Run("disabled", func(b *testing.B) {
		st := &execState{db: db, b: binds}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.exec(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		disabledAllocs = testing.AllocsPerRun(100, func() {
			_, _ = st.exec(ctx)
		})
		if disabledAllocs != 0 {
			b.Fatalf("untraced dispatch allocates %v objects per query, want 0", disabledAllocs)
		}
	})

	// Per-query opt-in on a Governed + Resilient query: every participating
	// stage opens and closes a span, the trace is sealed, and the record is
	// assembled — the worst-case fixed cost a traced query pays beyond its
	// real work.
	tracedStages := 0
	b.Run("traced", func(b *testing.B) {
		var res *ExecResult
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := &execState{db: db, o: ExecOptions{Governed: true, Resilient: true, Trace: true}, b: binds}
			var err error
			if res, err = st.exec(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		tracedStages = len(spansOfKind(res.Trace, obs.SpanStage))
	})

	if benchRecordDir() != "" {
		rec := &obs.RunRecord{
			Name:  "trace-overhead",
			Query: "span-tracing overhead of the execution pipeline (stubbed run stage)",
			Metrics: map[string]float64{
				"disabled-allocs": disabledAllocs,
				"traced-stages":   float64(tracedStages),
				"arena-spans":     48,
			},
			// Structural record, measured: drift in the zero-alloc guarantee
			// for the disabled path or in the stages a traced query shows
			// up in review; no simulated cost is gated.
			SimCostTotal: 0,
		}
		writeBenchRecord(b, rec)
	}
}
