package dynplan

import (
	"context"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
)

// tracedOpts is the traced query both the benchmark and the record
// measure: per-query opt-in on a Governed + Resilient query, so every
// participating stage opens and closes a span, the trace is sealed, and
// the record is assembled — the worst-case fixed cost a traced query pays
// beyond its real work.
var tracedOpts = ExecOptions{Governed: true, Resilient: true, Trace: true}

// BenchmarkTraceOverhead pins the cost of span tracing at both ends of
// the switch. With tracing off, the per-stage hook is a single pointer
// comparison folded into the composed stage closures, so queries that
// never asked for a trace pay nothing for the tracer's existence (the
// trace-overhead record pins the zero allocations). With tracing on, the
// "traced" case measures the real price of building a span tree per
// query: the trace header, one arena for the spans, and the finish walk —
// the figure the overhead ablation in EXPERIMENTS.md quotes.
func BenchmarkTraceOverhead(b *testing.B) {
	db := New().OpenDatabase()
	stubRunStage(b)
	ctx := context.Background()
	binds := bindings.NewBindings(64)

	b.Run("disabled", func(b *testing.B) {
		st := &execState{db: db, b: binds}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.exec(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := &execState{db: db, o: tracedOpts, b: binds}
			if _, err := st.exec(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// traceOverheadRecord is the trace-overhead record: the allocations of an
// untraced dispatch and the stage spans a traced one shows, over a
// stubbed Run stage. Structural: drift in the zero-alloc guarantee for
// the disabled path or in the stages a traced query shows up as a changed
// record; no simulated cost is carried.
func traceOverheadRecord(tb testing.TB) *obs.RunRecord {
	db := New().OpenDatabase()
	stubRunStage(tb)
	ctx := context.Background()
	binds := bindings.NewBindings(64)
	st := &execState{db: db, b: binds}
	disabledAllocs := testing.AllocsPerRun(100, func() { _, _ = st.exec(ctx) })
	traced := &execState{db: db, o: tracedOpts, b: binds}
	res, err := traced.exec(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	return &obs.RunRecord{
		Query: "span-tracing overhead of the execution pipeline (stubbed run stage)",
		Metrics: map[string]float64{
			"disabled-allocs": disabledAllocs,
			"traced-stages":   float64(len(spansOfKind(res.Trace, obs.SpanStage))),
			"arena-spans":     48,
		},
	}
}
