package dynplan

import (
	"context"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
)

// BenchmarkExecPipelineOverhead pins the dispatch cost of the unified
// execution pipeline: the price every query pays for the one-stack design
// is the composed-closure walk from db.Exec over all nine stages to the
// terminal Run stage. The Run stage is stubbed out, so the benchmark
// measures pure stage dispatch — and the "plain" case asserts it allocates
// nothing with the observatory disabled, keeping the hot path as cheap as
// the direct method calls it replaced.
func BenchmarkExecPipelineOverhead(b *testing.B) {
	db := New().OpenDatabase()
	stubRunStage(b)
	ctx := context.Background()
	binds := bindings.NewBindings(64)

	var dispatchAllocs float64
	b.Run("plain", func(b *testing.B) {
		st := &execState{db: db, b: binds}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.exec(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		dispatchAllocs = testing.AllocsPerRun(100, func() {
			_, _ = st.exec(ctx)
		})
		if dispatchAllocs != 0 {
			b.Fatalf("plain dispatch allocates %v objects per query, want 0", dispatchAllocs)
		}
	})

	// Governed + Resilient without an installed governor or a module:
	// Admit and Grant pass through, Breaker finds nothing to block, Retry
	// sets up its policy, Activate sits out — the worst-case dispatch a
	// query pays before any real work. The per-query state is the one
	// allocation.
	b.Run("governed", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := &execState{db: db, o: ExecOptions{Governed: true, Resilient: true}, b: binds}
			if _, err := st.exec(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})

	if benchRecordDir() != "" {
		rec := &obs.RunRecord{
			Name:  "exec-pipeline-overhead",
			Query: "stage-dispatch overhead of the unified execution pipeline (stubbed run stage)",
			Metrics: map[string]float64{
				"stages":          float64(len(stages)),
				"dispatch-allocs": dispatchAllocs,
			},
			// Structural record, measured: drift in the stage table or the
			// zero-alloc guarantee shows up in review; no simulated cost
			// is gated.
			SimCostTotal: 0,
		}
		writeBenchRecord(b, rec)
	}
}
