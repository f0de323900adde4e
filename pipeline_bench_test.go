package dynplan

import (
	"context"
	"testing"

	"dynplan/internal/bindings"
	"dynplan/internal/obs"
)

// BenchmarkExecPipelineOverhead pins the dispatch cost of the unified
// execution pipeline: the price every query pays for the one-stack design
// is the composed-closure walk from db.Exec over the five stages to the
// terminal Run stage. The Run stage is stubbed out, so the benchmark
// measures pure stage dispatch; the "plain" case runs with the
// observatory disabled, the path whose zero allocations the
// exec-pipeline-overhead record pins.
func BenchmarkExecPipelineOverhead(b *testing.B) {
	db := New().OpenDatabase()
	stubRunStage(b)
	ctx := context.Background()
	binds := bindings.NewBindings(64)

	b.Run("plain", func(b *testing.B) {
		st := &execState{db: db, b: binds}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.exec(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Governed + Resilient without an installed governor or a module:
	// Admit passes through, Remedy sets up its retry policy and runs once,
	// Activate sits out — the worst-case dispatch a query pays before any
	// real work. The per-query state is the one
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
}

// TestGovernedQueryAllocations pins what the governor adds to a query
// over the stubbed Run stage: at most the ticket and the admission
// account beyond the same query ungoverned, anonymous or tenant-tagged.
// The governor is shaped like obsd's.
func TestGovernedQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin")
	}
	db := New().OpenDatabase()
	stubRunStage(t)
	db.SetGovernor(GovernorConfig{TotalPages: 256, MinGrantPages: 16, MaxConcurrent: 4,
		TenantSlots: 2, TenantPages: 128})
	ctx := context.Background()
	binds := bindings.NewBindings(64)
	allocs := func(o ExecOptions) float64 {
		return testing.AllocsPerRun(200, func() {
			st := &execState{db: db, o: o, b: binds}
			if _, err := st.exec(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tenant := range []string{"", "tenant-a"} {
		plain := allocs(ExecOptions{Tenant: tenant})
		governed := allocs(ExecOptions{Governed: true, Tenant: tenant})
		if governed-plain > 2 {
			t.Errorf("tenant %q: a governed query allocates %v objects, %v more than ungoverned; want at most 2",
				tenant, governed, governed-plain)
		}
	}
}

// execPipelineRecord is the exec-pipeline-overhead record: the size of
// the stage table and the allocations of one plain (untraced,
// observatory-off) dispatch over a stubbed Run stage. Structural: drift
// in the stage table or the zero-alloc guarantee shows up as a changed
// record; no simulated cost is carried.
func execPipelineRecord(tb testing.TB) *obs.RunRecord {
	db := New().OpenDatabase()
	stubRunStage(tb)
	ctx := context.Background()
	st := &execState{db: db, b: bindings.NewBindings(64)}
	return &obs.RunRecord{
		Query: "stage-dispatch overhead of the unified execution pipeline (stubbed run stage)",
		Metrics: map[string]float64{
			"stages":          float64(len(stages)),
			"dispatch-allocs": testing.AllocsPerRun(100, func() { _, _ = st.exec(ctx) }),
		},
	}
}
