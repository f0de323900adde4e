package plan

import (
	"testing"

	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
)

// BenchmarkModuleEncodeDecode measures access-module serialization — the
// start-up I/O path.
func BenchmarkModuleEncodeDecode(b *testing.B) {
	res := dynamicPlanB(b, 6)
	b.Run("encode", func(b *testing.B) {
		for b.Loop() {
			if _, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges()); err != nil {
				b.Fatal(err)
			}
		}
	})
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		for b.Loop() {
			if _, err := Load(mod.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(len(mod.Bytes())), "bytes")
}

// BenchmarkActivation measures the start-up decision procedure.
func BenchmarkActivation(b *testing.B) {
	res := dynamicPlanB(b, 6)
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		b.Fatal(err)
	}
	binds := bindingsFor(6, 0.3, 64)
	for b.Loop() {
		if _, err := mod.Activate(binds, StartupOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShrink measures the §4 self-replacement.
func BenchmarkShrink(b *testing.B) {
	res := dynamicPlanB(b, 6)
	mod, err := NewModule(res.Plan, res.Stats.Nodes(), res.Stats.Edges())
	if err != nil {
		b.Fatal(err)
	}
	stats := NewUsageStats()
	if _, err := mod.Activate(bindingsFor(6, 0.01, 64), StartupOptions{Usage: stats}); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, err := mod.Shrink(stats); err != nil {
			b.Fatal(err)
		}
	}
}

// dynamicPlanB mirrors dynamicPlan for benchmarks.
func dynamicPlanB(b *testing.B, n int) *search.Result {
	b.Helper()
	res, err := runtimeopt.OptimizeDynamic(chain(n), search.Config{}, true)
	if err != nil {
		b.Fatal(err)
	}
	return res
}
