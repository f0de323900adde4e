package dynplan

import (
	"context"
	"maps"
	"slices"
	"sync"
	"testing"
)

// TestSharedBindingsUnchanged checks that executions only read the
// caller's Selectivities map, which Exec aliases instead of copying:
// after a plain, an Adaptive, a re-optimizing and a Resilient execution —
// the first two correct selectivities mid-query — the map is
// unchanged, and 16 goroutines sharing one Bindings value all get the
// plain execution's rows.
func TestSharedBindingsUnchanged(t *testing.T) {
	sys, q, db := reoptStaleDB(t, 3, "C2", 4)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	b := resilBindings(3, 0.5, 64)
	want := maps.Clone(b.Selectivities)
	ctx := context.Background()
	cases := []struct {
		name string
		o    ExecOptions
	}{
		{"plain", ExecOptions{}},
		{"adaptive", ExecOptions{Adaptive: true}},
		{"reopt", ExecOptions{Reopt: &ReoptPolicy{}}},
		{"resilient", ExecOptions{Resilient: true}},
	}
	var truth []string
	for _, c := range cases {
		res, err := db.Exec(ctx, mod, b, c.o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if (c.o.Adaptive || c.o.Reopt != nil) && res.Reopt == nil {
			t.Errorf("%s: no selectivity was corrected, so the check is vacuous", c.name)
		}
		if truth == nil {
			truth = canonical(res)
		} else if got := canonical(res); !slices.Equal(got, truth) {
			t.Errorf("%s: %d rows differ from the plain execution's %d", c.name, len(got), len(truth))
		}
		if !maps.Equal(b.Selectivities, want) {
			t.Fatalf("%s changed the caller's selectivities: %v, want %v", c.name, b.Selectivities, want)
		}
	}

	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range len(cases) {
				c := cases[(g+i)%len(cases)]
				res, err := db.Exec(ctx, mod, b, c.o)
				if err != nil {
					t.Errorf("goroutine %d %s: %v", g, c.name, err)
					return
				}
				if got := canonical(res); !slices.Equal(got, truth) {
					t.Errorf("goroutine %d %s: %d rows differ from the plain execution's %d", g, c.name, len(got), len(truth))
				}
			}
		}()
	}
	wg.Wait()
	if !maps.Equal(b.Selectivities, want) {
		t.Errorf("concurrent executions changed the caller's selectivities: %v, want %v", b.Selectivities, want)
	}
}
