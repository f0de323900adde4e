package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func render(w *workload) string { return fmt.Sprintf("%v|%v", w.statements, w.ops) }

func TestSameSeedSameOpsDifferentSeedDiffers(t *testing.T) {
	for _, d := range workloadDefs {
		a, b, c := d.build(42, 0), d.build(42, 0), d.build(43, 0)
		if render(a) != render(b) {
			t.Errorf("%s: seed 42 built two different op lists", d.name)
		}
		if render(a) == render(c) {
			t.Errorf("%s: seeds 42 and 43 built the same op list", d.name)
		}
		if len(a.ops) != d.nOps {
			t.Errorf("%s: %d ops, want %d", d.name, len(a.ops), d.nOps)
		}
		// The seed may move bindings inside their strata, nothing else.
		if !reflect.DeepEqual(a.statements, c.statements) {
			t.Errorf("%s: the statement set depends on the seed", d.name)
		}
		counts := perStatement(a)
		for i := range a.ops {
			if a.ops[i].stmt != c.ops[i].stmt {
				t.Fatalf("%s: the statement sequence depends on the seed", d.name)
			}
			n := float64(counts[a.ops[i].stmt])
			for v, x := range a.ops[i].bind.Selectivities {
				if y := c.ops[i].bind.Selectivities[v]; math.Abs(x-y) >= (d.selHi-d.selLo)/n {
					t.Fatalf("%s op %d: %s is %g under one seed and %g under another: not the same stratum", d.name, i, v, x, y)
				}
			}
		}
	}
}

func perStatement(w *workload) []int {
	counts := make([]int, len(w.statements))
	for _, o := range w.ops {
		counts[o.stmt]++
	}
	return counts
}

// An out-of-range selectivity panics inside the library
// (bindings.BindSelectivity), so the generator must never produce one.
func TestBindingsInRange(t *testing.T) {
	for _, d := range workloadDefs {
		for seed := int64(0); seed < 20; seed++ {
			w := d.build(seed, 0)
			for _, o := range w.ops {
				if o.bind.MemoryPages < memLo || o.bind.MemoryPages > memHi {
					t.Fatalf("%s seed %d: memory %g outside [%d, %d]", d.name, seed, o.bind.MemoryPages, memLo, memHi)
				}
				if len(o.bind.Selectivities) != len(w.statements[o.stmt].vars) {
					t.Fatalf("%s seed %d: %d variables bound, statement has %d", d.name, seed, len(o.bind.Selectivities), len(w.statements[o.stmt].vars))
				}
				for v, s := range o.bind.Selectivities {
					if !(s > 0 && s <= 1) || s <= d.selLo || s > d.selHi {
						t.Fatalf("%s seed %d: %s = %g outside (%g, %g]", d.name, seed, v, s, d.selLo, d.selHi)
					}
				}
			}
		}
	}
}

func TestStratifiedCoversEveryStratumOnce(t *testing.T) {
	const n = 50
	v := stratified(rand.New(rand.NewSource(3)), rand.New(rand.NewSource(4)), n, 0, 1)
	seen := make([]bool, n)
	for _, x := range v {
		k := int(math.Ceil(x*n)) - 1
		if seen[k] {
			t.Fatalf("stratum %d drawn twice", k)
		}
		seen[k] = true
	}
}

func TestSharesZipf(t *testing.T) {
	a, b := shares(1000, 156, 1.0), shares(1000, 156, 1.0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shares is not deterministic")
	}
	total := 0
	for r, n := range a {
		total += n
		if r > 0 && n > a[r-1] {
			t.Fatalf("rank %d has %d ops, more than rank %d's %d", r, n, r-1, a[r-1])
		}
	}
	if total != 1000 {
		t.Fatalf("shares sum to %d, want 1000", total)
	}
	if a[0] < 8*a[9] || a[0] > 12*a[9] { // rank 1 is ten times rank 10 under s = 1
		t.Errorf("rank 1 has %d ops and rank 10 has %d: not zipfian with s = 1", a[0], a[9])
	}
	for _, n := range shares(400, 4, 0) {
		if n != 100 {
			t.Fatalf("equal shares gave %v", shares(400, 4, 0))
		}
	}
}

func TestChurnStatementsAreDistinctAndFixed(t *testing.T) {
	a, b := churnStatements(), churnStatements()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("churnStatements is not deterministic")
	}
	seen := make(map[string]bool)
	for _, st := range a {
		if seen[st.sql] {
			t.Fatalf("duplicate statement %q", st.sql)
		}
		seen[st.sql] = true
	}
	if len(a) != 156 {
		t.Fatalf("%d statements, want 156", len(a))
	}
}
