package search_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"dynplan/internal/physical"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
	"dynplan/internal/workload"
)

// TestResultOutlivesArena: a search builds its candidates in a pooled
// arena that the next search reuses, so the plan it returns must be its
// own. A result's text and every node's fields stay as they were while
// later optimizations, serial and concurrent, recycle the arena.
func TestResultOutlivesArena(t *testing.T) {
	w := workload.New(11)
	cfg := search.Config{Params: physical.DefaultParams()}
	optimize := func(lo, n int) *search.Result {
		q := window(w, lo, n)
		res, err := search.Optimize(q, runtimeopt.DynamicEnv(q, cfg, true), cfg)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	res := optimize(1, 5)
	text := res.Plan.Format()
	// snapshot holds each node's fields, its inputs in a copy of their own.
	type snapshot struct {
		node   physical.Node
		inputs []*physical.Node
	}
	nodes := map[*physical.Node]snapshot{}
	res.Plan.Walk(func(n *physical.Node) { nodes[n] = snapshot{*n, slices.Clone(n.Children)} })
	if len(nodes) != res.Stats.Nodes() {
		t.Fatalf("plan has %d nodes, stats report %d", len(nodes), res.Stats.Nodes())
	}

	for n := 2; n <= 7; n++ {
		optimize(10-n+1, n)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 2; n <= 6; n++ {
				optimize(1+g, n)
			}
		}()
	}
	wg.Wait()

	if got := res.Plan.Format(); got != text {
		t.Errorf("the plan's text changed after later searches:\n%s\nwas\n%s", got, text)
	}
	for n, was := range nodes {
		if !slices.Equal(n.Children, was.inputs) {
			t.Fatalf("%s: inputs changed after later searches", was.node.Label())
		}
		now := *n
		now.Children, was.node.Children = nil, nil
		if !reflect.DeepEqual(now, was.node) {
			t.Fatalf("node changed after later searches: %+v, was %+v", now, was.node)
		}
	}
}
