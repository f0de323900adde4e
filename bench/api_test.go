package main

import (
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The benchmark may touch the system only through the public dynplan
// package and obsd's HTTP contract, and may not use the Execute* façades:
// then the roadmap's refactors of what lies beneath (start-up, pipeline,
// telemetry, executor) can land without editing the benchmark.
func TestAPIDiscipline(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files found: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if strings.HasPrefix(path, "dynplan/") {
				t.Errorf("%s imports %s; only the public package \"dynplan\" is allowed", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Execute") {
				t.Errorf("%s: calls the %s façade; use Database.Exec or PreparedQuery.Exec", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// BENCHMARK.json is generated from the metric and workload tables; it
// must not drift from them, and must stay inside the driver's limits.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err == nil && string(got) != string(want) {
		t.Error("../BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
	var m struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(want, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound > 0.25 {
			t.Errorf("metric %+v breaks the contract", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup || len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.PerLayer) > 128 || len(want) > 64<<10 {
		t.Error("manifest breaks the contract's counts")
	}
	// 4 + 22 runs per workload, each of run_seconds plus overhead, inside 3420 s.
	if runs := 4 + 22*len(m.Workloads); float64(runs)*(float64(m.RunSeconds)+12) > 3420-120 {
		t.Errorf("%d runs of %d s leave no room for set-up and builds inside 3420 s", runs, m.RunSeconds)
	}
}

// Every in-process path, end to end, on a tiny op list.
func TestSmoke(t *testing.T) {
	start := time.Now()
	env := &environment{outDir: t.TempDir()}
	if err := smoke(context.Background(), runConfig{seed: 1, smoke: true}, env); err != nil {
		t.Fatal(err)
	}
	for _, d := range workloadDefs {
		if d.http {
			continue
		}
		if _, err := os.Stat(filepath.Join(env.outDir, "trace-"+d.name+".jsonl")); err != nil {
			t.Errorf("traced smoke run of %s wrote no span file: %v", d.name, err)
		}
	}
	// Sized to stay under 5 s; logged, not asserted, because the race
	// detector and a busy box both stretch it.
	t.Logf("smoke took %v", time.Since(start))
}
