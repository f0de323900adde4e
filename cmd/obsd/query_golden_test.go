package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/query_golden.json from this build's /query handler")

const queryGoldenPath = "testdata/query_golden.json"

// serviceStatement is one POST /query statement and the host variables it
// binds.
type serviceStatement struct {
	sql  string
	vars []string
}

// serviceStatements lists the twelve statements the benchmark's
// http_service workload sends to obsd: every chain window Ei…Ei+n-1 of
// the demo's E1…E3, once as SELECT * and once ordered by the first
// relation's selection attribute and projected to both ends' "a".
func serviceStatements() []serviceStatement {
	var out []serviceStatement
	for n := 1; n <= 3; n++ {
		for lo := 1; lo+n-1 <= 3; lo++ {
			out = append(out, chainStatement(lo, n, false), chainStatement(lo, n, true))
		}
	}
	return out
}

// chainStatement renders E<lo> ⋈ … ⋈ E<lo+n-1> with one selection
// "a <= ?v<i>" per relation and join edges jh = next.jl; ordered adds the
// ORDER BY and the projection.
func chainStatement(lo, n int, ordered bool) serviceStatement {
	var from, where, vars []string
	for i := lo; i < lo+n; i++ {
		from = append(from, fmt.Sprintf("E%d", i))
		where = append(where, fmt.Sprintf("E%d.a <= ?v%d", i, i))
		vars = append(vars, fmt.Sprintf("v%d", i))
	}
	for i := lo; i+1 < lo+n; i++ {
		where = append(where, fmt.Sprintf("E%d.jh = E%d.jl", i, i+1))
	}
	cols := "*"
	if ordered {
		cols = fmt.Sprintf("E%d.a", lo)
		if n > 1 {
			cols += fmt.Sprintf(", E%d.a", lo+n-1)
		}
	}
	sql := fmt.Sprintf("SELECT %s FROM %s WHERE %s", cols, strings.Join(from, ", "), strings.Join(where, " AND "))
	if ordered {
		sql += fmt.Sprintf(" ORDER BY E%d.a", lo)
	}
	return serviceStatement{sql: sql, vars: vars}
}

// serviceBody is a POST /query body for the statement under one seeded
// draw: every selectivity in [0, 1), memory in [16, 112) pages.
func serviceBody(s serviceStatement, rng *rand.Rand, maxRows *int) []byte {
	req := struct {
		SQL           string             `json:"sql"`
		Selectivities map[string]float64 `json:"selectivities"`
		MemoryPages   float64            `json:"memory_pages"`
		MaxRows       *int               `json:"max_rows,omitempty"`
	}{SQL: s.sql, Selectivities: make(map[string]float64, len(s.vars)), MaxRows: maxRows}
	for _, v := range s.vars {
		req.Selectivities[v] = rng.Float64()
	}
	req.MemoryPages = 16 + 96*rng.Float64()
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// queryCase is one POST /query exchange. A capped response is kept whole;
// an uncapped one (max_rows -1, up to ten thousand rows) by its digest.
type queryCase struct {
	Stmt       int    `json:"stmt"`
	Draw       int    `json:"draw"`
	MaxRows    *int   `json:"max_rows"`
	Status     int    `json:"status"`
	RowCount   int    `json:"row_count"`
	Body       string `json:"body,omitempty"`
	BodySHA256 string `json:"body_sha256,omitempty"`
}

var elapsedField = regexp.MustCompile(`"elapsed_ms":[^,}]*`)

// TestQueryGolden replays the http_service statements — 12 statements ×
// 10 seeded draws × max_rows absent, 0, 3 and -1 — through the handler
// obsd serves, in one fixed order, against the database the benchmark's
// obsd serves (-seed 7 -stale 1). Every response body, elapsed_ms zeroed,
// must match testdata/query_golden.json byte for byte: the columns, the
// rows echoed, row_count, the plan digest and the cache flags. -update
// rewrites the table; only for an intended change to the response.
func TestQueryGolden(t *testing.T) {
	d := boot(t, "-n", "0", "-stale", "1")
	capAt := func(n int) *int { return &n }
	caps := []*int{nil, capAt(0), capAt(3), capAt(-1)}
	var got []queryCase
	for si, s := range serviceStatements() {
		rng := rand.New(rand.NewSource(int64(100 + si)))
		for draw := range 10 {
			// One draw per cap would move the bindings with the cap;
			// every cap sees the same draw.
			seed := rng.Int63()
			for _, maxRows := range caps {
				body := serviceBody(s, rand.New(rand.NewSource(seed)), maxRows)
				req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
				req.Header.Set("X-Tenant", fmt.Sprintf("t%d", draw%2))
				rec := serve(d, req)
				var resp queryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("%s: %v: %s", body, err, rec.Body)
				}
				out := elapsedField.ReplaceAll(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte(`"elapsed_ms":0`))
				c := queryCase{Stmt: si, Draw: draw, MaxRows: maxRows, Status: rec.Code, RowCount: resp.RowCount}
				if maxRows != nil && *maxRows < 0 {
					sum := sha256.Sum256(out)
					c.BodySHA256 = hex.EncodeToString(sum[:])
				} else {
					c.Body = string(out)
				}
				got = append(got, c)
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(queryGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(queryGoldenPath)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	var want []queryCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d exchanges, golden has %d", len(got), len(want))
	}
	stmts := serviceStatements()
	bad := 0
	for i := range got {
		g, w := got[i], want[i]
		if g.Status != w.Status || g.RowCount != w.RowCount || g.Body != w.Body || g.BodySHA256 != w.BodySHA256 {
			if bad++; bad <= 5 {
				t.Errorf("%q draw %d max_rows %s:\n got status %d row_count %d %s%s\nwant status %d row_count %d %s%s",
					stmts[g.Stmt].sql, g.Draw, capString(g.MaxRows),
					g.Status, g.RowCount, g.Body, g.BodySHA256, w.Status, w.RowCount, w.Body, w.BodySHA256)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d responses differ from %s", bad, len(got), queryGoldenPath)
	}
}

func capString(p *int) string {
	if p == nil {
		return "absent"
	}
	return fmt.Sprint(*p)
}
