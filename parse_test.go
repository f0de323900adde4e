package dynplan

import (
	"context"
	"strings"
	"testing"
)

func parseSystem(t *testing.T) *System {
	t.Helper()
	sys := New()
	sys.MustCreateRelation("emp", 800, 512,
		Attr{Name: "salary", DomainSize: 800, BTree: true},
		Attr{Name: "dept", DomainSize: 50, BTree: true},
	)
	sys.MustCreateRelation("dept", 50, 512,
		Attr{Name: "id", DomainSize: 50, BTree: true},
		Attr{Name: "size", DomainSize: 100, BTree: true},
	)
	return sys
}

func TestParseToQuery(t *testing.T) {
	sys := parseSystem(t)
	q, err := sys.Parse(`SELECT emp.salary, dept.id FROM emp, dept
		WHERE emp.salary <= ?limit AND emp.dept = dept.id AND dept.size <= 30
		ORDER BY dept.id`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Variables(); len(got) != 1 || got[0] != "limit" {
		t.Errorf("Variables = %v", got)
	}
	if q.OrderBy() != "dept.id" {
		t.Errorf("OrderBy = %q", q.OrderBy())
	}
	if p := q.Projection(); len(p) != 2 || p[0] != "emp.salary" {
		t.Errorf("Projection = %v", p)
	}
	// dept.size <= 30 over domain 100 => fixed selectivity 0.3.
	lq := q.q
	deptIdx := lq.RelIndex("dept")
	if pred := lq.Rels[deptIdx].Pred; pred == nil || pred.FixedSel != 0.3 {
		t.Errorf("literal predicate = %+v", lq.Rels[deptIdx].Pred)
	}
}

func TestParsedQueryOptimizesWithOrder(t *testing.T) {
	sys := parseSystem(t)
	q, err := sys.Parse(`SELECT * FROM emp, dept
		WHERE emp.salary <= ?limit AND emp.dept = dept.id ORDER BY dept.id`)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"static", "dynamic"} {
		var p *Plan
		if mode == "static" {
			p, err = sys.OptimizeStatic(q)
		} else {
			p, err = sys.OptimizeDynamic(q, Uncertainty{})
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Root().Ordering(); got != "dept.id" {
			t.Errorf("%s plan delivers %q, want dept.id\n%s", mode, got, p.Explain())
		}
	}
}

func TestParsedQueryExecutesWithProjection(t *testing.T) {
	sys := parseSystem(t)
	q, err := sys.Parse(`SELECT dept.id FROM emp, dept
		WHERE emp.salary <= ?limit AND emp.dept = dept.id ORDER BY dept.id`)
	if err != nil {
		t.Fatal(err)
	}
	db := sys.OpenDatabase()
	if err := db.GenerateData(5); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(context.Background(), p, Bindings{Selectivities: map[string]float64{"limit": 0.4}, MemoryPages: 64}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	projected, err := res.Project(q.Projection())
	if err != nil {
		t.Fatal(err)
	}
	if len(projected.Columns) != 1 || projected.Columns[0] != "dept.id" {
		t.Errorf("projected columns = %v", projected.Columns)
	}
	if len(projected.Rows) != len(res.Rows) {
		t.Error("projection changed row count")
	}
	// ORDER BY dept.id must hold in the executed result.
	col := 0
	for i := 1; i < len(projected.Rows); i++ {
		if projected.Rows[i-1][col] > projected.Rows[i][col] {
			t.Fatal("executed result not ordered by dept.id")
		}
	}
	if len(projected.Rows) == 0 {
		t.Error("no rows; test data too sparse to be meaningful")
	}
}

func TestParseRejects(t *testing.T) {
	sys := parseSystem(t)
	cases := []struct {
		query string
		want  string
	}{
		{"SELECT * FROM ghost", "unknown relation"},
		{"SELECT * FROM emp WHERE emp.ghost <= ?v", "no attribute"},
		{"SELECT * FROM emp WHERE ghost.a <= ?v", "not in FROM"},
		{"SELECT * FROM emp, emp", "listed twice"},
		{"SELECT * FROM emp WHERE emp.salary <= ?a AND emp.dept <= ?b", "more than one selection"},
		{"SELECT * FROM emp WHERE emp.salary <= 0", "selects nothing"},
		{"SELECT * FROM emp, dept", "not connected"},
		{"SELECT ghost.x FROM emp", "not in FROM"},
		{"SELECT * FROM emp ORDER BY ghost.x", "not in FROM"},
	}
	for _, tc := range cases {
		_, err := sys.Parse(tc.query)
		if err == nil {
			t.Errorf("%q: accepted", tc.query)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q lacks %q", tc.query, err, tc.want)
		}
	}
}

func TestParseLiteralClamp(t *testing.T) {
	sys := parseSystem(t)
	// Literal above the domain clamps to selectivity 1.
	q, err := sys.Parse("SELECT * FROM emp WHERE emp.salary <= 99999")
	if err != nil {
		t.Fatal(err)
	}
	if pred := q.q.Rels[0].Pred; pred.FixedSel != 1 {
		t.Errorf("clamped selectivity = %g", pred.FixedSel)
	}
}
