package main

import (
	"fmt"
	"math/rand"
	"strings"

	"dynplan"
)

// Catalogs. Both are rebuilt through the public API on every set-up, so
// set-up time covers catalog + data + index build.

const (
	// paperCatalogSeed and paperDataSeed fix the §6 catalog and its rows:
	// the benchmark's -seed never reaches them, so every seed queries the
	// same database.
	paperCatalogSeed = 11
	paperDataSeed    = 17
	paperRelations   = 10

	// demoSeed is obsd's -seed: the mirror below must generate the same
	// rows the spawned server does.
	demoSeed      = 7
	demoRelations = 3
)

// engine is an opened, loaded, indexed database and the system it
// belongs to.
type engine struct {
	sys *dynplan.System
	db  *dynplan.Database
}

func open(sys *dynplan.System, dataSeed int64) (*engine, error) {
	db := sys.OpenDatabase()
	if err := db.GenerateData(dataSeed); err != nil {
		return nil, err
	}
	if err := db.BuildIndexes(); err != nil {
		return nil, err
	}
	return &engine{sys: sys, db: db}, nil
}

// paperEngine builds the paper's §6 environment: ten relations R1…R10,
// cardinalities uniform in [100, 1000], 512-byte records, three
// attributes (selection a, chain joins jl/jh) with domains 0.2–1.25 x
// the cardinality, unclustered B-trees on all of them.
func paperEngine() (*engine, error) {
	rng := rand.New(rand.NewSource(paperCatalogSeed))
	sys := dynplan.New()
	for i := 1; i <= paperRelations; i++ {
		card := 100 + rng.Intn(901)
		domain := func() int {
			return max(1, int(float64(card)*(0.2+rng.Float64()*1.05)))
		}
		sys.MustCreateRelation(fmt.Sprintf("R%d", i), card, 512,
			dynplan.Attr{Name: "a", DomainSize: domain(), BTree: true},
			dynplan.Attr{Name: "jl", DomainSize: domain(), BTree: true},
			dynplan.Attr{Name: "jh", DomainSize: domain(), BTree: true},
		)
	}
	return open(sys, paperDataSeed)
}

// demoEngine mirrors the database `obsd -seed 7 -stale 1` serves: E1…E3,
// 400 rows each, no stale surplus. http_service verifies the server's
// row counts against it.
func demoEngine() (*engine, error) {
	sys := dynplan.New()
	for i := 1; i <= demoRelations; i++ {
		sys.MustCreateRelation(fmt.Sprintf("E%d", i), 400, 512,
			dynplan.Attr{Name: "a", DomainSize: 400, BTree: true},
			dynplan.Attr{Name: "jl", DomainSize: 80, BTree: true},
			dynplan.Attr{Name: "jh", DomainSize: 80, BTree: true},
		)
	}
	return open(sys, demoSeed)
}

// statement is one SQL text and the host variables it binds.
type statement struct {
	sql  string
	vars []string
}

// chainSQL renders the chain join prefix<lo> ⋈ … ⋈ prefix<lo+n-1>: one
// unbound selection "a <= ?v<i>" per relation and join edges
// jh = next.jl, optionally ordered by the first relation's selection
// attribute and projected to the selection attributes of both ends.
func chainSQL(prefix string, lo, n int, orderBy, project bool) statement {
	rel := func(i int) string { return fmt.Sprintf("%s%d", prefix, i) }
	var from, where, vars []string
	for i := lo; i < lo+n; i++ {
		v := fmt.Sprintf("v%d", i)
		from = append(from, rel(i))
		where = append(where, fmt.Sprintf("%s.a <= ?%s", rel(i), v))
		vars = append(vars, v)
	}
	for i := lo; i+1 < lo+n; i++ {
		where = append(where, fmt.Sprintf("%s.jh = %s.jl", rel(i), rel(i+1)))
	}
	cols := "*"
	if project {
		cols = rel(lo) + ".a"
		if n > 1 {
			cols += ", " + rel(lo+n-1) + ".a"
		}
	}
	sql := fmt.Sprintf("SELECT %s FROM %s WHERE %s", cols, strings.Join(from, ", "), strings.Join(where, " AND "))
	if orderBy {
		sql += " ORDER BY " + rel(lo) + ".a"
	}
	return statement{sql: sql, vars: vars}
}
