package dynplan

import (
	"fmt"

	"dynplan/internal/stats"
)

// Analyze builds equi-depth histograms over every attribute of every
// loaded relation (an ANALYZE pass) and refreshes each loaded relation's
// catalog cardinality from the rows actually stored. Afterwards
// EstimateSelectivity and BindValue use distribution-aware estimates
// instead of the uniform value ÷ domain assumption — eliminating at the
// source much of the selectivity estimation error that otherwise only
// run-time observation (ExecOptions.Adaptive) can absorb. The cardinality refresh
// is the remedy for the stale-catalog drift the workload observatory's
// calibration table flags: once re-analyzed, subsequent optimizations
// predict over the true row counts and the interval violations stop.
//
// Analyze also bumps the database's catalog version. The shared plan
// cache keys on it, so every cached module compiled under the old
// statistics is implicitly invalidated: the next execution of any
// prepared statement re-optimizes against the refreshed catalog, and the
// stale entries are swept out eagerly to free capacity.
func (db *Database) Analyze(buckets int) error {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	if db.histograms == nil {
		db.histograms = make(map[string]map[string]*stats.Histogram)
	}
	analyzer := stats.Analyzer{Buckets: buckets}
	for _, rel := range db.sys.cat.Relations() {
		if !db.loaded[rel.Name] {
			continue
		}
		t, err := db.store.Table(rel.Name)
		if err != nil {
			return err
		}
		rel.Cardinality = t.NumRows()
		if db.histograms[rel.Name] == nil {
			db.histograms[rel.Name] = make(map[string]*stats.Histogram)
		}
		for j, a := range rel.Attrs {
			h, err := analyzer.Analyze(t, j)
			if err != nil {
				return fmt.Errorf("dynplan: analyzing %s.%s: %w", rel.Name, a.Name, err)
			}
			db.histograms[rel.Name][a.Name] = h
		}
	}
	v := db.catalogVersion.Add(1)
	db.planCache.InvalidateOlderThan(v)
	return nil
}

// Analyzed reports whether Analyze has been run for the relation.
func (db *Database) Analyzed(rel string) bool {
	db.statsMu.RLock()
	defer db.statsMu.RUnlock()
	return db.histograms[rel] != nil
}

// EstimateSelectivity estimates the fraction of rel's rows satisfying
// "attr < limit". With histograms (after Analyze) the estimate is
// distribution-aware; otherwise it falls back to the uniform assumption
// the paper's prototype uses (limit ÷ domain size).
func (db *Database) EstimateSelectivity(relName, attrName string, limit float64) (float64, error) {
	db.statsMu.RLock()
	defer db.statsMu.RUnlock()
	rel, err := db.sys.cat.Relation(relName)
	if err != nil {
		return 0, err
	}
	attr, err := rel.Attribute(attrName)
	if err != nil {
		return 0, err
	}
	if hs := db.histograms[relName]; hs != nil {
		if h := hs[attrName]; h != nil {
			return h.SelectivityLE(limit), nil
		}
	}
	sel := limit / float64(attr.DomainSize)
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel, nil
}

// BindValue binds a host variable from a literal predicate value
// ("attr < value" on rel), using the best available selectivity estimate
// (histogram if analyzed, uniform otherwise). It modifies and returns b
// for chaining.
func (db *Database) BindValue(b *Bindings, variable, relName, attrName string, value float64) (*Bindings, error) {
	sel, err := db.EstimateSelectivity(relName, attrName, value)
	if err != nil {
		return nil, err
	}
	if b.Selectivities == nil {
		b.Selectivities = make(map[string]float64)
	}
	b.Selectivities[variable] = sel
	return b, nil
}
