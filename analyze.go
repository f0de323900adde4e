package dynplan

// Analyze refreshes each loaded relation's catalog cardinality from the
// rows actually stored (an ANALYZE pass). It is the remedy for the
// stale-catalog drift the workload observatory's calibration table
// flags: once re-analyzed, subsequent optimizations predict over the true
// row counts and the interval violations stop.
//
// Analyze also bumps the database's catalog version. The shared plan
// cache keys on it, so every cached module compiled under the old
// statistics is implicitly invalidated: the next execution of any
// prepared statement re-optimizes against the refreshed catalog, and the
// stale entries are swept out eagerly to free capacity.
func (db *Database) Analyze() error {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	for _, rel := range db.sys.cat.Relations() {
		if !db.loaded[rel.Name] {
			continue
		}
		t, err := db.store.Table(rel.Name)
		if err != nil {
			return err
		}
		rel.Cardinality = t.NumRows()
	}
	v := db.catalogVersion.Add(1)
	db.planCache.InvalidateOlderThan(v)
	return nil
}
