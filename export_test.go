package dynplan

// ClearGovernor removes the governor and circuit breaker; Governed
// executions revert to their ungoverned behaviour.
func (db *Database) ClearGovernor() { db.gov, db.breaker = nil, nil }

// OutstandingGrantPages returns the pages granted and not yet released —
// zero whenever no governed query is in flight, the invariant the chaos
// soaks assert.
func (db *Database) OutstandingGrantPages() float64 {
	if db.gov == nil {
		return 0
	}
	return db.gov.Broker().Outstanding()
}
