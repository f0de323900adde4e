package dynplan

// Prepared queries: the paper's embedded-query scenario (§1) as a
// service. In the original setting a query is compiled once, its access
// module stored, and every later invocation pays only start-up-time
// processing — activation of the stored dynamic plan under the current
// host-variable bindings. Prepare generalizes that to a multi-tenant
// online system: compiled modules live in the database's shared plan
// cache, keyed on (query digest, catalog version), so the
// first execution of a statement — by any tenant — pays the full
// optimization and every later one re-activates the shared immutable
// artifact. An Analyze pass bumps the catalog version and thereby
// invalidates every plan compiled under the old statistics.

import (
	"context"
	"encoding/binary"
	"math"

	"dynplan/internal/obs"
	"dynplan/internal/plancache"
)

// PreparedQuery is a reusable handle on a query whose compiled plan is
// resolved through the database's shared plan cache at execution time.
// It is immutable and safe for concurrent Exec calls; distinct
// PreparedQuery values for digest-identical queries share one cached
// module.
type PreparedQuery struct {
	db     *Database
	q      *Query
	digest string
}

// Prepare registers the query for repeated execution and warms the plan
// cache: the dynamic plan is compiled (or found cached) under the
// current catalog version. The returned handle enters the execution
// pipeline at the Activate stage on every Exec — compile once, activate
// per binding set.
func (db *Database) Prepare(q *Query) (*PreparedQuery, error) {
	p := &PreparedQuery{db: db, q: q, digest: queryDigest(q)}
	if _, _, _, err := p.module(); err != nil {
		return nil, err
	}
	return p, nil
}

// queryDigest returns the stable digest prepared statements are cached
// under: a hash of everything the compiled plan depends on — the
// relations in order, each selection's attribute, variable and exact
// literal selectivity, each join edge, the order-by and the projection.
// An edge's orientation is not part of it.
func queryDigest(q *Query) string {
	var buf [512]byte // the identity of a query over a dozen relations fits
	b := binary.AppendUvarint(buf[:0], uint64(len(q.q.Rels)))
	for _, r := range q.q.Rels {
		b = appendField(b, r.Rel.Name)
		if p := r.Pred; p != nil {
			b = appendField(appendField(append(b, 1), p.Attr.Name), p.Variable)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.FixedSel))
		} else {
			b = append(b, 0)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(q.q.Edges)))
	for _, e := range q.q.Edges {
		// The lower relation first: R.k = S.k and S.k = R.k are one edge
		// to every consumer, so the two spellings share one entry.
		if e.Left > e.Right {
			e.Left, e.Right, e.LeftAttr, e.RightAttr = e.Right, e.Left, e.RightAttr, e.LeftAttr
		}
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(e.Left)), uint64(e.Right))
		b = appendField(appendField(b, e.LeftAttr.Name), e.RightAttr.Name)
	}
	b = appendField(b, q.orderBy)
	for _, c := range q.projection {
		b = appendField(b, c)
	}
	return obs.Digest(b)
}

// appendField appends s behind its length, so no two field sequences
// encode alike.
func appendField(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Query returns the underlying query.
func (p *PreparedQuery) Query() *Query { return p.q }

// module resolves the compiled access module through the shared plan
// cache at the current catalog version: a miss optimizes the dynamic
// plan and serializes the module; a hit — including joining another
// caller's in-flight compilation — returns the shared immutable
// artifact.
func (p *PreparedQuery) module() (*Module, bool, plancache.Key, error) {
	key := plancache.Key{Digest: p.digest, CatalogVersion: p.db.catalogVersion.Load()}
	v, hit, err := p.db.planCache.Do(key, func() (any, error) {
		// The read lock orders this compilation against a concurrent
		// Analyze pass rewriting the catalog statistics mid-service.
		p.db.statsMu.RLock()
		defer p.db.statsMu.RUnlock()
		dyn, err := p.db.sys.OptimizeDynamic(p.q, Uncertainty{})
		if err != nil {
			return nil, err
		}
		return dyn.module()
	})
	if err != nil {
		return nil, false, key, err
	}
	return v.(*Module), hit, key, nil
}

// Exec runs the prepared query under the bindings, entering the
// execution pipeline at the Activate stage with the cache-resolved
// module — every option (governance, resilience, re-optimization,
// tracing) composes exactly as with Database.Exec on a module target. The result's PlanCacheHit and Tenant fields report the
// cache verdict and the identity the query ran under.
func (p *PreparedQuery) Exec(ctx context.Context, b Bindings, o ExecOptions) (*ExecResult, error) {
	mod, hit, key, err := p.module()
	if err != nil {
		return nil, err
	}
	o.cacheKey = &key
	o.cacheHit = hit
	return p.db.Exec(ctx, mod, b, o)
}
