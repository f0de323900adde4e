package dynplan

import (
	"fmt"

	"dynplan/internal/catalog"
	"dynplan/internal/cost"
	"dynplan/internal/logical"
	"dynplan/internal/physical"
	"dynplan/internal/search"
)

// System is a database instance from the optimizer's point of view: a
// catalog with statistics, cost-model parameters, and search settings.
type System struct {
	cat    *catalog.Catalog
	params physical.Params
	cfg    search.Config
}

// Params re-exports the cost-model constants; see the fields of
// internal/physical.Params for documentation.
type Params = physical.Params

// DefaultParams returns the calibrated constants of the paper's §6
// environment.
func DefaultParams() Params { return physical.DefaultParams() }

// New creates an empty system.
func New() *System {
	s := &System{cat: catalog.New(), params: physical.DefaultParams()}
	s.cfg.Params = s.params
	return s
}

// Attr declares one attribute of a relation.
type Attr struct {
	// Name is the attribute name, unique within the relation.
	Name string
	// DomainSize is the number of distinct values; values are modeled as
	// uniform over [0, DomainSize).
	DomainSize int
	// BTree declares an unclustered B-tree index on the attribute.
	BTree bool
}

// CreateRelation registers a relation with its statistics.
func (s *System) CreateRelation(name string, cardinality, recordBytes int, attrs ...Attr) error {
	cattrs := make([]*catalog.Attribute, len(attrs))
	for i, a := range attrs {
		cattrs[i] = catalog.NewAttribute(a.Name, a.DomainSize, a.BTree)
	}
	return s.cat.AddRelation(catalog.NewRelation(name, cardinality, recordBytes, cattrs...))
}

// MustCreateRelation is CreateRelation panicking on error, for program
// setup code.
func (s *System) MustCreateRelation(name string, cardinality, recordBytes int, attrs ...Attr) {
	if err := s.CreateRelation(name, cardinality, recordBytes, attrs...); err != nil {
		panic(err)
	}
}

// Catalog exposes the underlying catalog, mainly for advanced callers and
// the experiment harness.
func (s *System) Catalog() *catalog.Catalog { return s.cat }

// Pred is a selection predicate "Attr <= ?Variable" with a host variable
// bound at start-up-time, or — when Variable is empty — a bound predicate
// with known Selectivity.
type Pred struct {
	Attr        string
	Variable    string
	Selectivity float64
}

// RelSpec names one relation of a query and its optional selection.
type RelSpec struct {
	Name string
	Pred *Pred
}

// JoinSpec is an equi-join edge between two relations of the query.
type JoinSpec struct {
	LeftRel, LeftAttr   string
	RightRel, RightAttr string
}

// QuerySpec declares a select-project-join query.
type QuerySpec struct {
	Relations []RelSpec
	Joins     []JoinSpec
}

// Query is a validated query ready for optimization.
type Query struct {
	q *logical.Query
	// orderBy is the qualified attribute of an ORDER BY clause; the
	// optimizer must produce plans delivering this sort order.
	orderBy string
	// projection lists the output columns (empty = all).
	projection []string
}

// OrderBy returns the qualified attribute of the query's ORDER BY
// clause, or "".
func (q *Query) OrderBy() string { return q.orderBy }

// Projection returns the projected output columns (nil = all).
func (q *Query) Projection() []string { return append([]string(nil), q.projection...) }

// String renders the query algebraically, for display only: it leaves
// out join predicates and rounds literals (queryDigest identifies it).
func (q *Query) String() string { return q.q.String() }

// Variables returns the host variables the query references.
func (q *Query) Variables() []string { return q.q.Variables() }

// BuildQuery validates a QuerySpec against the catalog and returns the
// query. The join graph must be connected (cross products are not
// enumerated, as in the paper's prototype).
func (s *System) BuildQuery(spec QuerySpec) (*Query, error) {
	// The query's relations, edges and predicates are cut to size.
	preds := make([]logical.SelPred, len(spec.Relations))
	lq := &logical.Query{
		Rels:  make([]logical.QRel, len(spec.Relations)),
		Edges: make([]logical.JoinEdge, 0, len(spec.Joins)),
	}
	for i, rs := range spec.Relations {
		rel, err := s.cat.Relation(rs.Name)
		if err != nil {
			return nil, err
		}
		lq.Rels[i].Rel = rel
		if rs.Pred != nil {
			attr, err := rel.Attribute(rs.Pred.Attr)
			if err != nil {
				return nil, err
			}
			if rs.Pred.Variable == "" && (rs.Pred.Selectivity <= 0 || rs.Pred.Selectivity > 1) {
				return nil, fmt.Errorf("dynplan: bound predicate on %s.%s needs a selectivity in (0, 1]", rs.Name, rs.Pred.Attr)
			}
			preds[i] = logical.SelPred{Attr: attr, Variable: rs.Pred.Variable, FixedSel: rs.Pred.Selectivity}
			lq.Rels[i].Pred = &preds[i]
		}
	}
	for _, js := range spec.Joins {
		li := lq.RelIndex(js.LeftRel)
		ri := lq.RelIndex(js.RightRel)
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("dynplan: join references relation not in query: %s ⋈ %s", js.LeftRel, js.RightRel)
		}
		la, err := lq.Rels[li].Rel.Attribute(js.LeftAttr)
		if err != nil {
			return nil, err
		}
		ra, err := lq.Rels[ri].Rel.Attribute(js.RightAttr)
		if err != nil {
			return nil, err
		}
		lq.Edges = append(lq.Edges, logical.JoinEdge{Left: li, Right: ri, LeftAttr: la, RightAttr: ra})
	}
	if err := lq.Validate(); err != nil {
		return nil, err
	}
	return &Query{q: lq}, nil
}

// CostInterval is a plan's anticipated execution-cost interval in seconds.
// Lo == Hi for fully determined (static) costs.
type CostInterval struct {
	Lo, Hi float64
}

func fromCost(c cost.Cost) CostInterval { return CostInterval{Lo: c.Lo, Hi: c.Hi} }

// String renders the interval.
func (c CostInterval) String() string { return cost.Cost(c).String() }
