package dynplan

import (
	"fmt"
	"slices"

	"dynplan/internal/catalog"
	"dynplan/internal/sqlish"
)

// Parse compiles a SQL-ish statement against the system's catalog:
//
//	SELECT * FROM emp, dept
//	WHERE emp.salary <= ?limit AND emp.dept = dept.id
//	ORDER BY dept.id
//
// Range predicates take a host variable ("?limit", bound at start-up) or
// a numeric literal (whose selectivity is derived from the attribute's
// domain). ORDER BY requires the final plan to deliver that sort order
// (through the Sort enforcer when no access path provides it). The
// projection list, if not '*', is applied to execution results.
func (s *System) Parse(query string) (*Query, error) {
	st, err := sqlish.Parse(query)
	if err != nil {
		return nil, err
	}

	// A statement is small: linear search finds relations, and the spec
	// and its predicates are cut to size.
	spec := QuerySpec{Relations: make([]RelSpec, len(st.Relations)), Joins: make([]JoinSpec, len(st.Joins))}
	for i, name := range st.Relations {
		if slices.Contains(st.Relations[:i], name) {
			return nil, fmt.Errorf("dynplan: relation %q listed twice in FROM (self joins are not supported)", name)
		}
		spec.Relations[i].Name = name
	}

	// column resolves a column reference to its catalog attribute and the
	// position of its relation in FROM.
	column := func(c sqlish.Column) (*catalog.Attribute, int, error) {
		i := slices.Index(st.Relations, c.Rel)
		if i < 0 {
			return nil, 0, fmt.Errorf("dynplan: column %s references a relation not in FROM", c)
		}
		rel, err := s.cat.Relation(c.Rel)
		if err != nil {
			return nil, 0, err
		}
		attr, err := rel.Attribute(c.Attr)
		return attr, i, err
	}

	preds := make([]Pred, len(st.Selections))
	for k, sel := range st.Selections {
		attr, i, err := column(sel.Col)
		if err != nil {
			return nil, err
		}
		if spec.Relations[i].Pred != nil {
			return nil, fmt.Errorf("dynplan: relation %q has more than one selection predicate (one per relation, as in the paper's prototype)", sel.Col.Rel)
		}
		pred := &preds[k]
		pred.Attr = sel.Col.Attr
		if sel.Variable != "" {
			pred.Variable = sel.Variable
		} else {
			selectivity := sel.Literal / float64(attr.DomainSize)
			if selectivity <= 0 {
				return nil, fmt.Errorf("dynplan: literal predicate %s <= %g selects nothing", sel.Col, sel.Literal)
			}
			pred.Selectivity = min(selectivity, 1)
		}
		spec.Relations[i].Pred = pred
	}

	for k, j := range st.Joins {
		if _, _, err := column(j.Left); err != nil {
			return nil, err
		}
		if _, _, err := column(j.Right); err != nil {
			return nil, err
		}
		spec.Joins[k] = JoinSpec{
			LeftRel: j.Left.Rel, LeftAttr: j.Left.Attr,
			RightRel: j.Right.Rel, RightAttr: j.Right.Attr,
		}
	}

	q, err := s.BuildQuery(spec)
	if err != nil {
		return nil, err
	}
	// The catalog holds every qualified name: no string is built here.
	if st.OrderBy != nil {
		attr, _, err := column(*st.OrderBy)
		if err != nil {
			return nil, err
		}
		q.orderBy = attr.QualifiedName()
	}
	q.projection = make([]string, len(st.Columns)) // none for SELECT *
	for k, c := range st.Columns {
		attr, _, err := column(c)
		if err != nil {
			return nil, err
		}
		q.projection[k] = attr.QualifiedName()
	}
	return q, nil
}
