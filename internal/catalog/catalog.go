// Package catalog models the database schema and statistics the optimizer
// consumes: relations, attributes, value domains, and index availability.
//
// The statistics follow the experimental setup of Cole & Graefe (SIGMOD
// 1994, §6): relations of 100–1,000 records of 512 bytes stored in
// 2,048-byte pages, attribute domain sizes between 0.2 and 1.25 times the
// relation cardinality, and unclustered B-tree indexes on the attributes
// referenced by selection and join predicates. Nothing in the optimizer
// depends on those particular numbers; they are simply the defaults the
// experiment harness installs.
package catalog

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// PageBytes is the size of a disk page. All I/O in the cost model and the
// simulated storage layer happens in units of this size.
const PageBytes = 2048

// Catalog is the collection of relations known to the optimizer. The zero
// value is empty and ready to use via AddRelation.
type Catalog struct {
	relations map[string]*Relation
	order     []string
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{relations: make(map[string]*Relation)}
}

// AddRelation registers a relation. It returns an error if the name is
// already taken or the relation is malformed.
func (c *Catalog) AddRelation(r *Relation) error {
	if err := r.validate(); err != nil {
		return err
	}
	if c.relations == nil {
		c.relations = make(map[string]*Relation)
	}
	if _, dup := c.relations[r.Name]; dup {
		return fmt.Errorf("catalog: relation %q already exists", r.Name)
	}
	c.relations[r.Name] = r
	c.order = append(c.order, r.Name)
	return nil
}

// Relation looks up a relation by name.
func (c *Catalog) Relation(name string) (*Relation, error) {
	r, ok := c.relations[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q", name)
	}
	return r, nil
}

// MustRelation is Relation for callers that know the name is valid, such
// as the experiment harness operating on its own synthetic schema.
func (c *Catalog) MustRelation(name string) *Relation {
	r, err := c.Relation(name)
	if err != nil {
		panic(err)
	}
	return r
}

// Relations returns the relations in insertion order.
func (c *Catalog) Relations() []*Relation {
	rs := make([]*Relation, 0, len(c.order))
	for _, name := range c.order {
		rs = append(rs, c.relations[name])
	}
	return rs
}

// Len returns the number of relations.
func (c *Catalog) Len() int { return len(c.order) }

// Relation describes one stored relation and its statistics.
type Relation struct {
	// Name identifies the relation; it must be unique within a catalog.
	Name string
	// Cardinality is the number of records.
	Cardinality int
	// RecordBytes is the width of one record on disk.
	RecordBytes int
	// Attrs lists the attributes in schema order.
	Attrs []*Attribute

	// qualified caches the attributes' qualified names (see
	// QualifiedNames), and byName the attributes sorted by name (see
	// AttrsByName).
	qualified []string
	byName    []*Attribute
}

// NewRelation builds a relation with the given attributes. Attribute names
// must be unique within the relation.
func NewRelation(name string, cardinality, recordBytes int, attrs ...*Attribute) *Relation {
	r := &Relation{Name: name, Cardinality: cardinality, RecordBytes: recordBytes, Attrs: attrs}
	r.attach()
	return r
}

// attach points the attributes at their relation and caches their
// qualified names and their name order.
func (r *Relation) attach() {
	r.qualified = make([]string, len(r.Attrs))
	for i, a := range r.Attrs {
		a.Rel = r
		a.qualified = r.Name + "." + a.Name
		r.qualified[i] = a.qualified
	}
	r.byName = slices.SortedFunc(slices.Values(r.Attrs), func(a, b *Attribute) int {
		return strings.Compare(a.Name, b.Name)
	})
}

// QualifiedNames returns the attributes' qualified names ("R.a") in schema
// order — the executor's schema of a base relation — computed once when
// the relation is built or registered. The slice is shared: callers must
// not modify it.
func (r *Relation) QualifiedNames() []string { return r.qualified }

func (r *Relation) validate() error {
	if r.Name == "" {
		return fmt.Errorf("catalog: relation with empty name")
	}
	if r.Cardinality < 0 {
		return fmt.Errorf("catalog: relation %q has negative cardinality", r.Name)
	}
	if r.RecordBytes <= 0 {
		return fmt.Errorf("catalog: relation %q has non-positive record size", r.Name)
	}
	seen := make(map[string]bool, len(r.Attrs))
	for _, a := range r.Attrs {
		if a.Name == "" {
			return fmt.Errorf("catalog: relation %q has attribute with empty name", r.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("catalog: relation %q has duplicate attribute %q", r.Name, a.Name)
		}
		if a.DomainSize <= 0 {
			return fmt.Errorf("catalog: attribute %s.%s has non-positive domain size", r.Name, a.Name)
		}
		seen[a.Name] = true
	}
	r.attach()
	return nil
}

// Attribute looks up an attribute by name.
func (r *Relation) Attribute(name string) (*Attribute, error) {
	for _, a := range r.Attrs {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("catalog: relation %q has no attribute %q", r.Name, name)
}

// MustAttribute is Attribute for known-valid names.
func (r *Relation) MustAttribute(name string) *Attribute {
	a, err := r.Attribute(name)
	if err != nil {
		panic(err)
	}
	return a
}

// AttrIndex returns the position of the named attribute in schema order,
// or -1 if absent. The execution engine addresses row fields by position.
func (r *Relation) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Pages returns the number of disk pages the relation occupies.
func (r *Relation) Pages() int {
	if r.Cardinality == 0 {
		return 0
	}
	perPage := PageBytes / r.RecordBytes
	if perPage < 1 {
		perPage = 1
	}
	return int(math.Ceil(float64(r.Cardinality) / float64(perPage)))
}

// AttrsByName returns the attributes sorted by name, the order that keeps
// the optimizer's output deterministic, computed once like QualifiedNames
// (indexes come and go, so which carry a B-tree is read at use). Shared:
// callers must not modify it.
func (r *Relation) AttrsByName() []*Attribute { return r.byName }

// Attribute describes one column of a relation together with the
// statistics and access structures the cost model uses.
type Attribute struct {
	// Rel is the owning relation, set when the attribute is attached.
	Rel *Relation
	// Name identifies the attribute within its relation.
	Name string
	// DomainSize is the number of distinct values; values are assumed
	// uniformly distributed over [0, DomainSize), the estimation model of
	// the paper's prototype.
	DomainSize int
	// BTree records whether an unclustered B-tree index exists on this
	// attribute. Index existence is itself a run-time-variable property in
	// general; here it is a compile-time fact, as in the paper's
	// experiments.
	BTree bool

	// qualified caches QualifiedName once the attribute is attached.
	qualified string
}

// NewAttribute builds an attribute description.
func NewAttribute(name string, domainSize int, btree bool) *Attribute {
	return &Attribute{Name: name, DomainSize: domainSize, BTree: btree}
}

// QualifiedName returns "relation.attribute", or the bare name of an
// attribute not attached to a relation.
func (a *Attribute) QualifiedName() string {
	if a.qualified == "" {
		return a.Name
	}
	return a.qualified
}
