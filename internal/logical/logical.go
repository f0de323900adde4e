// Package logical defines the optimizer's input: the logical algebra of
// the paper's prototype (Get-Set, Select, Join; Table 1) in the normalized
// form the search engine consumes.
//
// A Query is a select-project-join expression: a set of base relations,
// each optionally restricted by one selection predicate, connected by
// equi-join edges. Selections are pushed onto their base relations (every
// textbook normalization), so the logical search space is exactly the space
// of bushy join trees over connected sub-queries — the space the paper's
// transformation rules (join commutativity and associativity, "all bushy
// trees") generate.
//
// Logical properties follow §2 of the paper: the schema of a sub-query is
// the set of relations it covers, and its cardinality is an *interval*
// because selection selectivities may be unbound at compile-time (the
// physical layer's lowered program evaluates it). Join predicate
// selectivities are computed from the catalog as |L|·|R| ÷ max(domain
// sizes) (§6) and are always known.
package logical

import (
	"fmt"
	"math/bits"
	"strings"

	"dynplan/internal/catalog"
)

// RelSet is a bitset of base-relation positions within a query. Queries of
// up to 64 relations are supported, far beyond the paper's largest (10).
type RelSet uint64

// Bit returns the singleton set {i}.
func Bit(i int) RelSet { return RelSet(1) << uint(i) }

// Has reports whether relation i is in the set.
func (s RelSet) Has(i int) bool { return s&Bit(i) != 0 }

// Count returns the number of relations in the set.
func (s RelSet) Count() int { return bits.OnesCount64(uint64(s)) }

// IsSingleton reports whether the set has exactly one member.
func (s RelSet) IsSingleton() bool { return s != 0 && s&(s-1) == 0 }

// Single returns the position of the only member of a singleton set.
func (s RelSet) Single() int { return bits.TrailingZeros64(uint64(s)) }

// Members returns the positions in ascending order.
func (s RelSet) Members() []int {
	out := make([]int, 0, s.Count())
	for t := s; t != 0; t &= t - 1 {
		out = append(out, bits.TrailingZeros64(uint64(t)))
	}
	return out
}

// SelPred is a selection predicate on one attribute of a base relation.
// Two forms exist:
//   - unbound: "Attr <= ?Variable" with a host variable whose selectivity
//     the compile-time environment describes as a range;
//   - bound: a literal predicate with known selectivity FixedSel.
type SelPred struct {
	Attr *catalog.Attribute
	// Variable names the host variable; empty for a bound predicate.
	Variable string
	// FixedSel is the known selectivity of a bound predicate.
	FixedSel float64
}

// String renders the predicate.
func (p *SelPred) String() string {
	if p == nil {
		return "true"
	}
	if p.Variable != "" {
		return fmt.Sprintf("%s <= ?%s", p.Attr.QualifiedName(), p.Variable)
	}
	return fmt.Sprintf("%s (sel=%.3g)", p.Attr.QualifiedName(), p.FixedSel)
}

// QRel is one base relation of a query together with its (optional)
// selection predicate.
type QRel struct {
	Rel  *catalog.Relation
	Pred *SelPred
}

// JoinEdge is an equi-join predicate between two base relations,
// identified by their positions in Query.Rels.
type JoinEdge struct {
	Left, Right         int
	LeftAttr, RightAttr *catalog.Attribute
}

// Selectivity returns the edge's (always known) selectivity,
// 1 ÷ max(domain sizes), per the paper's estimation model (§6).
func (e JoinEdge) Selectivity() float64 {
	d := e.LeftAttr.DomainSize
	if e.RightAttr.DomainSize > d {
		d = e.RightAttr.DomainSize
	}
	if d <= 0 {
		return 1
	}
	return 1 / float64(d)
}

// Connects reports whether the edge crosses between the two disjoint sets.
func (e JoinEdge) Connects(l, r RelSet) bool {
	return (l.Has(e.Left) && r.Has(e.Right)) || (l.Has(e.Right) && r.Has(e.Left))
}

// Query is a normalized select-project-join query.
type Query struct {
	Rels  []QRel
	Edges []JoinEdge
}

// Validate checks structural sanity: attribute ownership, edge endpoints,
// and connectedness (the optimizer does not enumerate cross products, the
// standard restriction of System R-lineage optimizers).
func (q *Query) Validate() error {
	if len(q.Rels) == 0 {
		return fmt.Errorf("logical: query has no relations")
	}
	if len(q.Rels) > 64 {
		return fmt.Errorf("logical: query has %d relations; max 64", len(q.Rels))
	}
	for i, r := range q.Rels {
		if r.Rel == nil {
			return fmt.Errorf("logical: relation %d is nil", i)
		}
		if r.Pred != nil && r.Pred.Attr != nil && r.Pred.Attr.Rel != r.Rel {
			return fmt.Errorf("logical: selection on %s does not belong to relation %s",
				r.Pred.Attr.QualifiedName(), r.Rel.Name)
		}
	}
	for _, e := range q.Edges {
		if e.Left < 0 || e.Left >= len(q.Rels) || e.Right < 0 || e.Right >= len(q.Rels) {
			return fmt.Errorf("logical: join edge references relation out of range")
		}
		if e.Left == e.Right {
			return fmt.Errorf("logical: join edge joins relation %d with itself", e.Left)
		}
		if e.LeftAttr == nil || e.RightAttr == nil {
			return fmt.Errorf("logical: join edge with nil attribute")
		}
		if e.LeftAttr.Rel != q.Rels[e.Left].Rel || e.RightAttr.Rel != q.Rels[e.Right].Rel {
			return fmt.Errorf("logical: join edge attributes do not match endpoint relations")
		}
	}
	if !q.Connected(q.AllRels()) {
		return fmt.Errorf("logical: query join graph is not connected (cross products are not enumerated)")
	}
	return nil
}

// AllRels returns the set of every relation in the query.
func (q *Query) AllRels() RelSet {
	return RelSet(1)<<uint(len(q.Rels)) - 1
}

// Connected reports whether the join graph restricted to s is connected.
func (q *Query) Connected(s RelSet) bool {
	var adj [64]RelSet
	return q.graph(adj[:len(q.Rels)]).Connected(s)
}

// Graph is a query's join graph as one adjacency mask per relation: bit j
// of Graph[i] is set when a join edge links relations i and j. A search
// builds its own before it starts, so concurrent searches share nothing.
type Graph []RelSet

// Graph returns the query's join graph.
func (q *Query) Graph() Graph { return q.graph(make(Graph, len(q.Rels))) }

// graph fills g, one zeroed mask per relation, from the edges.
func (q *Query) graph(g Graph) Graph {
	for _, e := range q.Edges {
		g[e.Left] |= Bit(e.Right)
		g[e.Right] |= Bit(e.Left)
	}
	return g
}

// Connected reports whether the graph restricted to s is connected: a
// flood fill from s's lowest member over the adjacency masks.
func (g Graph) Connected(s RelSet) bool {
	if s == 0 {
		return false
	}
	reached := s & -s
	for frontier := reached; frontier != 0; {
		next := RelSet(0)
		for t := frontier; t != 0; t &= t - 1 {
			next |= g[bits.TrailingZeros64(uint64(t))]
		}
		frontier = next & s &^ reached
		reached |= frontier
	}
	return reached == s
}

// Joined reports whether some join edge links the disjoint sets l and r.
func (g Graph) Joined(l, r RelSet) bool {
	for t := l; t != 0; t &= t - 1 {
		if g[bits.TrailingZeros64(uint64(t))]&r != 0 {
			return true
		}
	}
	return false
}

// RowBytes returns the record width of the sub-query covering s: the sum
// of the member relations' record widths (joins concatenate records).
func (q *Query) RowBytes(s RelSet) int {
	w := 0
	for t := s; t != 0; t &= t - 1 {
		w += q.Rels[bits.TrailingZeros64(uint64(t))].Rel.RecordBytes
	}
	return w
}

// Variables returns the host variables appearing in the query's selection
// predicates, in relation order.
func (q *Query) Variables() []string {
	var out []string
	for _, r := range q.Rels {
		if r.Pred != nil && r.Pred.Variable != "" {
			out = append(out, r.Pred.Variable)
		}
	}
	return out
}

// RelIndex returns the position of the named relation, or -1.
func (q *Query) RelIndex(name string) int {
	for i, r := range q.Rels {
		if r.Rel.Name == name {
			return i
		}
	}
	return -1
}

// LogicalAlternatives returns the number of distinct bushy join trees
// (counting commuted operand orders as distinct, as the paper does when it
// reports e.g. 74,022,912 alternatives for the ten-way join) over the
// connected set s, excluding cross products. For a singleton it returns 1.
func (q *Query) LogicalAlternatives(s RelSet) float64 {
	return q.Graph().countTrees(s, make(map[RelSet]float64))
}

func (g Graph) countTrees(s RelSet, memo map[RelSet]float64) float64 {
	if s.IsSingleton() {
		return 1
	}
	if v, ok := memo[s]; ok {
		return v
	}
	total := 0.0
	for l := (s - 1) & s; l != 0; l = (l - 1) & s {
		r := s &^ l
		if g.Joined(l, r) && g.Connected(l) && g.Connected(r) {
			total += g.countTrees(l, memo) * g.countTrees(r, memo)
		}
	}
	memo[s] = total
	return total
}

// String renders the query in a compact algebraic form.
func (q *Query) String() string {
	var b strings.Builder
	for i, r := range q.Rels {
		if i > 0 {
			b.WriteString(" ⋈ ")
		}
		if r.Pred != nil {
			fmt.Fprintf(&b, "σ[%s](%s)", r.Pred, r.Rel.Name)
		} else {
			b.WriteString(r.Rel.Name)
		}
	}
	return b.String()
}
