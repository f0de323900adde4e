package logical

import (
	"strings"
	"testing"

	"dynplan/internal/catalog"
)

// chainQuery builds an n-relation chain with one unbound selection per
// relation, the experimental query shape.
func chainQuery(n int) *Query {
	q := &Query{}
	for i := 0; i < n; i++ {
		rel := catalog.NewRelation(relName(i), 100*(i+1), 512,
			catalog.NewAttribute("a", 80*(i+1), true),
			catalog.NewAttribute("jl", 50*(i+1), true),
			catalog.NewAttribute("jh", 60*(i+1), true),
		)
		q.Rels = append(q.Rels, QRel{
			Rel:  rel,
			Pred: &SelPred{Attr: rel.MustAttribute("a"), Variable: varName(i)},
		})
	}
	for i := 0; i+1 < n; i++ {
		q.Edges = append(q.Edges, JoinEdge{
			Left: i, Right: i + 1,
			LeftAttr:  q.Rels[i].Rel.MustAttribute("jh"),
			RightAttr: q.Rels[i+1].Rel.MustAttribute("jl"),
		})
	}
	return q
}

func relName(i int) string { return string(rune('A' + i)) }
func varName(i int) string { return "v" + string(rune('1'+i)) }

func TestRelSetOps(t *testing.T) {
	s := Bit(0) | Bit(3) | Bit(5)
	if !s.Has(3) || s.Has(1) {
		t.Error("Has misbehaves")
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.IsSingleton() {
		t.Error("three-member set is not singleton")
	}
	if !Bit(7).IsSingleton() || Bit(7).Single() != 7 {
		t.Error("singleton ops misbehave")
	}
	m := s.Members()
	if len(m) != 3 || m[0] != 0 || m[1] != 3 || m[2] != 5 {
		t.Errorf("Members = %v", m)
	}
}

func TestValidateAcceptsChain(t *testing.T) {
	for n := 1; n <= 6; n++ {
		if err := chainQuery(n).Validate(); err != nil {
			t.Errorf("chain %d: %v", n, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	// Disconnected query.
	q := chainQuery(3)
	q.Edges = q.Edges[:1]
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "not connected") {
		t.Errorf("disconnected query: %v", err)
	}
	// Self join edge.
	q = chainQuery(2)
	q.Edges[0].Right = 0
	if err := q.Validate(); err == nil {
		t.Error("self edge must be rejected")
	}
	// Out-of-range edge.
	q = chainQuery(2)
	q.Edges[0].Right = 9
	if err := q.Validate(); err == nil {
		t.Error("out-of-range edge must be rejected")
	}
	// Foreign selection attribute.
	q = chainQuery(2)
	q.Rels[0].Pred.Attr = q.Rels[1].Rel.MustAttribute("a")
	if err := q.Validate(); err == nil {
		t.Error("selection on foreign attribute must be rejected")
	}
	// Empty query.
	if err := (&Query{}).Validate(); err == nil {
		t.Error("empty query must be rejected")
	}
	// Edge attribute not matching endpoint.
	q = chainQuery(3)
	q.Edges[0].LeftAttr = q.Rels[2].Rel.MustAttribute("jh")
	if err := q.Validate(); err == nil {
		t.Error("edge with mismatched attribute must be rejected")
	}
}

func TestConnected(t *testing.T) {
	q := chainQuery(4)
	if !q.Connected(Bit(0) | Bit(1) | Bit(2)) {
		t.Error("prefix of chain is connected")
	}
	if q.Connected(Bit(0) | Bit(2)) {
		t.Error("non-adjacent pair of chain is not connected")
	}
	if !q.Connected(Bit(2)) {
		t.Error("singleton is connected")
	}
	if q.Connected(0) {
		t.Error("empty set is not connected")
	}
}

func TestGraphMasks(t *testing.T) {
	q := chainQuery(4)
	g := q.Graph()
	want := Graph{Bit(1), Bit(0) | Bit(2), Bit(1) | Bit(3), Bit(2)}
	for i := range want {
		if g[i] != want[i] {
			t.Errorf("adjacency of %d = %b, want %b", i, g[i], want[i])
		}
	}
	if !g.Joined(Bit(0)|Bit(1), Bit(2)|Bit(3)) || !g.Joined(Bit(2)|Bit(3), Bit(0)|Bit(1)) {
		t.Error("the chain's middle edge joins its halves")
	}
	if g.Joined(Bit(0), Bit(2)) || g.Joined(Bit(0)|Bit(3), 0) {
		t.Error("no edge links 0 and 2, nor anything with the empty set")
	}
	// On the chain and on the chain closed into a cycle, the masks agree
	// with the edge list on every pair of disjoint sets, and the flood fill
	// with a walk over the edges on every set.
	cyc := chainQuery(5)
	cyc.Edges = append(cyc.Edges, JoinEdge{Left: 4, Right: 0,
		LeftAttr: cyc.Rels[4].Rel.MustAttribute("jh"), RightAttr: cyc.Rels[0].Rel.MustAttribute("jl")})
	for _, q := range []*Query{q, cyc} {
		g, all := q.Graph(), q.AllRels()
		for l := RelSet(1); l <= all; l++ {
			reached := l & -l
			for grown := true; grown; {
				grown = false
				for _, e := range q.Edges {
					if l.Has(e.Left) && l.Has(e.Right) && reached.Has(e.Left) != reached.Has(e.Right) {
						reached |= Bit(e.Left) | Bit(e.Right)
						grown = true
					}
				}
			}
			if got, want := g.Connected(l), reached == l; got != want {
				t.Errorf("Connected(%b) = %v, want %v", l, got, want)
			}
			for r := all &^ l; r != 0; r = (r - 1) & (all &^ l) {
				crossing := false
				for _, e := range q.Edges {
					crossing = crossing || e.Connects(l, r)
				}
				if g.Joined(l, r) != crossing {
					t.Errorf("Joined(%b, %b) = %v, want %v", l, r, g.Joined(l, r), crossing)
				}
			}
		}
	}
}

func TestEdgeSelectivity(t *testing.T) {
	q := chainQuery(2)
	e := q.Edges[0]
	// jh of A has domain 60, jl of B has domain 100: sel = 1/100.
	if got := e.Selectivity(); got != 1.0/100 {
		t.Errorf("edge selectivity = %g", got)
	}
}

func TestRowBytes(t *testing.T) {
	q := chainQuery(3)
	if got := q.RowBytes(Bit(0) | Bit(1)); got != 1024 {
		t.Errorf("RowBytes = %d", got)
	}
}

func TestVariablesAndRelIndex(t *testing.T) {
	q := chainQuery(3)
	vars := q.Variables()
	if len(vars) != 3 || vars[0] != "v1" {
		t.Errorf("Variables = %v", vars)
	}
	if q.RelIndex("B") != 1 || q.RelIndex("zzz") != -1 {
		t.Error("RelIndex misbehaves")
	}
}

// TestLogicalAlternativesChain checks the closed-form counts of bushy
// trees (ordered operands, no cross products) over chains.
func TestLogicalAlternativesChain(t *testing.T) {
	want := map[int]float64{1: 1, 2: 2, 3: 8, 4: 40, 5: 224}
	for n, w := range want {
		q := chainQuery(n)
		if got := q.LogicalAlternatives(q.AllRels()); got != w {
			t.Errorf("chain %d: alternatives = %g, want %g", n, got, w)
		}
	}
}

func TestSelPredForms(t *testing.T) {
	q := chainQuery(1)
	unbound := q.Rels[0].Pred
	bound := &SelPred{Attr: unbound.Attr, FixedSel: 0.2}
	var none *SelPred
	if s := unbound.String(); !strings.Contains(s, "?v1") {
		t.Errorf("unbound String = %q", s)
	}
	if s := bound.String(); !strings.Contains(s, "0.2") {
		t.Errorf("bound String = %q", s)
	}
	if none.String() != "true" {
		t.Errorf("nil pred String = %q", none.String())
	}
}

func TestQueryString(t *testing.T) {
	s := chainQuery(2).String()
	if !strings.Contains(s, "⋈") || !strings.Contains(s, "σ[A.a <= ?v1](A)") {
		t.Errorf("String = %q", s)
	}
}

func TestTooManyRelations(t *testing.T) {
	q := &Query{}
	rel := catalog.NewRelation("R", 10, 512, catalog.NewAttribute("a", 5, false))
	for i := 0; i < 65; i++ {
		q.Rels = append(q.Rels, QRel{Rel: rel})
	}
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "max 64") {
		t.Errorf("oversized query: %v", err)
	}
}
