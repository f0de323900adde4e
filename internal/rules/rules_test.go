package rules

import (
	"slices"
	"strings"
	"testing"

	"dynplan/internal/catalog"
	"dynplan/internal/logical"
	"dynplan/internal/physical"
)

// testQuery is a 3-relation chain A–B–C with a selection on every
// relation; every attribute carries a B-tree.
func testQuery() *logical.Query {
	q := &logical.Query{}
	for i, name := range []string{"A", "B", "C"} {
		rel := catalog.NewRelation(name, 100*(i+1), 512,
			catalog.NewAttribute("a", 90, true),
			catalog.NewAttribute("jl", 70, true),
			catalog.NewAttribute("jh", 80, true),
		)
		q.Rels = append(q.Rels, logical.QRel{
			Rel:  rel,
			Pred: &logical.SelPred{Attr: rel.MustAttribute("a"), Variable: "v" + name},
		})
	}
	for i := 0; i < 2; i++ {
		q.Edges = append(q.Edges, logical.JoinEdge{
			Left: i, Right: i + 1,
			LeftAttr:  q.Rels[i].Rel.MustAttribute("jh"),
			RightAttr: q.Rels[i+1].Rel.MustAttribute("jl"),
		})
	}
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return q
}

// enumerate collects the candidates for goal (set, prop) over q.
func enumerate(q *logical.Query, set logical.RelSet, prop physical.Prop) []Candidate {
	return slices.Collect(New(q).Candidates(set, prop))
}

func build(c Candidate, q *logical.Query) *physical.Node {
	children := make([]*physical.Node, len(c.Inputs()))
	for i, in := range c.Inputs() {
		// Stand-in child: a file scan wide enough to be valid.
		children[i] = &physical.Node{
			Op: physical.FileScan, Rel: "X",
			BaseCard: 10, RowBytes: q.RowBytes(in.Set),
		}
	}
	return c.Build(new(physical.Arena), children...)
}

func TestLeafCandidatesUnordered(t *testing.T) {
	q := testQuery()
	cands := enumerate(q, logical.Bit(0), physical.None)
	// Figure 1's three physical expressions: Filter(File-Scan),
	// Filter(B-tree-Scan), Filter-B-tree-Scan.
	if len(cands) != 3 {
		t.Fatalf("leaf candidates = %d, want 3", len(cands))
	}
	ops := map[physical.Op]int{}
	for _, c := range cands {
		n := build(c, q)
		if err := n.Validate(); err != nil {
			t.Errorf("%s: invalid node: %v", c.Desc(), err)
		}
		// Walk to the scan at the bottom.
		for len(n.Children) > 0 {
			n = n.Children[0]
		}
		ops[n.Op]++
	}
	if ops[physical.FileScan] != 1 || ops[physical.BtreeScan] != 1 || ops[physical.FilterBtreeScan] != 1 {
		t.Errorf("scan mix = %v", ops)
	}
}

func TestLeafCandidatesOrdered(t *testing.T) {
	q := testQuery()
	prop := physical.Prop{Order: "A.jh"}
	cands := enumerate(q, logical.Bit(0), prop)
	// Natively: B-tree scan on jh (delivers A.jh); plus the Sort enforcer.
	var delivered int
	var sorts int
	for _, c := range cands {
		n := build(c, q)
		if !(physical.Prop{Order: n.Ordering()}).Satisfies(prop) {
			t.Errorf("%s delivers %q, requirement %v", c.Desc(), n.Ordering(), prop)
		}
		if n.Op == physical.Sort {
			sorts++
		} else {
			delivered++
		}
	}
	if sorts != 1 {
		t.Errorf("expected exactly one Sort enforcer, got %d", sorts)
	}
	if delivered < 1 {
		t.Error("expected at least one native ordered access path")
	}
}

func TestLeafWithoutPredicate(t *testing.T) {
	q := testQuery()
	q.Rels[0].Pred = nil
	cands := enumerate(q, logical.Bit(0), physical.None)
	// Only the file scan: a full B-tree scan is never cheaper without a
	// predicate or an order requirement.
	if len(cands) != 1 {
		t.Fatalf("leaf candidates without predicate = %d, want 1", len(cands))
	}
	n := build(cands[0], q)
	if n.Op != physical.FileScan {
		t.Errorf("op = %v", n.Op)
	}
}

func TestJoinCandidates(t *testing.T) {
	q := testQuery()
	set := logical.Bit(0) | logical.Bit(1)
	cands := enumerate(q, set, physical.None)
	// Partitions ({A},{B}) and ({B},{A}); each: hash, merge, index (both
	// inners are base relations with B-trees on their join attributes).
	var hash, merge, index int
	for _, c := range cands {
		n := build(c, q)
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", c.Desc(), err)
		}
		switch n.Op {
		case physical.HashJoin:
			hash++
			if len(c.Inputs()) != 2 || c.Inputs()[0].Prop != physical.None {
				t.Error("hash join inputs must be unordered goals")
			}
		case physical.MergeJoin:
			merge++
			if c.Inputs()[0].Prop.Order == "" || c.Inputs()[1].Prop.Order == "" {
				t.Error("merge join must require sorted inputs")
			}
		case physical.IndexJoin:
			index++
			if len(c.Inputs()) != 1 {
				t.Error("index join takes only the outer input goal")
			}
			if n.Var == "" {
				t.Error("inner residual predicate lost")
			}
		}
	}
	if hash != 2 || merge != 2 || index != 2 {
		t.Errorf("join mix hash=%d merge=%d index=%d, want 2 each", hash, merge, index)
	}
}

func TestJoinCandidatesOrdered(t *testing.T) {
	q := testQuery()
	set := logical.Bit(0) | logical.Bit(1)
	prop := physical.Prop{Order: "A.jh"}
	cands := enumerate(q, set, prop)
	for _, c := range cands {
		n := build(c, q)
		if !(physical.Prop{Order: n.Ordering()}).Satisfies(prop) {
			t.Errorf("%s delivers %q", c.Desc(), n.Ordering())
		}
	}
	// Natively only the merge join with A on the left, plus the enforcer.
	if len(cands) != 2 {
		t.Errorf("ordered join candidates = %d, want 2", len(cands))
	}
}

func TestNoIndexJoinWithoutBtree(t *testing.T) {
	q := testQuery()
	// Drop the B-tree on B.jl: the ({A},{B}) index join disappears.
	q.Rels[1].Rel.MustAttribute("jl").BTree = false
	set := logical.Bit(0) | logical.Bit(1)
	for _, c := range enumerate(q, set, physical.None) {
		if strings.HasPrefix(c.Desc(), "Index-Join A.jh = B.jl") {
			t.Errorf("index join generated without an index: %s", c.Desc())
		}
	}
}

func TestNoCrossProducts(t *testing.T) {
	q := testQuery()
	// {A, C} is disconnected: no candidates may join it with {B} as an
	// operand, and Enumerate for the pair {A,C} itself yields only the
	// enforcer-free empty set.
	set := logical.Bit(0) | logical.Bit(2)
	if cands := enumerate(q, set, physical.None); len(cands) != 0 {
		t.Errorf("cross-product partition produced %d candidates", len(cands))
	}
}

func TestThreeWayPartitions(t *testing.T) {
	q := testQuery()
	all := q.AllRels()
	cands := enumerate(q, all, physical.None)
	// Connected ordered partitions of the chain A-B-C:
	// ({A},{BC}), ({BC},{A}), ({AB},{C}), ({C},{AB}) — 4 of them.
	// Each yields hash + merge, and index when the inner is a singleton
	// with an indexed join attribute (({BC},{A}) and ({AB},{C})).
	var inputsSeen = map[string]bool{}
	for _, c := range cands {
		for _, in := range c.Inputs() {
			inputsSeen[in.String()] = true
		}
	}
	if len(cands) != 4*2+2 {
		t.Errorf("three-way candidates = %d, want 10", len(cands))
	}
	_ = inputsSeen
}

func TestSortEnforcerShape(t *testing.T) {
	q := testQuery()
	cands := enumerate(q, q.AllRels(), physical.Prop{Order: "C.jl"})
	var foundSort bool
	for _, c := range cands {
		n := build(c, q)
		if n.Op == physical.Sort {
			foundSort = true
			if n.Attr != "C.jl" {
				t.Errorf("sort key = %q", n.Attr)
			}
			if len(c.Inputs()) != 1 || c.Inputs()[0].Prop != physical.None {
				t.Error("sort enforcer must consume the unordered winner")
			}
			if c.Inputs()[0].Set != q.AllRels() {
				t.Error("sort enforcer must consume the same relation set")
			}
		}
	}
	if !foundSort {
		t.Error("no sort enforcer generated for an ordered goal")
	}
}

func TestEdgeOrientation(t *testing.T) {
	q := testQuery()
	set := logical.Bit(0) | logical.Bit(1)
	for _, c := range enumerate(q, set, physical.None) {
		n := build(c, q)
		if n.Op != physical.HashJoin && n.Op != physical.MergeJoin {
			continue
		}
		// The left attribute must belong to the left input's relations.
		leftRel := strings.SplitN(n.LeftAttr, ".", 2)[0]
		var inputRels []string
		switch {
		case strings.Contains(c.Desc(), "A.jh = B.jl"):
			inputRels = []string{"A"}
		case strings.Contains(c.Desc(), "B.jl = A.jh"):
			inputRels = []string{"B"}
		}
		if len(inputRels) == 1 && leftRel != inputRels[0] {
			t.Errorf("%s: left attr %q not from left side", c.Desc(), n.LeftAttr)
		}
	}
}
