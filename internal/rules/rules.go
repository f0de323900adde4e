// Package rules generates the candidate implementations of an optimization
// goal: the combined effect of the prototype's transformation rules (join
// commutativity and associativity, generating all bushy trees, §5) and its
// implementation rules (Table 1: Get-Set → File-Scan | B-tree-Scan,
// Select → Filter | Filter-B-tree-Scan, Join → Hash-Join | Merge-Join |
// Index-Join) plus the Sort enforcer for the sort-order property.
//
// In a memoizing search, applying join commutativity and associativity
// exhaustively is equivalent to enumerating, for each connected relation
// set, every partition into two connected subsets (each ordered pair once,
// which realizes commutativity). Cross products are not enumerated, the
// standard restriction. The choose-plan enforcer is not generated here: it
// is inserted by the search engine whenever a goal retains more than one
// incomparable candidate.
package rules

import (
	"iter"

	"dynplan/internal/logical"
	"dynplan/internal/memo"
	"dynplan/internal/physical"
)

// Candidate describes one way to implement a goal before its inputs have
// been optimized: an operator template and the child goals it consumes.
// Candidates are plain values; nothing is allocated until the search
// builds one.
type Candidate struct {
	// op is the operator Build returns, less its inputs.
	op physical.Node
	// filter, on an access path, is the selection a Filter applies on top
	// of op.
	filter *logical.SelPred
	// inputs[:n] are the child goals in optimization order.
	inputs [2]memo.Goal
	n      int
}

// Inputs returns the child goals in the order the search engine should
// optimize them (enabling branch-and-bound between the first and second
// input, §3).
func (c *Candidate) Inputs() []memo.Goal { return c.inputs[:c.n] }

// Build returns the candidate's operator (sub)tree on top of the child
// plans, one per input. A node is allocated together with its input
// array, so a built candidate costs one allocation; the children are
// copied, not retained.
func (c *Candidate) Build(children ...*physical.Node) *physical.Node {
	if p := c.filter; p != nil {
		b := &struct {
			filter, scan physical.Node
			input        [1]*physical.Node
		}{scan: c.op}
		b.input[0] = &b.scan
		b.filter = physical.Node{Op: physical.Filter, SelAttr: p.Attr.QualifiedName(), Var: p.Variable,
			FixedSel: p.FixedSel, RowBytes: c.op.RowBytes, Children: b.input[:]}
		return &b.filter
	}
	b := &struct {
		node   physical.Node
		inputs [2]*physical.Node
	}{node: c.op}
	if k := copy(b.inputs[:], children); k > 0 {
		b.node.Children = b.inputs[:k:k]
	}
	return &b.node
}

// Desc labels the candidate's operator ("Hash-Join R1.jh = R2.jl (build
// left)") for error messages and tests.
func (c *Candidate) Desc() string { return c.op.Label() }

// Rules generates the candidates of one query's goals. The caller must
// have validated the query.
type Rules struct {
	q *logical.Query
	g logical.Graph
}

// New binds the rules to a query, computing its join graph once for every
// goal the search will pose.
func New(q *logical.Query) Rules { return Rules{q: q, g: q.Graph()} }

// Candidates yields the candidates for goal (set, prop) in a fixed order —
// the order a goal's choose-plan lists its surviving alternatives in.
func (r Rules) Candidates(set logical.RelSet, prop physical.Prop) iter.Seq[Candidate] {
	return func(yield func(Candidate) bool) {
		if set.IsSingleton() {
			if !r.accessPaths(set.Single(), prop, yield) {
				return
			}
		} else if !r.joins(set, prop, yield) {
			return
		}
		if prop.Order != "" {
			yield(Candidate{
				op:     physical.Node{Op: physical.Sort, Attr: prop.Order, RowBytes: r.q.RowBytes(set)},
				inputs: [2]memo.Goal{{Set: set}},
				n:      1,
			})
		}
	}
}

// accessPaths implements Get-Set and Select (Figure 1 of the paper): a
// file scan with a filter, a full B-tree scan with a filter (delivering
// the index order), and a filtered B-tree scan fetching only qualifying
// records. It reports whether yield asked for more.
func (r Rules) accessPaths(i int, prop physical.Prop, yield func(Candidate) bool) bool {
	rel, pred := r.q.Rels[i].Rel, r.q.Rels[i].Pred
	// offer yields the scan, under a Filter applying the selection when
	// filtered, unless the order it delivers is not the required one.
	offer := func(scan physical.Node, filtered bool, order string) bool {
		if prop.Order != "" && order != prop.Order {
			return true
		}
		c := Candidate{op: scan}
		if filtered {
			c.filter = pred
		}
		return yield(c)
	}

	base := physical.Node{Rel: rel.Name, BaseCard: rel.Cardinality, RowBytes: rel.RecordBytes}
	scan := base
	scan.Op = physical.FileScan
	if !offer(scan, true, "") {
		return false
	}
	for _, attr := range rel.AttrsByName() {
		if !attr.BTree {
			continue
		}
		qual := attr.QualifiedName()
		onPred := pred != nil && pred.Attr == attr
		scan = base
		scan.Attr = attr.Name
		// A full B-tree scan is worth considering when it delivers a
		// requested order or when it is an alternative way to evaluate
		// the predicate (the third physical expression of query 1, §6).
		if prop.Order == qual || onPred {
			scan.Op = physical.BtreeScan
			if !offer(scan, true, qual) {
				return false
			}
		}
		if onPred {
			scan.Op = physical.FilterBtreeScan
			scan.SelAttr, scan.Var, scan.FixedSel = qual, pred.Variable, pred.FixedSel
			if !offer(scan, false, qual) {
				return false
			}
		}
	}
	return true
}

// joins enumerates every ordered partition of set into two connected,
// joined subsets and every applicable join algorithm. It reports whether
// yield asked for more.
func (r Rules) joins(set logical.RelSet, prop physical.Prop, yield func(Candidate) bool) bool {
	q := r.q
	width := q.RowBytes(set)

	for left := (set - 1) & set; left != 0; left = (left - 1) & set {
		right := set &^ left
		if !r.g.Joined(left, right) || !r.g.Connected(left) || !r.g.Connected(right) {
			continue
		}
		// The first crossing edge names the join attributes; the product
		// of every crossing edge's selectivity is the join's.
		var e *logical.JoinEdge
		edgeSel := 1.0
		for i := range q.Edges {
			if ce := &q.Edges[i]; ce.Connects(left, right) {
				if e == nil {
					e = ce
				}
				edgeSel *= ce.Selectivity()
			}
		}
		// Orient the join attributes: leftAttr belongs to side left.
		leftAttr, rightAttr := e.LeftAttr, e.RightAttr
		if left.Has(e.Right) {
			leftAttr, rightAttr = rightAttr, leftAttr
		}
		join := physical.Node{
			LeftAttr:  leftAttr.QualifiedName(),
			RightAttr: rightAttr.QualifiedName(),
			EdgeSel:   edgeSel,
			RowBytes:  width,
		}

		// Hash-Join: builds on the left input, no order requirements, no
		// order delivered.
		if prop.Order == "" {
			join.Op = physical.HashJoin
			if !yield(Candidate{op: join, inputs: [2]memo.Goal{{Set: left}, {Set: right}}, n: 2}) {
				return false
			}
		}

		// Merge-Join: requires both inputs sorted on the join attributes,
		// delivers the left attribute's order.
		if prop.Order == "" || prop.Order == join.LeftAttr {
			join.Op = physical.MergeJoin
			if !yield(Candidate{op: join, n: 2, inputs: [2]memo.Goal{
				{Set: left, Prop: physical.Prop{Order: join.LeftAttr}},
				{Set: right, Prop: physical.Prop{Order: join.RightAttr}},
			}}) {
				return false
			}
		}

		// Index-Join: inner input must be a single base relation with a
		// B-tree on its join attribute; the inner selection (if any)
		// becomes a residual predicate applied after each fetch.
		if prop.Order == "" && right.IsSingleton() && rightAttr.BTree {
			inner := q.Rels[right.Single()]
			join.Op = physical.IndexJoin
			join.Rel, join.Attr, join.BaseCard = inner.Rel.Name, rightAttr.Name, inner.Rel.Cardinality
			if p := inner.Pred; p != nil {
				join.SelAttr, join.Var, join.FixedSel = p.Attr.QualifiedName(), p.Variable, p.FixedSel
			}
			if !yield(Candidate{op: join, inputs: [2]memo.Goal{{Set: left}}, n: 1}) {
				return false
			}
		}
	}
	return true
}
