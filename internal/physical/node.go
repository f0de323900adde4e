package physical

import (
	"fmt"
	"slices"
	"strconv"
)

// Node is one operator of a physical plan. Plans are directed acyclic
// graphs: equivalent subplans are shared among alternatives (the paper's
// essential device for keeping dynamic plans and their access modules
// small, §3), so a Node may have several parents. Nodes are self-contained
// for cost evaluation: everything the cost model needs (base cardinality,
// row width, edge selectivity, the host variable of each predicate) is
// stored on the node, which is what makes access modules evaluable at
// start-up-time without the optimizer or the original query.
type Node struct {
	// Op is the physical algorithm.
	Op Op

	// Rel names the base relation for scans and for the inner input of
	// IndexJoin.
	Rel string
	// Attr names the index attribute (BtreeScan, FilterBtreeScan,
	// IndexJoin) or the sort key's attribute (Sort).
	Attr string

	// SelAttr and Var describe a selection predicate "SelAttr <= ?Var":
	// on Filter and FilterBtreeScan the predicate itself, on IndexJoin
	// the residual predicate of the inner relation (empty Var means no
	// predicate).
	SelAttr string
	Var     string

	// LeftAttr and RightAttr are the qualified join attributes
	// ("rel.attr") of HashJoin, MergeJoin and IndexJoin.
	LeftAttr, RightAttr string
	// EdgeSel is the join predicate's selectivity, known at compile-time
	// (1 / max domain size).
	EdgeSel float64
	// FixedSel is the known selectivity of a bound selection predicate
	// (used when SelAttr is set but Var is empty).
	FixedSel float64

	// BaseCard is the unfiltered cardinality of Rel (scans, IndexJoin
	// inner); RowBytes is the width of this node's output records.
	BaseCard int
	RowBytes int

	// Children are the input plans: none for scans, one for Filter and
	// Sort, two for HashJoin (build, probe) and MergeJoin (left, right),
	// one (the outer) for IndexJoin, and two or more alternatives for
	// ChoosePlan.
	Children []*Node
}

// Ordering returns the sort order ("rel.attr") the node delivers, or ""
// if its output order is undefined. Delivered orders follow the paper's
// prototype: B-tree access delivers the index order, Sort its key, Filter
// preserves its input, MergeJoin delivers its left join attribute,
// IndexJoin preserves the outer order, and Choose-Plan delivers an order
// only when every alternative delivers it.
func (n *Node) Ordering() string {
	switch n.Op {
	case BtreeScan, FilterBtreeScan:
		return n.Rel + "." + n.Attr
	case TempScan:
		// Attr carries the (qualified) order the materialized result was
		// produced in, or "".
		return n.Attr
	case Sort:
		return n.Attr
	case Filter:
		return n.Children[0].Ordering()
	case MergeJoin:
		return n.LeftAttr
	case IndexJoin:
		return n.Children[0].Ordering()
	case ChoosePlan:
		ord := n.Children[0].Ordering()
		for _, c := range n.Children[1:] {
			if c.Ordering() != ord {
				return ""
			}
		}
		return ord
	default:
		return ""
	}
}

// CountNodes returns the number of distinct operator nodes in the DAG
// rooted at n — the paper's plan-size metric (Figure 6) and the basis of
// access-module I/O time.
func (n *Node) CountNodes() int { return len(n.distinct()) }

// distinct returns the DAG's distinct nodes.
func (n *Node) distinct() map[*Node]bool {
	seen := make(map[*Node]bool)
	n.walk(seen)
	return seen
}

func (n *Node) walk(seen map[*Node]bool) {
	if seen[n] {
		return
	}
	seen[n] = true
	for _, c := range n.Children {
		c.walk(seen)
	}
}

// Walk visits every distinct node of the DAG once, in no particular
// order.
func (n *Node) Walk(visit func(*Node)) {
	for m := range n.distinct() {
		visit(m)
	}
}

// CountChoosePlans returns the number of distinct choose-plan operators in
// the DAG.
func (n *Node) CountChoosePlans() int {
	count := 0
	n.Walk(func(m *Node) {
		if m.Op == ChoosePlan {
			count++
		}
	})
	return count
}

// Operators returns a histogram of operator kinds in the DAG, useful for
// the Table 1 inventory benchmark and for tests.
func (n *Node) Operators() map[Op]int {
	hist := make(map[Op]int)
	n.Walk(func(m *Node) { hist[m.Op]++ })
	return hist
}

// Variables returns the host variables referenced anywhere in the DAG, in
// sorted order.
func (n *Node) Variables() []string {
	out := []string{}
	n.Walk(func(m *Node) {
		if m.Var != "" && !slices.Contains(out, m.Var) {
			out = append(out, m.Var)
		}
	})
	slices.Sort(out)
	return out
}

// Alternatives returns the number of distinct complete plans the DAG
// encodes: the product/sum over choose-plan nodes. An exhaustive plan for
// a complex query encodes exponentially many static plans in linearly many
// shared nodes (§3).
func (n *Node) Alternatives() float64 {
	memo := make(map[*Node]float64)
	return n.alternatives(memo)
}

func (n *Node) alternatives(memo map[*Node]float64) float64 {
	if v, ok := memo[n]; ok {
		return v
	}
	var v float64
	if n.Op == ChoosePlan {
		v = 0
		for _, c := range n.Children {
			v += c.alternatives(memo)
		}
	} else {
		v = 1
		for _, c := range n.Children {
			v *= c.alternatives(memo)
		}
	}
	memo[n] = v
	return v
}

// Label renders the operator with its distinguishing detail ("File-Scan
// R1", "Hash-Join R1.jh = R2.jl (build left)", …) — the name execution
// errors are attributed to. It renders into a stack buffer.
func (n *Node) Label() string { return string(n.AppendLabel(make([]byte, 0, 128))) }

// AppendLabel appends Label's text, the node's own line for Format.
// Numbers print as fmt's %d and %.3g would print them (fmt formats
// through strconv too).
func (n *Node) AppendLabel(b []byte) []byte {
	switch n.Op {
	case FileScan:
		return cat(b, "File-Scan ", n.Rel)
	case BtreeScan:
		return cat(b, "B-tree-Scan ", n.Rel, ".", n.Attr)
	case FilterBtreeScan:
		return n.appendPredicate(cat(b, "Filter-B-tree-Scan ", n.Rel, ".", n.Attr))
	case Filter:
		return n.appendPredicate(cat(b, "Filter ", n.SelAttr))
	case HashJoin:
		return cat(b, "Hash-Join ", n.LeftAttr, " = ", n.RightAttr, " (build left)")
	case MergeJoin:
		return cat(b, "Merge-Join ", n.LeftAttr, " = ", n.RightAttr)
	case IndexJoin:
		b = cat(b, "Index-Join ", n.LeftAttr, " = ", n.RightAttr, " (inner ", n.Rel, ".", n.Attr, ")")
		if n.Var != "" {
			b = n.appendPredicate(cat(b, " residual ", n.SelAttr))
		}
		return b
	case Sort:
		return cat(b, "Sort ", n.Attr)
	case ChoosePlan:
		return cat(strconv.AppendInt(cat(b, "Choose-Plan ("), int64(len(n.Children)), 10), " alternatives)")
	case TempScan:
		return cat(strconv.AppendInt(cat(b, "Temp-Scan ", n.Rel, " ("), int64(n.BaseCard), 10), " rows observed)")
	default:
		return cat(b, n.Op.String())
	}
}

// appendPredicate appends a selection's bound: " <= ?var", or the known
// selectivity of a bound predicate.
func (n *Node) appendPredicate(b []byte) []byte {
	if n.Var == "" {
		return append(strconv.AppendFloat(cat(b, " (sel="), n.FixedSel, 'g', 3, 64), ')')
	}
	return cat(b, " <= ?", n.Var)
}

// cat appends the strings to b.
func cat(b []byte, parts ...string) []byte {
	for _, s := range parts {
		b = append(b, s...)
	}
	return b
}

// Format renders the DAG as an indented tree. Shared subplans are printed
// once and referenced by a stable id afterwards, so the output size stays
// proportional to the DAG, not to the tree expansion.
func (n *Node) Format() string { return string(n.AppendFormat(make([]byte, 0, 4096))) }

// AppendFormat appends the Format rendering of the DAG to b.
func (n *Node) AppendFormat(b []byte) []byte {
	b, _ = n.render(b, make([]*Node, 0, 64), 0)
	return b
}

// render appends the subplan at n, indented to depth, to b. A node's id is
// its position in seen, the nodes printed so far, plus one; a linear
// search there beats hashing a resolved plan's few dozen nodes. The
// slices pass by value and return, so a caller's stack buffers stay put.
func (n *Node) render(b []byte, seen []*Node, depth int) ([]byte, []*Node) {
	for range depth {
		b = append(b, "  "...)
	}
	b = append(b, '@')
	if i := slices.Index(seen, n); i >= 0 {
		return cat(strconv.AppendInt(b, int64(i+1), 10), " (shared ", n.Op.String(), ")\n"), seen
	}
	seen = append(seen, n)
	b = append(n.AppendLabel(append(strconv.AppendInt(b, int64(len(seen)), 10), ' ')), '\n')
	for _, c := range n.Children {
		b, seen = c.render(b, seen, depth+1)
	}
	return b, seen
}

// Validate checks the structural invariants of a plan DAG — child counts
// per operator, presence of required fields, and positive widths — by
// lowering it.
func (n *Node) Validate() error {
	_, err := Lower(0, 0, n)
	return err
}

// Check validates this one operator — its child count, required fields
// and row width — without visiting its inputs.
func (n *Node) Check() error {
	wantChildren := -1
	switch n.Op {
	case FileScan, BtreeScan, FilterBtreeScan:
		wantChildren = 0
		if n.Rel == "" {
			return fmt.Errorf("physical: %s without relation", n.Op)
		}
		if n.Op != FileScan && n.Attr == "" {
			return fmt.Errorf("physical: %s without index attribute", n.Op)
		}
		if n.Op == FilterBtreeScan && n.Var == "" && (n.FixedSel <= 0 || n.FixedSel > 1) {
			return fmt.Errorf("physical: Filter-B-tree-Scan without host variable or bound selectivity")
		}
	case Filter:
		wantChildren = 1
		if n.SelAttr == "" {
			return fmt.Errorf("physical: Filter without predicate")
		}
		if n.Var == "" && (n.FixedSel <= 0 || n.FixedSel > 1) {
			return fmt.Errorf("physical: bound Filter with selectivity %g outside (0,1]", n.FixedSel)
		}
	case Sort:
		wantChildren = 1
		if n.Attr == "" {
			return fmt.Errorf("physical: Sort without key")
		}
	case HashJoin, MergeJoin:
		wantChildren = 2
		if n.LeftAttr == "" || n.RightAttr == "" {
			return fmt.Errorf("physical: %s without join attributes", n.Op)
		}
	case IndexJoin:
		wantChildren = 1
		if n.Rel == "" || n.Attr == "" {
			return fmt.Errorf("physical: Index-Join without inner index")
		}
	case ChoosePlan:
		if len(n.Children) < 2 {
			return fmt.Errorf("physical: Choose-Plan with %d alternatives", len(n.Children))
		}
	case TempScan:
		wantChildren = 0
		if n.Rel == "" {
			return fmt.Errorf("physical: Temp-Scan without temporary name")
		}
	default:
		return fmt.Errorf("physical: unknown operator %d", n.Op)
	}
	if wantChildren >= 0 && len(n.Children) != wantChildren {
		return fmt.Errorf("physical: %s with %d children, want %d", n.Op, len(n.Children), wantChildren)
	}
	if n.RowBytes <= 0 {
		return fmt.Errorf("physical: %s with non-positive row width", n.Op)
	}
	return nil
}
