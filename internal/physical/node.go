package physical

import (
	"fmt"
	"slices"
	"strings"
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
// errors are attributed to.
func (n *Node) Label() string { return n.label() }

// label renders the node's own line for Format.
func (n *Node) label() string {
	switch n.Op {
	case FileScan:
		return fmt.Sprintf("File-Scan %s", n.Rel)
	case BtreeScan:
		return fmt.Sprintf("B-tree-Scan %s.%s", n.Rel, n.Attr)
	case FilterBtreeScan:
		if n.Var == "" {
			return fmt.Sprintf("Filter-B-tree-Scan %s.%s (sel=%.3g)", n.Rel, n.Attr, n.FixedSel)
		}
		return fmt.Sprintf("Filter-B-tree-Scan %s.%s <= ?%s", n.Rel, n.Attr, n.Var)
	case Filter:
		if n.Var == "" {
			return fmt.Sprintf("Filter %s (sel=%.3g)", n.SelAttr, n.FixedSel)
		}
		return fmt.Sprintf("Filter %s <= ?%s", n.SelAttr, n.Var)
	case HashJoin:
		return fmt.Sprintf("Hash-Join %s = %s (build left)", n.LeftAttr, n.RightAttr)
	case MergeJoin:
		return fmt.Sprintf("Merge-Join %s = %s", n.LeftAttr, n.RightAttr)
	case IndexJoin:
		s := fmt.Sprintf("Index-Join %s = %s (inner %s.%s)", n.LeftAttr, n.RightAttr, n.Rel, n.Attr)
		if n.Var != "" {
			s += fmt.Sprintf(" residual %s <= ?%s", n.SelAttr, n.Var)
		}
		return s
	case Sort:
		return fmt.Sprintf("Sort %s", n.Attr)
	case ChoosePlan:
		return fmt.Sprintf("Choose-Plan (%d alternatives)", len(n.Children))
	case TempScan:
		return fmt.Sprintf("Temp-Scan %s (%d rows observed)", n.Rel, n.BaseCard)
	default:
		return n.Op.String()
	}
}

// Format renders the DAG as an indented tree. Shared subplans are printed
// once and referenced by a stable id afterwards, so the output size stays
// proportional to the DAG, not to the tree expansion.
func (n *Node) Format() string { return n.render(nil) }

// render formats the DAG, appending annotate's text, when given, to every
// operator's line.
func (n *Node) render(annotate func(*Node) string) string {
	var b strings.Builder
	ids := make(map[*Node]int)
	n.assignIDs(ids)
	n.format(&b, 0, ids, make(map[*Node]bool), annotate)
	return b.String()
}

func (n *Node) assignIDs(ids map[*Node]int) {
	if _, ok := ids[n]; ok {
		return
	}
	ids[n] = len(ids) + 1
	for _, c := range n.Children {
		c.assignIDs(ids)
	}
}

func (n *Node) format(b *strings.Builder, depth int, ids map[*Node]int, printed map[*Node]bool, annotate func(*Node) string) {
	indent := strings.Repeat("  ", depth)
	if printed[n] {
		fmt.Fprintf(b, "%s@%d (shared %s)\n", indent, ids[n], n.Op)
		return
	}
	printed[n] = true
	note := ""
	if annotate != nil {
		note = annotate(n)
	}
	fmt.Fprintf(b, "%s@%d %s%s\n", indent, ids[n], n.label(), note)
	for _, c := range n.Children {
		c.format(b, depth+1, ids, printed, annotate)
	}
}

// Validate checks the structural invariants of a plan DAG — child counts
// per operator, presence of required fields, and positive widths — by
// lowering it.
func (n *Node) Validate() error {
	_, err := Lower(n)
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
