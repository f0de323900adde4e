// Package btree implements the B-tree index structure the cost model and
// execution engine assume for associative search.
//
// The paper's experiments put uncluttered (unclustered) B-trees on every
// attribute referenced by an unbound selection predicate and on every join
// attribute (§6). An unclustered index maps key values to record
// identifiers in the heap file; the dominant cost of using it is one random
// page I/O per qualifying record, which the execution engine charges when
// it fetches through the RIDs this structure returns.
//
// The tree is a classic B-tree of configurable order with all keys stored
// in both internal and leaf levels' subtrees (standard B-tree, not B+-tree
// in the internal-node sense, but leaves are chained for cheap range
// scans... in fact this implementation is a B+-tree: all (key, RID) pairs
// live in leaves, internal nodes hold separator keys, and leaves are linked
// left-to-right). Duplicate keys are supported; a key's RIDs are returned
// in insertion order.
package btree

import (
	"fmt"
	"sort"

	"dynplan/internal/storage"
)

// DefaultOrder is the fan-out used when callers do not specify one. With
// 2048-byte pages and (8-byte key, 8-byte RID) entries a realistic fan-out
// is near 128; the exact number does not affect the cost model, which
// charges per fetched record, not per index node.
const DefaultOrder = 128

// Tree is a B+-tree from int64 keys to record identifiers. The zero value
// is not usable; create trees with New.
type Tree struct {
	order int // maximum number of children of an internal node
	root  node
	size  int
	depth int
}

type node interface {
	// insert adds the entry, returning a split (new right sibling and its
	// separator key) when the node overflows, or nil.
	insert(key int64, rid storage.RID, order int) *split
}

type split struct {
	key   int64 // first key of the right sibling
	right node
}

type leaf struct {
	keys []int64
	rids []storage.RID
	next *leaf
}

type internal struct {
	// keys[i] is the smallest key reachable through children[i+1].
	keys     []int64
	children []node
}

// New returns an empty tree of the given order (maximum children per
// internal node). Orders below 3 are raised to 3.
func New(order int) *Tree {
	if order < 3 {
		order = 3
	}
	return &Tree{order: order, root: &leaf{}, depth: 1}
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels, 1 for a tree that is a single leaf.
func (t *Tree) Height() int { return t.depth }

// Insert adds one (key, rid) entry. Duplicate keys are allowed.
func (t *Tree) Insert(key int64, rid storage.RID) {
	sp := t.root.insert(key, rid, t.order)
	t.size++
	if sp != nil {
		t.root = &internal{
			keys:     []int64{sp.key},
			children: []node{t.root, sp.right},
		}
		t.depth++
	}
}

// Search returns the RIDs stored under key, in insertion order, or nil.
func (t *Tree) Search(key int64) []storage.RID {
	return t.AppendRange(nil, key, key)
}

// AppendRange appends to dst the RIDs of every entry with lo <= key <= hi,
// in key order (entries with equal keys in insertion order), and returns
// the extended slice. Each leaf's qualifying entries are one contiguous
// run, appended in one step.
func (t *Tree) AppendRange(dst []storage.RID, lo, hi int64) []storage.RID {
	if lo > hi {
		return dst
	}
	for l, i := t.seek(lo); l != nil; l, i = l.next, 0 {
		// The run ends at the first key above hi; when that key lies in
		// this leaf, no later leaf can qualify.
		j := i + sort.Search(len(l.keys)-i, func(j int) bool { return l.keys[i+j] > hi })
		dst = append(dst, l.rids[i:j]...)
		if j < len(l.keys) {
			break
		}
	}
	return dst
}

// Ascend visits every entry in key order.
func (t *Tree) Ascend(yield func(key int64, rid storage.RID) bool) {
	l := t.leftmost()
	for l != nil {
		for i := range l.keys {
			if !yield(l.keys[i], l.rids[i]) {
				return
			}
		}
		l = l.next
	}
}

// seek returns the leaf and in-leaf position of the first entry with
// key >= lo.
func (t *Tree) seek(lo int64) (*leaf, int) {
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			i := sort.Search(len(v.keys), func(i int) bool { return v.keys[i] >= lo })
			if i == len(v.keys) {
				return v.next, 0
			}
			return v, i
		case *internal:
			// Descend left of the first separator >= lo: duplicates equal
			// to a separator may live in the subtree to its left (splits
			// can fall inside a duplicate run), and the leaf chain carries
			// the scan rightward from there.
			i := sort.Search(len(v.keys), func(i int) bool { return v.keys[i] >= lo })
			n = v.children[i]
		default:
			panic("btree: unknown node type")
		}
	}
}

func (t *Tree) leftmost() *leaf {
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			return v
		case *internal:
			n = v.children[0]
		default:
			panic("btree: unknown node type")
		}
	}
}

func (l *leaf) insert(key int64, rid storage.RID, order int) *split {
	// Position after any existing equal keys preserves insertion order of
	// duplicates.
	i := sort.Search(len(l.keys), func(i int) bool { return l.keys[i] > key })
	l.keys = append(l.keys, 0)
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = key
	l.rids = append(l.rids, storage.RID{})
	copy(l.rids[i+1:], l.rids[i:])
	l.rids[i] = rid

	if len(l.keys) < order {
		return nil
	}
	// Split in half; the right sibling's first key is the separator.
	mid := len(l.keys) / 2
	right := &leaf{
		keys: append([]int64(nil), l.keys[mid:]...),
		rids: append([]storage.RID(nil), l.rids[mid:]...),
		next: l.next,
	}
	l.keys = l.keys[:mid:mid]
	l.rids = l.rids[:mid:mid]
	l.next = right
	return &split{key: right.keys[0], right: right}
}

func (n *internal) insert(key int64, rid storage.RID, order int) *split {
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
	sp := n.children[i].insert(key, rid, order)
	if sp == nil {
		return nil
	}
	// Insert the new child to the right of the child that split.
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sp.key
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = sp.right

	if len(n.children) <= order {
		return nil
	}
	// Split: the middle key moves up.
	midKey := len(n.keys) / 2
	up := n.keys[midKey]
	right := &internal{
		keys:     append([]int64(nil), n.keys[midKey+1:]...),
		children: append([]node(nil), n.children[midKey+1:]...),
	}
	n.keys = n.keys[:midKey:midKey]
	n.children = n.children[: midKey+1 : midKey+1]
	return &split{key: up, right: right}
}

// CheckInvariants validates the structural invariants of the tree and
// returns a descriptive error on the first violation. Tests (including the
// property-based ones) call this after batches of insertions.
//
// Invariants checked: keys sorted within every node, separator keys
// consistent with subtree contents, all leaves at the same depth, node
// occupancy within bounds (root excepted), leaf chain complete and
// ordered, and the entry count matching Len.
func (t *Tree) CheckInvariants() error {
	var leaves []*leaf
	count, err := t.check(t.root, 1, nil, nil, &leaves)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d entries reachable", t.size, count)
	}
	// Leaf chain must enumerate exactly the in-order leaves.
	chain := t.leftmost()
	for i, l := range leaves {
		if chain != l {
			return fmt.Errorf("btree: leaf chain broken at leaf %d", i)
		}
		chain = chain.next
	}
	if chain != nil {
		return fmt.Errorf("btree: leaf chain has trailing leaves")
	}
	return nil
}

func (t *Tree) check(n node, depth int, lo, hi *int64, leaves *[]*leaf) (int, error) {
	switch v := n.(type) {
	case *leaf:
		if depth != t.depth {
			return 0, fmt.Errorf("btree: leaf at depth %d, want %d", depth, t.depth)
		}
		if len(v.keys) != len(v.rids) {
			return 0, fmt.Errorf("btree: leaf with %d keys but %d rids", len(v.keys), len(v.rids))
		}
		if n != t.root && len(v.keys) == 0 {
			return 0, fmt.Errorf("btree: empty non-root leaf")
		}
		for i, k := range v.keys {
			if i > 0 && v.keys[i-1] > k {
				return 0, fmt.Errorf("btree: leaf keys out of order at %d", i)
			}
			// Separator bounds are inclusive on both sides: a split inside
			// a duplicate run leaves keys equal to the separator in the
			// left subtree, and inserts route duplicates equal to a
			// separator into the right subtree.
			if lo != nil && k < *lo {
				return 0, fmt.Errorf("btree: leaf key %d below separator %d", k, *lo)
			}
			if hi != nil && k > *hi {
				return 0, fmt.Errorf("btree: leaf key %d above separator %d", k, *hi)
			}
		}
		*leaves = append(*leaves, v)
		return len(v.keys), nil
	case *internal:
		if len(v.children) != len(v.keys)+1 {
			return 0, fmt.Errorf("btree: internal with %d keys, %d children", len(v.keys), len(v.children))
		}
		if len(v.children) > t.order {
			return 0, fmt.Errorf("btree: internal overflow: %d children, order %d", len(v.children), t.order)
		}
		if n != t.root && len(v.children) < (t.order+1)/2 {
			return 0, fmt.Errorf("btree: internal underflow: %d children, order %d", len(v.children), t.order)
		}
		total := 0
		for i, c := range v.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &v.keys[i-1]
			}
			if i < len(v.keys) {
				chi = &v.keys[i]
			}
			if i > 0 && i < len(v.keys) && v.keys[i-1] > v.keys[i] {
				return 0, fmt.Errorf("btree: internal keys out of order at %d", i)
			}
			sub, err := t.check(c, depth+1, clo, chi, leaves)
			if err != nil {
				return 0, err
			}
			total += sub
		}
		return total, nil
	default:
		return 0, fmt.Errorf("btree: unknown node type %T", n)
	}
}

// Build bulk-creates an index over a table column: for every row it inserts
// (row[attrIdx], rid).
func Build(t *storage.Table, attrIdx int, order int) *Tree {
	tree := New(order)
	// A page walk without charging I/O: index construction is outside the
	// measured query path.
	for page := 0; page < t.NumPages(); page++ {
		for slot, row := range t.Page(page) {
			tree.Insert(row[attrIdx], storage.RID{Page: int32(page), Slot: int32(slot)})
		}
	}
	return tree
}
