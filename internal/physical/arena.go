package physical

// arenaChunk is how many nodes one arena chunk holds, and half how many
// child pointers.
const arenaChunk = 256

// Arena is the node storage of one search: every candidate the search
// builds is cut from its chunks, and Compact copies out the one plan the
// search keeps, so no node handed out by an arena outlives its search.
// Reset then recycles the chunks for the next search. The zero Arena is
// ready to use; an Arena is not safe for concurrent use.
type Arena struct {
	nodes chunks[Node]
	kids  chunks[*Node]
	// order is Compact's scratch: the plan's arena nodes, children first,
	// with the fields their forwarding overwrote.
	order []forward
}

// forward is an arena node Compact has reached: its Op reads forwarded
// and its BaseCard its index in order, until the copy restores both.
type forward struct {
	n    *Node
	op   Op
	base int
}

// forwarded is the Op of a forwarded arena node, beyond every operator.
const forwarded Op = 255

// chunks hands out slices cut from reusable fixed-size buffers: bufs[cur]
// is the buffer in use, its first used elements handed out.
type chunks[T any] struct {
	bufs      [][]T
	cur, used int
}

// take returns n elements, cut from the current buffer or the next one
// that has room (a fresh one past the last).
func (c *chunks[T]) take(n, size int) []T {
	for c.cur < len(c.bufs) && c.used+n > len(c.bufs[c.cur]) {
		c.cur, c.used = c.cur+1, 0
	}
	if c.cur == len(c.bufs) {
		c.bufs = append(c.bufs, make([]T, max(n, size)))
	}
	s := c.bufs[c.cur][c.used : c.used+n : c.used+n]
	c.used += n
	return s
}

// New returns a copy of n over the given inputs, both cut from the arena.
func (a *Arena) New(n Node, children ...*Node) *Node {
	p := &a.nodes.take(1, arenaChunk)[0]
	*p = n
	p.Children = nil
	if len(children) > 0 {
		p.Children = a.kids.take(len(children), 2*arenaChunk)
		copy(p.Children, children)
	}
	return p
}

// Reset recycles every chunk: the nodes handed out so far are reused.
func (a *Arena) Reset() {
	a.nodes.cur, a.nodes.used, a.kids.cur, a.kids.used = 0, 0, 0, 0
}

// Compact copies the DAG under root, children first, into one exact-sized
// slab of nodes and one of child pointers, preserving every shared
// subplan, and returns the copy's root, its node count and how many
// inputs those nodes list. The copy points nowhere into the arena. The
// arena's nodes are left forwarded, so Compact is the last use of them
// before Reset.
func (a *Arena) Compact(root *Node) (*Node, int, int) {
	a.order = a.order[:0]
	edges := a.collect(root)
	slab, kids := make([]Node, len(a.order)), make([]*Node, edges)
	for i, f := range a.order {
		n := &slab[i]
		*n = *f.n
		n.Op, n.BaseCard = f.op, f.base
		if k := len(n.Children); k > 0 {
			in := kids[:k:k]
			for j, c := range n.Children {
				in[j] = &slab[c.BaseCard]
			}
			n.Children, kids = in, kids[k:]
		}
	}
	return &slab[len(slab)-1], len(slab), edges
}

// collect appends the DAG under n to order, children first and once
// each, forwarding every node it reaches, and returns how many inputs
// those nodes list.
func (a *Arena) collect(n *Node) (edges int) {
	if n.Op == forwarded {
		return 0
	}
	for _, c := range n.Children {
		edges += a.collect(c)
	}
	a.order = append(a.order, forward{n, n.Op, n.BaseCard})
	n.Op, n.BaseCard = forwarded, len(a.order)-1
	return edges + len(n.Children)
}
