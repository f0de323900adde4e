// Package plan implements the run-time life cycle of query evaluation
// plans: access modules (the serialized plan representation read at
// start-up), start-up-time activation with choose-plan decision
// procedures, and the access-module shrinking heuristic of §4.
//
// An access module stores the plan DAG produced by the search engine.
// Dynamic plans contain choose-plan operators; activation instantiates the
// run-time bindings, re-evaluates the cost functions of the alternative
// plans — the decision procedure the paper advocates over inverted cost
// functions (§4) — and resolves every choose-plan to its cheapest input,
// yielding an ordinary static plan for the execution engine. Shared
// subplans are evaluated once (the DAG representation reduces both module
// size and start-up CPU time, §4), and every node is evaluated: at tens
// of nanoseconds per cost function, the branch-and-bound pruning at
// start-up-time the paper proposes but did not implement costs more
// bookkeeping than the evaluations it skips.
package plan

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"dynplan/internal/cost"
	"dynplan/internal/physical"
)

// moduleMagic identifies serialized access modules.
const moduleMagic = "DYNPLAN1"

// AccessModule is a serialized query evaluation plan plus its in-memory
// form. Static and dynamic plans use the same representation; dynamic
// plans simply contain choose-plan nodes.
//
// A module is immutable once compiled: activation reads the DAG but never
// writes module state, so one module can be activated by any number of
// concurrent queries — and cached and shared across prepared statements —
// without synchronization. Per-execution usage statistics live in a
// separate UsageStats owned by the caller, not on the shared artifact.
type AccessModule struct {
	// prog is the plan DAG in the flat form activation runs on.
	prog *program
	// raw is the serialized form: what Load was given, or prog encoded on
	// the first Bytes call — a module that only ever lives in the plan
	// cache never pays for serialization.
	rawOnce sync.Once
	raw     []byte
	// planCost is the optimizer's compile-time predicted cost interval for
	// the whole plan over its uncertainty region, set by the compiling
	// system immediately after construction, before the module is shared
	// (it is not serialized; modules loaded from bytes carry a zero
	// interval and the calibration layer skips the plan-cost check).
	planCost cost.Cost
}

// SetPlanCost attaches the compile-time predicted cost interval. It must
// be called at build time, before the module is shared: once a module is
// visible to concurrent activations (or a plan cache), it is read-only.
func (m *AccessModule) SetPlanCost(c cost.Cost) {
	m.planCost = c
}

// PlanCost returns the compile-time predicted cost interval (zero for
// modules loaded from serialized bytes).
func (m *AccessModule) PlanCost() cost.Cost {
	return m.planCost
}

// UsageStats accumulates activation statistics for one access module —
// which DAG nodes chosen plans have used (counted by the node's index in
// the module's program), and how often the module was activated — the
// inputs of the §4 shrinking heuristic. The statistics live outside the
// module so the compiled artifact stays read-only and concurrently
// shareable; the mutex here guards only this accumulator.
type UsageStats struct {
	mu          sync.Mutex
	usage       []int
	activations int
}

// NewUsageStats returns an empty usage accumulator.
func NewUsageStats() *UsageStats { return &UsageStats{} }

// Activations returns how many activations have been recorded.
func (s *UsageStats) Activations() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activations
}

// record folds one activation's used-node set (distinct indices into a
// module of the given size) into the accumulator.
func (s *UsageStats) record(used []int32, nodes int) {
	s.mu.Lock()
	s.activations++
	if len(s.usage) < nodes {
		s.usage = append(s.usage, make([]int, nodes-len(s.usage))...)
	}
	for _, i := range used {
		s.usage[i]++
	}
	s.mu.Unlock()
}

// snapshot copies the accumulator for a consistent read: per-node use
// counts for a module of the given size, and the activation count.
func (s *UsageStats) snapshot(nodes int) ([]int, int) {
	usage := make([]int, nodes)
	if s == nil {
		return usage, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	copy(usage, s.usage)
	return usage, s.activations
}

// NewModule compiles a plan DAG into an access module: one pass lowers it
// into the flat program, validating every operator on the way.
func NewModule(root *physical.Node) (*AccessModule, error) {
	p, err := lower(root)
	if err != nil {
		return nil, err
	}
	return &AccessModule{prog: p}, nil
}

// Load deserializes an access module. The resulting DAG preserves subplan
// sharing exactly.
func Load(raw []byte) (*AccessModule, error) {
	p, err := decode(raw)
	if err != nil {
		return nil, err
	}
	return &AccessModule{prog: p, raw: raw}, nil
}

// Root returns the plan DAG.
func (m *AccessModule) Root() *physical.Node { return m.prog.Nodes[len(m.prog.Nodes)-1] }

// Relations returns the distinct base relations any alternative of the
// plan DAG reads, sorted — the set a per-relation circuit breaker screens
// before activation. The slice is the module's own: read-only.
func (m *AccessModule) Relations() []string { return m.prog.rels }

// Variables returns the host variables the plan references, sorted — what
// must be bound before activation. Read-only, like Relations.
func (m *AccessModule) Variables() []string { return m.prog.Vars }

// NodeCount returns the number of distinct operator nodes, the paper's
// plan-size metric (Figure 6).
func (m *AccessModule) NodeCount() int { return len(m.prog.Nodes) }

// Bytes returns the serialized form.
func (m *AccessModule) Bytes() []byte {
	m.rawOnce.Do(func() {
		if m.raw == nil {
			m.raw = m.prog.encode()
		}
	})
	return m.raw
}

// ReadTime returns the simulated time to read the module from contiguous
// disk locations under the paper's fixed-node-size model (§6: 128-byte
// nodes at 2 MB/s, about 16,000 nodes per second).
func (m *AccessModule) ReadTime(p physical.Params) float64 {
	return p.ModuleReadTime(len(m.prog.Nodes))
}

var le = binary.LittleEndian

// minNodeBytes is a serialized node less its strings and child indices:
// operator byte, six string lengths, two float64s, three uint32s.
const minNodeBytes = 53

// encode serializes the program: nodes in topological (children-first)
// order, children referenced by index, root last.
func (p *program) encode() []byte {
	size := len(moduleMagic) + 4 + minNodeBytes*len(p.Nodes)
	for i, n := range p.Nodes {
		size += len(n.Rel) + len(n.Attr) + len(n.SelAttr) + len(n.Var) + len(n.LeftAttr) + len(n.RightAttr) + 4*len(p.Inputs(int32(i)))
	}
	b := make([]byte, 0, size)
	b = append(b, moduleMagic...)
	b = le.AppendUint32(b, uint32(len(p.Nodes)))
	for i, n := range p.Nodes {
		b = append(b, byte(n.Op))
		for _, s := range [...]string{n.Rel, n.Attr, n.SelAttr, n.Var, n.LeftAttr, n.RightAttr} {
			b = le.AppendUint32(b, uint32(len(s)))
			b = append(b, s...)
		}
		b = le.AppendUint64(b, math.Float64bits(n.EdgeSel))
		b = le.AppendUint64(b, math.Float64bits(n.FixedSel))
		b = le.AppendUint32(b, uint32(n.BaseCard))
		b = le.AppendUint32(b, uint32(n.RowBytes))
		kids := p.Inputs(int32(i))
		b = le.AppendUint32(b, uint32(len(kids)))
		for _, k := range kids {
			b = le.AppendUint32(b, uint32(k))
		}
	}
	return b
}

// reader cuts fields off the front of a serialized module. After the
// first short read every field reads as zero and err stays set, so decode
// checks once per node instead of once per field.
type reader struct {
	raw []byte
	// str is raw as one string: string fields are cut out of it by offset
	// instead of being copied out one allocation each.
	str string
	off int
	err error
}

// next consumes n bytes and returns their offset, or -1 once reading has
// failed.
func (r *reader) next(n int) int {
	if r.err == nil && n > len(r.raw)-r.off {
		r.err = fmt.Errorf("plan: truncated module: %d bytes wanted at offset %d of %d", n, r.off, len(r.raw))
	}
	if r.err != nil {
		return -1
	}
	r.off += n
	return r.off - n
}

func (r *reader) u32() uint32 {
	if i := r.next(4); i >= 0 {
		return le.Uint32(r.raw[i:])
	}
	return 0
}

func (r *reader) f64() float64 {
	if i := r.next(8); i >= 0 {
		return math.Float64frombits(le.Uint64(r.raw[i:]))
	}
	return 0
}

func (r *reader) string() string {
	n := int(r.u32())
	if i := r.next(n); i >= 0 {
		return r.str[i : i+n]
	}
	return ""
}

// decode reverses encode, building the program directly: the nodes arrive
// in the order the program keeps them in.
func decode(raw []byte) (*program, error) {
	r := &reader{raw: raw, str: string(raw)}
	if i := r.next(len(moduleMagic)); i < 0 || r.str[:len(moduleMagic)] != moduleMagic {
		return nil, fmt.Errorf("plan: bad access-module header")
	}
	count := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if count == 0 {
		return nil, fmt.Errorf("plan: empty access module")
	}
	// A count exceeding what the remaining bytes could hold is a forged or
	// corrupt header, and allocating for it blindly would be a
	// denial-of-service vector.
	if count > (len(raw)-r.off)/minNodeBytes+1 {
		return nil, fmt.Errorf("plan: node count %d exceeds module size", count)
	}
	p := physical.NewProgram(count)
	slab := make([]physical.Node, count)
	consumed := make([]bool, count)
	var inputs []*physical.Node
	for i := range slab {
		n := &slab[i]
		if at := r.next(1); at >= 0 {
			n.Op = physical.Op(raw[at])
		}
		n.Rel, n.Attr, n.SelAttr = r.string(), r.string(), r.string()
		n.Var, n.LeftAttr, n.RightAttr = r.string(), r.string(), r.string()
		n.EdgeSel, n.FixedSel = r.f64(), r.f64()
		n.BaseCard, n.RowBytes = int(r.u32()), int(r.u32())
		nc := int(r.u32())
		at := r.next(4 * nc)
		if r.err != nil {
			return nil, r.err
		}
		if nc > 0 {
			n.Children = take(&inputs, nc, count)
		}
		for j := range n.Children {
			ci := le.Uint32(raw[at+4*j:])
			if int(ci) >= i {
				return nil, fmt.Errorf("plan: child index %d out of range", ci)
			}
			n.Children[j], consumed[ci] = &slab[ci], true
		}
		err := p.Add(n)
		if err == nil && isTempScan(n) {
			err = errTempScan
		}
		if err != nil {
			return nil, fmt.Errorf("plan: loaded module is invalid: %w", err)
		}
	}
	if r.off != len(raw) {
		return nil, fmt.Errorf("plan: %d trailing bytes in access module", len(raw)-r.off)
	}
	// The last node is the root, and the module is its plan: a node no
	// operator above consumes is not part of it.
	if i := slices.Index(consumed[:count-1], false); i >= 0 {
		return nil, fmt.Errorf("plan: loaded module is invalid: node %d is not part of the plan", i)
	}
	return newProgram(p), p.Seal()
}

// take cuts n elements off a slab, starting a new chunk when it runs
// out; earlier cuts keep pointing into the chunks they came from. One
// allocation per chunk replaces one per cut.
func take[T any](slab *[]T, n, chunk int) []T {
	if len(*slab) < n {
		*slab = make([]T, max(n, chunk))
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}
