package obs

import (
	"fmt"
	"strings"
	"time"
)

// This file is the end-to-end span tracer: the per-query answer to "where
// did this query's wall-clock go". Where the Collector meters operators
// and the Registry aggregates across queries, a Trace is one query's
// hierarchical timeline — a span per pipeline stage, per run of the remedy
// loop, and per replan — with the time a stage spent *waiting* (admission
// queue, grant negotiation, retry backoff sleep, replan planning)
// attributed explicitly, so
//
//	sum(child spans) + attributed waits ≈ span duration
//
// holds at every level of the tree and unexplained wall-clock is visible
// as a span's self time.
//
// Like the Collector and the Registry, the disabled state is a nil
// *Trace: every method is safe on a nil receiver, and the pipeline's
// disabled fast path stays one pointer comparison with zero allocations
// (pinned by the exec-pipeline-overhead and trace-overhead ledger
// records). The enabled path is allocation-frugal: spans come from a
// fixed arena allocated once per trace, and only a trace that outgrows
// it (deep retry/reopt cascades) falls back to the heap span by span.

// Span kinds, carried on every span so consumers can filter the tree
// structurally (cmd/obsd's TestTraceLane extracts the stage chain by kind).
const (
	// SpanStage is one pipeline stage (Record, Admit, …, Run).
	SpanStage = "stage"
	// SpanAttempt is one run of the stages below the Remedy stage: the
	// first, and each re-optimized or retried re-run.
	SpanAttempt = "attempt"
	// SpanReplan is a mid-query re-plan between two attempts.
	SpanReplan = "replan"
)

// Wait-state kinds: the explicit attributions that close the gap between
// a span's duration and its children's.
const (
	// WaitAdmissionQueue is time spent queued for an execution slot.
	WaitAdmissionQueue = "admission-queue"
	// WaitGrant is time spent negotiating the memory grant.
	WaitGrant = "grant"
	// WaitRetryBackoff is the retry remedy's backoff sleep between attempts.
	WaitRetryBackoff = "retry-backoff"
	// WaitReplanPlanning is optimizer time inside a mid-query re-plan.
	WaitReplanPlanning = "replan-planning"
)

// WaitState is one attributed wait inside a span, summed per kind.
type WaitState struct {
	Kind  string `json:"kind"`
	Nanos int64  `json:"ns"`
}

// Span is one node of a trace's tree. Offsets are nanoseconds since the
// trace started, so a serialized tree is self-contained.
type Span struct {
	Name          string      `json:"name"`
	Kind          string      `json:"kind"`
	StartNanos    int64       `json:"start_ns"`
	DurationNanos int64       `json:"duration_ns"`
	Waits         []WaitState `json:"waits,omitempty"`
	Children      []*Span     `json:"children,omitempty"`

	t *Trace // owning tracer; nil on a decoded or detached span
}

// traceArenaSpans sizes the per-trace span arena: enough for the deepest
// stock stack (5 stages) plus a realistic retry/reopt episode
// without touching the heap again.
const traceArenaSpans = 48

// Trace is one query's span tree under construction. It has one owner,
// the goroutine that runs the query: every span is opened, annotated and
// closed there, and the tree is handed off only once Finish seals it.
type Trace struct {
	id    string
	start time.Time

	arena []Span
	root  *Span
}

// NewTrace starts an empty trace. The id should be deterministic per
// database (a sequence number), so run records and /traces cross-reference
// stably.
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now(), arena: make([]Span, 0, traceArenaSpans)}
}

// ID returns the trace's identifier; empty on nil.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens a span under parent. A nil parent attaches to the root —
// the first span started becomes the root itself. Nil-safe: a nil trace
// returns a nil span, on which End and AddWait are no-ops, so call sites
// need no branches beyond the trace check they already make.
func (t *Trace) Start(parent *Span, name, kind string) *Span {
	if t == nil {
		return nil
	}
	now := time.Since(t.start).Nanoseconds()
	var s *Span
	if len(t.arena) < cap(t.arena) {
		t.arena = t.arena[:len(t.arena)+1]
		s = &t.arena[len(t.arena)-1]
	} else {
		s = &Span{}
	}
	s.Name = name
	s.Kind = kind
	s.StartNanos = now
	s.DurationNanos = -1 // open
	s.t = t
	switch {
	case parent != nil:
		parent.Children = append(parent.Children, s)
	case t.root == nil:
		t.root = s
	default:
		t.root.Children = append(t.root.Children, s)
	}
	return s
}

// End closes the span. Idempotent: only the first End (or the trace's
// Finish) sets the duration.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	if s.DurationNanos < 0 {
		s.DurationNanos = time.Since(s.t.start).Nanoseconds() - s.StartNanos
	}
}

// AddWait attributes nanos of wait time of the given kind to the span,
// merging into an existing entry of the same kind. Non-positive waits are
// dropped (a coarse clock can measure an uncontended acquire as zero).
func (s *Span) AddWait(kind string, nanos int64) {
	if s == nil || s.t == nil || nanos <= 0 {
		return
	}
	for i := range s.Waits {
		if s.Waits[i].Kind == kind {
			s.Waits[i].Nanos += nanos
			return
		}
	}
	s.Waits = append(s.Waits, WaitState{Kind: kind, Nanos: nanos})
}

// WaitNanos sums the span's attributed waits.
func (s *Span) WaitNanos() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for _, w := range s.Waits {
		n += w.Nanos
	}
	return n
}

// ChildNanos sums the durations of the span's children — the part of
// this span's wall-clock its children partition among themselves.
func (s *Span) ChildNanos() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for _, c := range s.Children {
		if c.DurationNanos > 0 {
			n += c.DurationNanos
		}
	}
	return n
}

// SelfNanos is the span's duration not explained by children or
// attributed waits: its own work (for leaves) or unattributed overhead
// (for wrapper spans).
func (s *Span) SelfNanos() int64 {
	if s == nil {
		return 0
	}
	return s.DurationNanos - s.ChildNanos() - s.WaitNanos()
}

// Walk visits the span and its descendants pre-order.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// TraceRecord is a finished trace: the /traces payload and the form
// attached to ExecResult. Root is immutable once the record exists.
type TraceRecord struct {
	ID        string `json:"id"`
	Root      *Span  `json:"root"`
	WallNanos int64  `json:"wall_ns"`
	Error     string `json:"error,omitempty"`
}

// Finish seals the trace: any span still open (error exits unwind without
// ending their spans) is closed at the trace's final instant, and the
// tree is handed off as a TraceRecord. Finish is idempotent in effect but
// should be called once, by the pipeline entry that created the trace.
func (t *Trace) Finish(err error) *TraceRecord {
	if t == nil {
		return nil
	}
	wall := time.Since(t.start).Nanoseconds()
	var closeOpen func(s *Span)
	closeOpen = func(s *Span) {
		if s == nil {
			return
		}
		if s.DurationNanos < 0 {
			s.DurationNanos = wall - s.StartNanos
		}
		for _, c := range s.Children {
			closeOpen(c)
		}
	}
	closeOpen(t.root)
	rec := &TraceRecord{ID: t.id, Root: t.root, WallNanos: wall}
	if err != nil {
		rec.Error = err.Error()
	}
	return rec
}

// Unattributed sums, over every span that has children, the positive
// self time — the wall-clock the trace fails to attribute to a child span
// or an explicit wait. Leaves (whose self time is genuine work) are
// excluded, so this is the tracer's own accounting error, the quantity
// the reconciliation tests bound.
func (r *TraceRecord) Unattributed() int64 {
	if r == nil || r.Root == nil {
		return 0
	}
	var n int64
	r.Root.Walk(func(s *Span) {
		if s.ChildNanos() == 0 {
			return
		}
		if self := s.SelfNanos(); self > 0 {
			n += self
		}
	})
	return n
}

// Render formats the trace as an indented tree for EXPLAIN ANALYZE and
// the README transcript: one line per span with duration, self time, and
// waits.
func (r *TraceRecord) Render() string {
	if r == nil || r.Root == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "TRACE %s wall=%s", r.ID, fmtNanos(r.WallNanos))
	if r.Error != "" {
		fmt.Fprintf(&sb, " error=%q", r.Error)
	}
	sb.WriteByte('\n')
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		sb.WriteString(strings.Repeat("  ", depth+1))
		fmt.Fprintf(&sb, "%-10s %s", s.Name, fmtNanos(s.DurationNanos))
		if self := s.SelfNanos(); len(s.Children) > 0 && self > 0 {
			fmt.Fprintf(&sb, " (self %s)", fmtNanos(self))
		}
		for _, w := range s.Waits {
			fmt.Fprintf(&sb, " [%s %s]", w.Kind, fmtNanos(w.Nanos))
		}
		sb.WriteByte('\n')
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(r.Root, 0)
	return sb.String()
}

// fmtNanos renders a nanosecond count at µs resolution, the scale stage
// latencies live at in the simulator.
func fmtNanos(ns int64) string {
	switch {
	case ns >= int64(time.Second):
		return fmt.Sprintf("%.3fs", float64(ns)/float64(time.Second))
	case ns >= int64(time.Millisecond):
		return fmt.Sprintf("%.3fms", float64(ns)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(ns)/float64(time.Microsecond))
	}
}
