package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Tracing from outside. The benchmark cannot see inside the library, so
// a span brackets one call into one layer's public function; spans of one
// op share the id of the op's root span. Spans stay in memory until the
// run ends and are then written as JSON lines.

// span is one timed interval at a layer boundary.
type span struct {
	ID int `json:"id"`
	// Parent is the enclosing span's id, -1 for a root; Trace is the id
	// of the root of the tree the span belongs to.
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	// Pass and Index say which replay of which op (for a "compile" tree:
	// which statement) the span belongs to.
	Pass    int    `json:"pass"`
	Index   int    `json:"index"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Note    string `json:"note,omitempty"`
}

func (s span) durNS() int64 { return s.EndNS - s.StartNS }

// recorder collects spans; times are nanoseconds since its epoch on the
// monotonic clock. It is used from one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) at(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// begin opens a span now and returns its id.
func (r *recorder) begin(name string, parent, pass, index int) int {
	id := r.add(span{Parent: parent, Name: name, Pass: pass, Index: index})
	r.spans[id].StartNS = r.at(time.Now()) // after the append: growing the slice is not the layer's time
	return id
}

func (r *recorder) end(id int) { r.spans[id].EndNS = r.at(time.Now()) }

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(s span) int {
	s.ID = len(r.spans)
	s.Trace = s.ID
	if s.Parent >= 0 {
		s.Trace = r.spans[s.Parent].Trace
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one worth reporting
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // likewise
		return err
	}
	return f.Close()
}

// selfNS is a span's self time: its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// and may stick out of the parent; covered time is the union, clipped.
func selfNS(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	covered, edge := int64(0), parent.StartNS
	for _, v := range ivs {
		if v.hi <= edge {
			continue
		}
		covered += v.hi - max(v.lo, edge)
		edge = v.hi
	}
	return parent.durNS() - covered
}

// children groups spans by parent id.
func (r *recorder) children() map[int][]span {
	out := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// layerUS is a layer's latency the way end-to-end latency is computed:
// for each op (or statement) the named span's opLatency over passes, then
// the median over ops. keep filters spans (nil keeps all).
func (r *recorder) layerUS(name string, keep func(span) bool) float64 {
	return median(r.perIndexUS(name, keep))
}

// perIndexUS returns, per op index that has the named span, its
// opLatency over passes, in index order.
func (r *recorder) perIndexUS(name string, keep func(span) bool) []float64 {
	byIndex := make(map[int][]float64)
	for _, s := range r.spans {
		if s.Name == name && (keep == nil || keep(s)) {
			byIndex[s.Index] = append(byIndex[s.Index], float64(s.durNS())/1e3)
		}
	}
	idx := make([]int, 0, len(byIndex))
	for i := range byIndex {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = opLatency(byIndex[i])
	}
	return out
}
