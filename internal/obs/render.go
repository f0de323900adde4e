package obs

import (
	"fmt"
	"strings"
	"time"
)

// Render formats the stats tree as an EXPLAIN ANALYZE-style annotated
// plan: each operator line carries its observed rows, page I/O, tuple
// work, wall time, simulated time under the supplied rates, and buffered
// memory high-water where applicable. I/O and time figures are inclusive
// of the operator's inputs; rows are the operator's own output.
func (s *PlanStats) Render(r CostRates) string {
	var b strings.Builder
	s.render(&b, 0, r)
	return b.String()
}

func (s *PlanStats) render(b *strings.Builder, depth int, r CostRates) {
	indent := strings.Repeat("  ", depth)
	c := s.Counters
	fmt.Fprintf(b, "%s%s\n", indent, s.Label)
	fmt.Fprintf(b, "%s  (rows=%d next=%d seq=%d rand=%d write=%d tuples=%d wall=%s sim=%.4gs",
		indent, c.Rows, c.NextCalls, c.SeqPageReads, c.RandPageReads, c.PageWrites,
		c.TupleOps, time.Duration(c.WallNanos).Round(time.Microsecond), c.SimulatedSeconds(r))
	if c.MemBytes > 0 {
		fmt.Fprintf(b, " mem=%s", formatBytes(c.MemBytes))
	}
	if c.FaultsAbsorbed > 0 {
		fmt.Fprintf(b, " faults-absorbed=%d", c.FaultsAbsorbed)
	}
	if p := s.Predicted; p != nil {
		fmt.Fprintf(b, " pred-rows=[%.4g,%.4g]", p.CardLo, p.CardHi)
		if s.QError > 1 {
			fmt.Fprintf(b, " q-err=%.3g", s.QError)
		}
		if s.Violation {
			b.WriteString(" VIOLATION")
		}
	}
	b.WriteString(")\n")
	for _, ch := range s.Children {
		ch.render(b, depth+1, r)
	}
}
