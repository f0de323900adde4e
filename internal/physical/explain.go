package physical

import (
	"fmt"

	"dynplan/internal/bindings"
)

// FormatWithCosts renders the DAG like Node.Format but annotates every
// operator with its output-cardinality and cumulative-cost estimates
// under the given environment — interval annotations at compile-time,
// point annotations for bound environments (EXPLAIN with costs).
func (n *Node) FormatWithCosts(m *Model, env *bindings.Env) string {
	p := mustLower(n)
	res := m.EvaluateProgram(p, env)
	return n.render(func(n *Node) string {
		r := res[p.Index(n)]
		return fmt.Sprintf("  [rows=%s cost=%s]", r.Card, r.Cost)
	})
}
