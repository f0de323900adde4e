package physical

import "dynplan/internal/bindings"

// FormatWithCosts renders the DAG like Node.Format but annotates every
// operator with its output-cardinality and cumulative-cost estimates
// under the given environment — interval annotations at compile-time,
// point annotations for bound environments (EXPLAIN with costs).
func (n *Node) FormatWithCosts(m *Model, env *bindings.Env) string {
	p := mustLower(n)
	b, _ := n.render(nil, nil, 0, p, m.EvaluateProgram(p, env))
	return string(b)
}
