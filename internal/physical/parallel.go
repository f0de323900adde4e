package physical

// This file prices plans as the parallel executor would run them, so
// degree of parallelism is a costed alternative in the paper's sense
// (§4): at activation the pipeline evaluates the resolved plan serially
// and at the grant-funded DOP, and runs parallel only when the parallel
// estimate is cheaper — least-expected-cost choice over {serial, DOP},
// exactly how low-memory choose-plan branches are already selected.
//
// The model mirrors the executor's compile dispatch (exec.DB.compile):
// base-relation scans and hash joins partition DOP ways, a Filter
// directly above a File-Scan is pushed into the scan partitions, and
// everything else runs serial. A partitioned operator's own cost divides
// by DOP; each exchange adds a startup charge per worker and a transfer
// charge per row crossing the boundary.

// ParallelCost returns the cost of the program's last operator, its root,
// executed with dop-way intra-query parallelism at e, which Sweep has
// evaluated. It is a second pass over the serial cardinalities:
// parallelism never changes what an operator produces, only who produces
// it. dop ≤ 1 is the serial cost.
func (p *Program) ParallelCost(params *Params, e *Eval, dop int) float64 {
	last := len(p.Nodes) - 1
	if dop <= 1 {
		return e.Cost[last]
	}
	d := float64(dop)
	// exchange prices one exchange: spawning and joining dop workers plus
	// moving rows rows across the boundary.
	exchange := func(rows float64) float64 {
		return d*params.ExchangeStartupTime + rows*params.ExchangeTupleTime
	}
	par := make([]float64, len(p.Nodes))
	for i, r := range p.rows {
		i := int32(i)
		kids := p.Inputs(i)
		switch r.op {
		case ChoosePlan:
			best := par[kids[0]]
			for _, k := range kids[1:] {
				if par[k] < best {
					best = par[k]
				}
			}
			par[i] = best + params.ChooseOverhead

		case FileScan, BtreeScan, FilterBtreeScan:
			// Partitioned scan behind a gather: the scan's own work divides
			// across the workers; its whole output crosses the exchange.
			par[i] = p.own(params, e, i)/d + exchange(e.Card[i])

		case Filter:
			if k := kids[0]; p.rows[k].op == FileScan {
				// Pushed into the scan partitions: one exchange, carrying only
				// the qualifying rows.
				par[i] = (p.own(params, e, i)+p.own(params, e, k))/d + exchange(e.Card[i])
			} else {
				par[i] = p.own(params, e, i) + par[k]
			}

		case HashJoin:
			// Symmetric partition join: both inputs are hash-routed to DOP
			// partition workers, so the join's own work divides; both input
			// streams and the output cross exchange boundaries.
			crossing := e.Card[kids[0]] + e.Card[kids[1]] + e.Card[i]
			par[i] = p.own(params, e, i)/d + exchange(crossing) + par[kids[0]] + par[kids[1]]

		default:
			// Serial operator over (possibly) parallel inputs.
			c := p.own(params, e, i)
			for _, k := range kids {
				c += par[k]
			}
			par[i] = c
		}
	}
	return par[last]
}

// own is node i's own cost at e, its inputs' excluded.
func (p *Program) own(params *Params, e *Eval, i int32) float64 {
	var in [2]float64
	for j, k := range p.Inputs(i) {
		in[j] = e.Card[k]
	}
	_, c := params.Corner(ShapeOf(p.Nodes[i]), in[0], in[1], p.Selectivity(e, i), e.Mem)
	return c
}
