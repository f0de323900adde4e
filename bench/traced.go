package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"dynplan"
)

// The traced run. It spends its time budget on three things:
//
//   - untraced passes, exactly as the end-to-end run makes them, for the
//     harness.* diagnostics, the plan-cache counters and the baseline
//     that pipeline.residual_* is measured against;
//   - traced passes, in which every op is replayed as explicit calls into
//     each layer's public function, one span per call;
//   - one allocation pass per layer, each bracketed by a single MemStats
//     delta.
//
// For http_service the layers are on the far side of a socket: its traced
// run takes the server's own account of each request from the response
// and /metrics, and then runs the open-loop sweep.

const (
	// Shares of -seconds: untraced passes first, then traced passes.
	untracedShare = 0.3
	tracedShare   = 0.5
	// The HTTP run's closed-loop share; each of the three open-loop rates
	// gets a third of the rest.
	closedShare = 0.55
)

func runTraced(ctx context.Context, cfg runConfig, env *environment, w *workload, t target, seen []outcome) (*result, error) {
	rec := newRecorder()
	res, m, err := t.traced(ctx, cfg, rec, seen)
	if err != nil {
		return nil, err
	}
	bad, verr, verifyS := verifyAll(ctx, t, w, seen)
	m["harness.verify_s"] = verifyS
	res.Attempted += len(w.ops)
	res.Failed += bad
	res.err = errors.Join(res.err, verr)
	res.Correct = res.Failed == 0
	res.Metrics = report(perLayer, m)
	return res, rec.write(filepath.Join(env.outDir, "trace-"+w.name+".jsonl"))
}

// harnessMetrics are the diagnostics of an untraced phase: what the raw,
// pooled numbers looked like before the robust statistics were applied.
func harnessMetrics(p *phase, m map[string]float64) {
	var pooled []float64
	for _, b := range p.passes {
		pooled = append(pooled, b.latUS...)
	}
	ops := float64(p.attempted)
	m["harness.raw_p99_us"] = quantile(pooled, 0.99)
	m["harness.raw_max_us"] = quantile(pooled, 1)
	m["harness.pass_iqr_frac"] = iqrFrac(p.passS)
	m["harness.gc_cycles_per_kop"] = float64(p.mem.NumGC) / ops * 1e3
	m["harness.gc_pause_us_per_op"] = float64(p.mem.PauseTotalNs) / 1e3 / ops
}

// tally sums what one traced pass observed; every field must repeat
// exactly from pass to pass and run to run.
type tally struct {
	tupleOps, seqReads, randReads, pageWrites, rows int64
	nodesEvaluated, decisions                       int
	planNodes, choosePlans, moduleBytes             int
}

func (l *local) traced(ctx context.Context, cfg runConfig, rec *recorder, seen []outcome) (*result, map[string]float64, error) {
	w, db := l.w, l.e.db
	nOps, nStmts := float64(len(w.ops)), float64(len(w.statements))
	m := make(map[string]float64)

	cacheBefore := db.PlanCacheStats()
	p, err := replay(ctx, l, w, seen, cfg.seconds*untracedShare, minPasses)
	if err != nil {
		return nil, nil, err
	}
	cache := db.PlanCacheStats()
	passes := float64(len(p.passes))
	hits, misses := float64(cache.Hits-cacheBefore.Hits)/passes, float64(cache.Misses-cacheBefore.Misses)/passes
	m["plancache.misses"] = misses
	m["plancache.evictions"] = float64(cache.Evictions-cacheBefore.Evictions) / passes
	m["plancache.hit_ratio"] = hits / (hits + misses)
	harnessMetrics(p, m)
	res := &result{Attempted: p.attempted, Failed: p.failed, err: p.firstErr}

	// Traced passes.
	mods := make([]*dynplan.Module, len(w.statements))
	var tl tally // of the last pass; every pass tallies the same
	least := 2
	if cfg.smoke {
		least = 1
	}
	start := time.Now()
	for k := 0; k < least || time.Since(start).Seconds() < cfg.seconds*tracedShare; k++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		var bad int
		if tl, bad, err = l.tracedPass(ctx, rec, k, mods, seen); err != nil {
			return nil, nil, err
		}
		res.Attempted += len(w.ops)
		res.Failed += bad
	}

	// compile_churn parses per op as well; the layer metric is the
	// per-statement one on every workload.
	compiling := func(s span) bool { return rec.spans[s.Trace].Name == "compile" }
	m["sqlish.parse_us"] = rec.layerUS("sqlish.parse", compiling)
	m["search.optimize_us"] = rec.layerUS("search.optimize", nil)
	m["plan.encode_us"] = rec.layerUS("plan.encode", nil)
	m["plan.decode_us"] = rec.layerUS("plan.decode", nil)
	m["plan.activate_us"] = rec.layerUS("plan.activate", nil)
	m["exec.run_us"] = rec.layerUS("exec.run", nil)
	hit := func(s span) bool { return s.Note == "hit" }
	miss := func(s span) bool { return s.Note == "miss" }
	m["plancache.hit_us"] = rec.layerUS("plancache.lookup", hit)
	m["plancache.miss_us"] = rec.layerUS("plancache.lookup", miss)
	opUS := rec.perIndexUS("op", nil)
	m["plancache.miss_time_frac"] = sum(rec.perIndexUS("plancache.lookup", miss)) / sum(opUS)

	m["search.plan_nodes"] = float64(tl.planNodes) / nStmts
	m["search.choose_plans"] = float64(tl.choosePlans) / nStmts
	m["plan.module_bytes"] = float64(tl.moduleBytes) / nStmts
	m["plan.nodes_evaluated"] = float64(tl.nodesEvaluated) / nOps
	m["plan.decisions"] = float64(tl.decisions) / nOps
	m["exec.tuple_ops"] = float64(tl.tupleOps) / nOps
	m["exec.seq_page_reads"] = float64(tl.seqReads) / nOps
	m["exec.rand_page_reads"] = float64(tl.randReads) / nOps
	m["exec.page_writes"] = float64(tl.pageWrites) / nOps
	m["exec.rows_out"] = float64(tl.rows) / nOps
	if tl.tupleOps > 0 {
		m["exec.ns_per_tuple_op"] = sum(rec.perIndexUS("exec.run", nil)) * 1e3 / float64(tl.tupleOps)
	}

	// What the real op costs beyond the layers it is made of, called one
	// by one: per op, untraced latency minus the latency of its traced
	// children's total.
	realUS := perOpLatency(p.latUS())
	kids := rec.children()
	var residual, overhead []float64
	childUS := make(map[int][]float64) // per op: its children's total, pass by pass
	for _, s := range rec.spans {
		if s.Name != "op" {
			continue
		}
		total := int64(0)
		for _, c := range kids[s.ID] {
			total += c.durNS()
		}
		childUS[s.Index] = append(childUS[s.Index], float64(total)/1e3)
		overhead = append(overhead, float64(selfNS(s, kids[s.ID]))/float64(s.durNS()))
	}
	for i := range w.ops {
		residual = append(residual, realUS[i]-opLatency(childUS[i]))
	}
	m["pipeline.residual_us"] = median(residual)
	m["pipeline.residual_frac"] = median(residual) / median(realUS)
	// The share of a traced op that is the recorder's own bookkeeping.
	m["harness.trace_overhead_frac"] = median(overhead)

	l.allocPasses(ctx, mods, m)
	return res, m, nil
}

// tracedPass replays every statement's compilation and then every op,
// layer by layer, under spans. It returns what it counted and how many
// ops failed.
func (l *local) tracedPass(ctx context.Context, rec *recorder, k int, mods []*dynplan.Module, seen []outcome) (tally, int, error) {
	sys, db, w := l.e.sys, l.e.db, l.w
	var tl tally
	failed := 0

	// Off the serving path: what a cold compile of each statement costs.
	for s, st := range w.statements {
		root := rec.begin("compile", -1, k, s)
		id := rec.begin("sqlish.parse", root, k, s)
		q, err := sys.Parse(st.sql)
		rec.end(id)
		if err != nil {
			return tl, 0, err
		}
		id = rec.begin("search.optimize", root, k, s)
		pl, err := sys.OptimizeDynamic(q, dynplan.Uncertainty{})
		rec.end(id)
		if err != nil {
			return tl, 0, err
		}
		id = rec.begin("plan.encode", root, k, s)
		mod, err := pl.Module()
		rec.end(id)
		if err != nil {
			return tl, 0, err
		}
		id = rec.begin("plan.decode", root, k, s)
		_, err = sys.LoadModule(mod.Bytes())
		rec.end(id)
		if err != nil {
			return tl, 0, err
		}
		rec.end(root)
		mods[s] = mod
		tl.planNodes += pl.NodeCount()
		tl.choosePlans += pl.ChoosePlanCount()
		tl.moduleBytes += len(mod.Bytes())
	}

	// The serving path, decomposed. The plan-cache look-up goes to the
	// database's real cache, so on compile_churn it hits, misses and
	// evicts exactly as the untraced op does; a miss's span contains the
	// compile.
	for i, o := range w.ops {
		root := rec.begin("op", -1, k, i)
		q := l.queries[o.stmt]
		if w.reparse {
			id := rec.begin("sqlish.parse", root, k, i)
			var err error
			q, err = sys.Parse(w.statements[o.stmt].sql)
			rec.end(id)
			if err != nil {
				return tl, 0, err
			}
		}
		missesBefore := db.PlanCacheStats().Misses
		id := rec.begin("plancache.lookup", root, k, i)
		_, err := db.Prepare(q)
		rec.end(id)
		if err != nil {
			return tl, 0, err
		}
		rec.spans[id].Note = "hit"
		if db.PlanCacheStats().Misses != missesBefore {
			rec.spans[id].Note = "miss"
		}
		id = rec.begin("plan.activate", root, k, i)
		act, err := mods[o.stmt].Activate(o.bind)
		rec.end(id)
		if err != nil {
			return tl, 0, err
		}
		id = rec.begin("exec.run", root, k, i)
		res, err := db.Exec(ctx, act, o.bind, dynplan.ExecOptions{})
		rec.end(id)
		if err != nil {
			return tl, 0, err
		}
		rec.end(root)
		if len(res.Rows) != seen[i].rows {
			failed++
		}
		tl.nodesEvaluated += act.NodesEvaluated()
		tl.decisions += act.Decisions()
		tl.tupleOps += res.TupleOps
		tl.seqReads += res.SeqPageReads
		tl.randReads += res.RandPageReads
		tl.pageWrites += res.PageWrites
		tl.rows += int64(len(res.Rows))
	}
	return tl, failed, nil
}

// allocsPer runs f, which makes n calls into one layer, between two
// MemStats readings and returns the layer's mallocs per call.
func allocsPer(n int, f func()) float64 {
	runtime.GC()
	before := readMemCounters()
	f()
	return float64(readMemCounters().Mallocs-before.Mallocs) / float64(n)
}

// allocPasses measures each layer's allocations in a pass of that
// layer's calls alone. Errors cannot occur here: every call has already
// succeeded with the same arguments in the traced passes.
func (l *local) allocPasses(ctx context.Context, mods []*dynplan.Module, m map[string]float64) {
	sys, db, w := l.e.sys, l.e.db, l.w
	m["sqlish.parse_allocs"] = allocsPer(len(w.statements), func() {
		for _, st := range w.statements {
			_, _ = sys.Parse(st.sql)
		}
	})
	m["search.optimize_allocs"] = allocsPer(len(w.statements), func() {
		for _, q := range l.queries {
			_, _ = sys.OptimizeDynamic(q, dynplan.Uncertainty{})
		}
	})
	acts := make([]*dynplan.Activation, len(w.ops))
	m["plan.activate_allocs"] = allocsPer(len(w.ops), func() {
		for i, o := range w.ops {
			acts[i], _ = mods[o.stmt].Activate(o.bind)
		}
	})
	m["exec.run_allocs"] = allocsPer(len(w.ops), func() {
		for i, o := range w.ops {
			_, _ = db.Exec(ctx, acts[i], o.bind, dynplan.ExecOptions{})
		}
	})
}

func (r *remote) traced(ctx context.Context, cfg runConfig, rec *recorder, seen []outcome) (*result, map[string]float64, error) {
	w := r.w
	m := make(map[string]float64)
	before, err := r.metrics(ctx)
	if err != nil {
		return nil, nil, err
	}
	p, err := replay(ctx, r, w, seen, cfg.seconds*closedShare, minPasses)
	if err != nil {
		return nil, nil, err
	}
	after, err := r.metrics(ctx)
	if err != nil {
		return nil, nil, err
	}
	harnessMetrics(p, m)
	res := &result{Attempted: p.attempted, Failed: p.failed, err: p.firstErr}

	// The server's account of each request, and one root span per op with
	// the server's execution as its child. The response says how long the
	// server took, not when: the child is centred in the round trip.
	server := make([][]float64, len(p.passes))
	reused := 0
	for k, b := range p.passes {
		server[k] = make([]float64, len(b.out))
		for i, o := range b.out {
			server[k][i] = o.serverUS
			if o.reused {
				reused++
			}
			root := rec.add(span{Parent: -1, Name: "op", Pass: k, Index: i,
				StartNS: rec.at(b.start[i]), EndNS: rec.at(b.start[i]) + int64(b.latUS[i]*1e3)})
			slack := int64((b.latUS[i] - o.serverUS) * 1e3 / 2)
			rec.add(span{Parent: root, Name: "http.server_exec", Pass: k, Index: i,
				StartNS: rec.spans[root].StartNS + slack, EndNS: rec.spans[root].EndNS - slack,
				Note: "duration from the response's elapsed_ms; position centred"})
		}
	}
	clientUS, serverUS := perOpLatency(p.latUS()), perOpLatency(server)
	m["http.server_exec_us"] = median(serverUS)
	m["http.overhead_us"] = median(clientUS) - median(serverUS)
	m["http.prepared_reused_frac"] = float64(reused) / float64(p.attempted)
	m["governor.sheds"] = float64(after.Sheds - before.Sheds)
	if n := after.QueueWait.Count - before.QueueWait.Count; n > 0 {
		m["governor.queue_wait_us"] = float64(after.QueueWait.Sum-before.QueueWait.Sum) / float64(n) / 1e3
	}
	// harness.trace_overhead_frac stays 0: these spans are written after
	// the fact from numbers the untraced loop records anyway.

	var late []float64
	met := true // every lower rate met the limit
	for _, rate := range openRates {
		o := r.openLoop(ctx, rate, cfg.seconds*(1-closedShare)/float64(len(openRates)), cfg.seed)
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		res.Attempted += len(o.latUS)
		res.Failed += o.failed
		res.err = errors.Join(res.err, o.firstErr)
		p99 := quantile(o.latUS, 0.99)
		m[fmt.Sprintf("http.open.r%d.p50_us", int(rate))] = median(o.latUS)
		m[fmt.Sprintf("http.open.r%d.p99_us", int(rate))] = p99
		// A failed request misses any limit.
		if met = met && o.failed == 0 && p99 <= openLimitUS; met {
			m["http.open.max_rate_ok"] = rate
		}
		late = append(late, o.lateUS...)
	}
	m["loadgen.late_p99_us"] = quantile(late, 0.99)
	return res, m, nil
}
