package main

import "encoding/json"

// The metric tables. BENCHMARK.json at the repository root is generated
// from them (`-manifest`), and a test fails when the two disagree, so a
// metric's name, unit, direction and bound live in exactly one place.

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median an end-to-end metric may
	// worsen by before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures; it is BENCHMARK.json's
// run_seconds and the default of -seconds.
const runSeconds = 20

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees, the same on every
// workload. error_frac is not among them: the contract wants metrics
// that are never 0, and errors travel in the result's correct / attempted
// / failed fields instead.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_p50_us", "us", lower, 0.25},
	{"op_p95_us", "us", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"allocs_per_op", "count", lower, 0.03},
	{"alloc_kb_per_op", "KiB", lower, 0.03},
}

// perLayer are the traced run's metrics, one line per layer boundary the
// benchmark can reach from outside. A metric whose layer is not on a
// workload's path reads 0 there.
var perLayer = []metricDef{
	{Name: "sqlish.parse_us", Unit: "us", Better: lower},
	{Name: "sqlish.parse_allocs", Unit: "count", Better: lower},
	{Name: "search.optimize_us", Unit: "us", Better: lower},
	{Name: "search.optimize_allocs", Unit: "count", Better: lower},
	{Name: "search.plan_nodes", Unit: "count", Better: lower},
	{Name: "search.choose_plans", Unit: "count", Better: lower},
	{Name: "plan.encode_us", Unit: "us", Better: lower},
	{Name: "plan.module_bytes", Unit: "B", Better: lower},
	{Name: "plan.decode_us", Unit: "us", Better: lower},
	{Name: "plancache.hit_us", Unit: "us", Better: lower},
	{Name: "plancache.miss_us", Unit: "us", Better: lower},
	{Name: "plancache.miss_time_frac", Unit: "ratio", Better: lower},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "plancache.misses", Unit: "count", Better: lower},
	{Name: "plancache.evictions", Unit: "count", Better: lower},
	{Name: "plan.activate_us", Unit: "us", Better: lower},
	{Name: "plan.activate_allocs", Unit: "count", Better: lower},
	{Name: "plan.nodes_evaluated", Unit: "count", Better: lower},
	{Name: "plan.decisions", Unit: "count", Better: lower},
	{Name: "exec.run_us", Unit: "us", Better: lower},
	{Name: "exec.run_allocs", Unit: "count", Better: lower},
	{Name: "exec.tuple_ops", Unit: "count", Better: lower},
	{Name: "exec.seq_page_reads", Unit: "count", Better: lower},
	{Name: "exec.rand_page_reads", Unit: "count", Better: lower},
	{Name: "exec.page_writes", Unit: "count", Better: lower},
	{Name: "exec.rows_out", Unit: "count", Better: lower},
	{Name: "exec.ns_per_tuple_op", Unit: "ns", Better: lower},
	{Name: "pipeline.residual_us", Unit: "us", Better: lower},
	{Name: "pipeline.residual_frac", Unit: "ratio", Better: lower},
	{Name: "http.server_exec_us", Unit: "us", Better: lower},
	{Name: "http.overhead_us", Unit: "us", Better: lower},
	{Name: "http.prepared_reused_frac", Unit: "ratio", Better: higher},
	{Name: "governor.queue_wait_us", Unit: "us", Better: lower},
	{Name: "governor.sheds", Unit: "count", Better: lower},
	{Name: "http.open.r50.p50_us", Unit: "us", Better: lower},
	{Name: "http.open.r50.p99_us", Unit: "us", Better: lower},
	{Name: "http.open.r100.p50_us", Unit: "us", Better: lower},
	{Name: "http.open.r100.p99_us", Unit: "us", Better: lower},
	{Name: "http.open.r200.p50_us", Unit: "us", Better: lower},
	{Name: "http.open.r200.p99_us", Unit: "us", Better: lower},
	{Name: "http.open.max_rate_ok", Unit: "1/s", Better: higher},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: lower},
	{Name: "harness.raw_p99_us", Unit: "us", Better: lower},
	{Name: "harness.raw_max_us", Unit: "us", Better: lower},
	{Name: "harness.pass_iqr_frac", Unit: "ratio", Better: lower},
	{Name: "harness.gc_cycles_per_kop", Unit: "count", Better: lower},
	{Name: "harness.gc_pause_us_per_op", Unit: "us", Better: lower},
	{Name: "harness.trace_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "harness.verify_s", Unit: "s", Better: lower},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report turns measured numbers into the result's metrics object: every
// metric of the table, in its unit; one the run did not measure reads 0.
func report(defs []metricDef, measured map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: measured[d.Name], Unit: d.Unit}
	}
	return out
}

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []e2e       `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		PerLayer:   perLayer,
	}
	for _, d := range workloadDefs {
		m.Workloads = append(m.Workloads, wl{d.name, d.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	return append(b, '\n'), err
}
