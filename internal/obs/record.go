package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// Digest returns a short stable hash of a plan's formatted shape, the
// plan-identity key run records and the query log group executions by:
// FNV-1a 64 in 16 hex digits, of text or bytes alike (hashed in place).
func Digest[T string | []byte](s T) string {
	h := uint64(14695981039346656037)
	for i := range len(s) {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	var hex [16]byte
	for i := range hex {
		hex[len(hex)-1-i] = "0123456789abcdef"[h>>(4*i)&15]
	}
	return string(hex[:])
}

// RunRecord is the machine-readable outcome of one measured run: the
// query, the executed plan shape with its per-operator counters, the
// optimizer span and start-up decisions when available, a flat metrics
// map, and the headline simulated-cost total. The root package's ledger
// test (TestBenchLedger) rebuilds one record per experiment as
// BENCH_<name>.json and requires the committed copies to match byte for
// byte.
type RunRecord struct {
	// Name identifies the record and determines its filename.
	Name string `json:"name"`
	// Query describes the measured query, free-form.
	Query string `json:"query,omitempty"`
	// Metrics are the record's named series (averages, counts, sizes).
	Metrics map[string]float64 `json:"metrics"`
	// SimCostTotal is the headline simulated cost in seconds; zero for
	// records that carry no cost (size-only and structural records).
	SimCostTotal float64 `json:"sim_cost_total"`
	// Optimizer, Operators, and Decisions attach the full telemetry when
	// the run collected it.
	Optimizer *OptimizerSpan `json:"optimizer,omitempty"`
	Operators *PlanStats     `json:"operators,omitempty"`
	Decisions []ChoiceTrace  `json:"decisions,omitempty"`
	// Admission is the governor's per-query account (grant size, queue
	// wait, degradation) when the query ran governed.
	Admission *AdmissionStats `json:"admission,omitempty"`
	// Retries, BranchSwitched, Backoffs, and BackoffTotalNanos carry the
	// resilient executor's recovery account.
	Retries           int   `json:"retries,omitempty"`
	BranchSwitched    bool  `json:"branch_switched,omitempty"`
	Backoffs          int   `json:"backoffs,omitempty"`
	BackoffTotalNanos int64 `json:"backoff_total_ns,omitempty"`
	// PlanDigest is a stable hash of the executed plan's shape, so the
	// query log can group runs that chose the same plan.
	PlanDigest string `json:"plan_digest,omitempty"`
	// Calibration lists the run's interval-calibration verdicts.
	Calibration []CalibrationVerdict `json:"calibration,omitempty"`
	// Reopt lists the mid-query re-optimization decisions the execution
	// took (guard violations and the remedies chosen).
	Reopt []ReoptEvent `json:"reopt,omitempty"`
	// WallNanos is the query's end-to-end latency; UnixNanos stamps when
	// the record was logged; Error carries the failure text for failed
	// runs in the query log.
	WallNanos int64  `json:"wall_ns,omitempty"`
	UnixNanos int64  `json:"unix_ns,omitempty"`
	Error     string `json:"error,omitempty"`
	// TraceID cross-references the query's span tree in the /traces ring
	// when tracing was enabled for the run.
	TraceID string `json:"trace_id,omitempty"`
	// Tenant names the identity the query ran under; CacheHit reports
	// that the executed plan was served from the shared plan cache.
	Tenant   string `json:"tenant,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// Filename returns the record's canonical file name, BENCH_<name>.json.
func (r *RunRecord) Filename() (string, error) {
	if !nameRe.MatchString(r.Name) {
		return "", fmt.Errorf("obs: run record name %q is not filename-safe", r.Name)
	}
	return "BENCH_" + r.Name + ".json", nil
}

// WriteFile writes the record as indented JSON into dir under its
// canonical name.
func (r *RunRecord) WriteFile(dir string) error {
	name, err := r.Filename()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
