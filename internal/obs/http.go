package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Handler serves the workload observatory over stdlib net/http. source is
// consulted per request and returns the live registry (nil while the
// observatory is disabled, which answers 503), so the handler can be
// installed once and survive Enable/Disable cycles; metrics builds the
// /metrics snapshot (nil while disabled), so the endpoint serves exactly
// what the caller's own snapshot accessor returns. Endpoints:
//
//	/metrics      JSON RegistrySnapshot: counters, gauges, histogram
//	              quantiles, per-operator and per-relation aggregates,
//	              per-stage latency histograms.
//	/calibration  JSON array of CalibrationReports, worst offenders first.
//	/queries      recent run records as JSON lines (application/x-ndjson),
//	              oldest first; ?n=K limits to the newest K.
//	/traces       recent query span trees as JSON lines
//	              (application/x-ndjson), oldest first; ?n=K limits to the
//	              newest K. Bounded by the registry's trace ring.
//
// All endpoints are GET-only (a non-GET method answers 405 with an Allow
// header); unknown routes answer 404. The database layer wraps this as
// (*Database).Handler(), keeping obs free of upward imports.
func Handler(source func() *Registry, metrics func() *RegistrySnapshot) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		s := metrics()
		if s == nil {
			disabled(w)
			return
		}
		writeJSON(w, s)
	})
	mux.HandleFunc("GET /calibration", func(w http.ResponseWriter, req *http.Request) {
		r := source()
		if r == nil {
			disabled(w)
			return
		}
		reps := r.CalibrationReports()
		if reps == nil {
			reps = []CalibrationReport{}
		}
		writeJSON(w, reps)
	})
	mux.HandleFunc("GET /queries", func(w http.ResponseWriter, req *http.Request) {
		r := source()
		if r == nil {
			disabled(w)
			return
		}
		n, ok := limitParam(w, req)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, rec := range r.RecentQueries(n) {
			if err := enc.Encode(rec); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("GET /traces", func(w http.ResponseWriter, req *http.Request) {
		r := source()
		if r == nil {
			disabled(w)
			return
		}
		n, ok := limitParam(w, req)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, rec := range r.RecentTraces(n) {
			if err := enc.Encode(rec); err != nil {
				return
			}
		}
	})
	return mux
}

// limitParam parses the ?n=K limit shared by the ndjson endpoints; on a
// malformed value it answers 400 and reports false.
func limitParam(w http.ResponseWriter, req *http.Request) (int, bool) {
	s := req.URL.Query().Get("n")
	if s == "" {
		return 0, true
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		http.Error(w, "obs: n must be a non-negative integer", http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

func disabled(w http.ResponseWriter) {
	http.Error(w, "obs: observatory disabled", http.StatusServiceUnavailable)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
