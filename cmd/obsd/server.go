package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"dynplan"
)

// queryServer is the prepared-query front end: POST /query takes a
// SQL-ish statement plus host-variable bindings and executes it through
// the shared plan cache under the tenant named by the X-Tenant header.
// Statements are prepared once per distinct query text and the handles
// reused across requests — the paper's compile-once/activate-per-call
// split (§1, §4) exposed as a service. The compiled module itself lives
// in the database's plan cache, so digest-identical statements prepared
// by different tenants (or re-prepared after a server restart of this
// map) still share one compilation per catalog version.
type queryServer struct {
	db  *dynplan.Database
	sys *dynplan.System

	mu       sync.Mutex
	prepared map[string]*dynplan.PreparedQuery
}

func newQueryServer(db *dynplan.Database, sys *dynplan.System) *queryServer {
	return &queryServer{db: db, sys: sys, prepared: make(map[string]*dynplan.PreparedQuery)}
}

// queryRequest is the POST /query body.
type queryRequest struct {
	// SQL is the statement text; see System.Parse for the dialect.
	SQL string `json:"sql"`
	// Selectivities bind the statement's host variables (by name,
	// without the '?').
	Selectivities map[string]float64 `json:"selectivities"`
	// MemoryPages is the memory binding for start-up-time processing
	// (default 64).
	MemoryPages float64 `json:"memory_pages"`
	// MaxRows caps the rows echoed back (default 10; row_count always
	// reports the full result size).
	MaxRows *int `json:"max_rows"`
}

// queryResponse is the POST /query reply.
type queryResponse struct {
	Tenant         string    `json:"tenant,omitempty"`
	PlanDigest     string    `json:"plan_digest"`
	CacheHit       bool      `json:"cache_hit"`
	PreparedReused bool      `json:"prepared_reused"`
	Columns        []string  `json:"columns"`
	RowCount       int       `json:"row_count"`
	Rows           [][]int64 `json:"rows,omitempty"`
	ElapsedMS      float64   `json:"elapsed_ms"`
}

func (s *queryServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.SQL == "" {
		httpError(w, http.StatusBadRequest, errors.New("missing \"sql\""))
		return
	}
	p, reused, err := s.prepare(req.SQL)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	b := dynplan.Bindings{Selectivities: req.Selectivities, MemoryPages: req.MemoryPages}
	if b.MemoryPages <= 0 {
		b.MemoryPages = 64
	}
	tenant := r.Header.Get("X-Tenant")
	start := time.Now()
	res, err := p.Exec(r.Context(), b, dynplan.ExecOptions{Governed: true, Tenant: tenant})
	if err != nil {
		switch {
		case errors.Is(err, dynplan.ErrInvalidBindings):
			httpError(w, http.StatusBadRequest, err)
		case errors.Is(err, dynplan.ErrAdmission):
			httpError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, r.Context().Err()):
			httpError(w, http.StatusRequestTimeout, err)
		default:
			httpError(w, http.StatusInternalServerError, err)
		}
		return
	}
	// Cut the result to the rows echoed back before projecting it, so the
	// projection copies those rows and no others.
	maxRows := 10
	if req.MaxRows != nil {
		maxRows = *req.MaxRows
	}
	rowCount := len(res.Rows)
	if maxRows >= 0 && rowCount > maxRows {
		res.Rows = res.Rows[:maxRows]
	}
	if proj := p.Query().Projection(); len(proj) > 0 {
		if res, err = res.Project(proj); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Tenant:         res.Tenant,
		PlanDigest:     res.PlanDigest,
		CacheHit:       res.PlanCacheHit,
		PreparedReused: reused,
		Columns:        res.Columns,
		RowCount:       rowCount,
		Rows:           res.Rows,
		ElapsedMS:      float64(time.Since(start).Microseconds()) / 1000,
	})
}

// prepare returns the cached statement handle for the query text,
// compiling it on first sight. The handle map deduplicates on exact
// text; the plan cache underneath deduplicates on normalized digest, so
// two texts that parse to the same query still share one module.
func (s *queryServer) prepare(sql string) (*dynplan.PreparedQuery, bool, error) {
	s.mu.Lock()
	p, ok := s.prepared[sql]
	s.mu.Unlock()
	if ok {
		return p, true, nil
	}
	q, err := s.sys.Parse(sql)
	if err != nil {
		return nil, false, err
	}
	p, err = s.db.Prepare(q)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if prior, ok := s.prepared[sql]; ok {
		p = prior // another request prepared it concurrently
	} else {
		s.prepared[sql] = p
	}
	s.mu.Unlock()
	return p, false, nil
}

func httpError(w http.ResponseWriter, code int, err error) {
	if code >= 500 {
		log.Printf("obsd: /query: %v", err)
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("obsd: encode response: %v", err)
	}
}
