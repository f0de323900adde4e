package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dynplan"
)

// TestQueryRejectsInvalidSelectivity drives POST /query in-process: a
// selectivity outside [0, 1] is the client's mistake and must come back
// as 400 with the handler still serving — it used to panic the handler
// goroutine and drop the connection. (NaN is not valid JSON, so it is
// already refused by the body decoder; the library-level check is in the
// root package's TestInvalidBindings.)
func TestQueryRejectsInvalidSelectivity(t *testing.T) {
	db, sys, _, _, err := demoDatabase(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := newQueryServer(db, sys)
	post := func(sel string) int {
		body := `{"sql":"SELECT * FROM E1 WHERE E1.a <= ?v1","selectivities":{"v1":` + sel + `}}`
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		return rec.Code
	}
	for _, sel := range []string{"-0.1", "1.5", "NaN"} {
		if code := post(sel); code != http.StatusBadRequest {
			t.Errorf("selectivity %s: status %d, want 400", sel, code)
		}
	}
	if code := post("0.5"); code != http.StatusOK {
		t.Errorf("valid selectivity after the rejections: status %d, want 200", code)
	}
}

// TestQueryStatusMapping pins POST /query's error mapping and response
// fields beyond the 400 above, through the handler main serves.
func TestQueryStatusMapping(t *testing.T) {
	d := boot(t, "-n", "0")

	t.Run("405-get", func(t *testing.T) {
		if rec := serve(d, httptest.NewRequest(http.MethodGet, "/query", nil)); rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET /query: status %d, want 405", rec.Code)
		}
	})
	t.Run("prepared-reused-and-tenant-echoed", func(t *testing.T) {
		// First sight of the text prepares it; the second reuses the handle.
		for i, want := range []bool{false, true} {
			rec := postQuery(d, "alpha")
			var resp queryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("request %d: status %d, err %v: %s", i, rec.Code, err, rec.Body)
			}
			if resp.PreparedReused != want {
				t.Errorf("request %d: prepared_reused %v, want %v", i, resp.PreparedReused, want)
			}
			if resp.Tenant != "alpha" {
				t.Errorf("request %d: tenant %q, want the X-Tenant header echoed", i, resp.Tenant)
			}
		}
	})
	t.Run("408-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(cacheLaneSQL)).WithContext(ctx)
		if rec := serve(d, req); rec.Code != http.StatusRequestTimeout {
			t.Errorf("canceled request: status %d, want 408: %s", rec.Code, rec.Body)
		}
	})
	t.Run("429-tenant-quota-below-floor", func(t *testing.T) {
		// A tenant quota that cannot fund the minimum grant sheds every
		// tenant-tagged request; the anonymous tenant has no quota.
		d.db.SetGovernor(dynplan.GovernorConfig{TotalPages: 256, MinGrantPages: 16, MaxConcurrent: 4, TenantPages: 8})
		for _, tenant := range []string{"alpha", "beta"} {
			if rec := postQuery(d, tenant); rec.Code != http.StatusTooManyRequests {
				t.Errorf("tenant %s: status %d, want 429: %s", tenant, rec.Code, rec.Body)
			}
		}
		if rec := postQuery(d, ""); rec.Code != http.StatusOK {
			t.Errorf("untagged request: status %d, want 200: %s", rec.Code, rec.Body)
		}
	})
	t.Run("400-negative-n", func(t *testing.T) {
		if rec := serve(d, httptest.NewRequest(http.MethodGet, "/queries?n=-1", nil)); rec.Code != http.StatusBadRequest {
			t.Errorf("/queries?n=-1: status %d, want 400", rec.Code)
		}
	})
	t.Run("503-observatory-disabled", func(t *testing.T) {
		d.db.DisableObservatory()
		for _, path := range []string{"/metrics", "/calibration", "/queries", "/traces"} {
			if rec := serve(d, httptest.NewRequest(http.MethodGet, path, nil)); rec.Code != http.StatusServiceUnavailable {
				t.Errorf("GET %s: status %d, want 503", path, rec.Code)
			}
		}
	})
}
