package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
