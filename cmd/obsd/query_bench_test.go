package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkQueryHandler serves POST /query in-process through the handler
// obsd serves, on the database the benchmark's obsd serves (-seed 7
// -stale 1): the twelve http_service statements in turn, each under ten
// seeded bindings, with the default max_rows. It reports what the handler
// allocates per request — parse of the body, plan-cache hit, governed
// execution, projection and the JSON reply — with no socket in the way,
// so the handler can be profiled with -memprofile or -cpuprofile.
func BenchmarkQueryHandler(b *testing.B) {
	d, err := newDaemon([]string{"-n", "0", "-stale", "1"})
	if err != nil {
		b.Fatal(err)
	}
	var bodies [][]byte
	for si, s := range serviceStatements() {
		rng := rand.New(rand.NewSource(int64(100 + si)))
		for range 10 {
			bodies = append(bodies, serviceBody(s, rng, nil))
		}
	}
	// Warm the statement map and the plan cache: the service's steady
	// state is every statement prepared.
	for _, body := range bodies {
		if rec := serve(d, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := bodies[i%len(bodies)]
		if rec := serve(d, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
