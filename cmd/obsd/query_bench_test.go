package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// queryRig is the database the benchmark's obsd serves (-seed 7 -stale 1)
// and the POST /query bodies of the twelve http_service statements, each
// under ten seeded bindings with the default max_rows, every statement
// already prepared: the service's steady state.
func queryRig(tb testing.TB) (*daemon, [][]byte) {
	tb.Helper()
	d, err := newDaemon([]string{"-n", "0", "-stale", "1"})
	if err != nil {
		tb.Fatal(err)
	}
	var bodies [][]byte
	for si, s := range serviceStatements() {
		rng := rand.New(rand.NewSource(int64(100 + si)))
		for range 10 {
			bodies = append(bodies, serviceBody(s, rng, nil))
		}
	}
	for _, body := range bodies {
		serveQuery(tb, d, body)
	}
	return d, bodies
}

// serveQuery serves one POST /query in-process and fails on a non-200.
func serveQuery(tb testing.TB, d *daemon, body []byte) {
	tb.Helper()
	if rec := serve(d, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))); rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkQueryHandler serves the rig's requests in turn through the
// handler obsd serves. It reports what the handler allocates per request
// — parse of the body, plan-cache hit, governed execution, projection and
// the JSON reply — with no socket in the way, so the handler can be
// profiled with -memprofile or -cpuprofile.
func BenchmarkQueryHandler(b *testing.B) {
	d, bodies := queryRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveQuery(b, d, bodies[i%len(bodies)])
	}
}

// TestQueryHandlerBytes pins what the handler allocates per request over
// the rig's requests, in bytes. The executor starts each buffer at the
// start-up sweep's predicted rows, returns a root Sort's buffer as the
// result and draws every buffer a run drops from a pooled scratch:
// 68–74 KB per request, and the bound leaves 8 % of headroom. Allocating
// the dropped buffers afresh on every run measured 85–86 KB, over the
// bound; growing every buffer from eight rows and copying a sorted
// result's headers too, 118 KB. Skipped under the race detector, whose
// instrumentation allocates.
func TestQueryHandlerBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	d, bodies := queryRig(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, body := range bodies {
		serveQuery(t, d, body)
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / uint64(len(bodies))
	const bound = 80_000
	t.Logf("%d requests, %d B per request (bound %d)", len(bodies), perRequest, bound)
	if perRequest > bound {
		t.Errorf("%d B per request, want <= %d", perRequest, bound)
	}
}
