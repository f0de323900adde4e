// Command obsd runs a demo workload under the workload observatory and
// serves its live endpoints over HTTP:
//
//	/query        POST a SQL-ish statement + bindings; executed as a
//	              prepared query through the shared plan cache under
//	              the tenant named by the X-Tenant header
//	/metrics      JSON metrics snapshot (counters, gauges, histograms,
//	              plan-cache hits/misses, per-tenant admission,
//	              per-operator and per-relation aggregates)
//	/calibration  interval-calibration reports, worst offenders first
//	/queries      recent run records as JSON lines (?n=K for the newest K)
//	/traces       recent query span trees as JSON lines (?n=K likewise)
//
// Usage:
//
//	obsd [-addr :8344] [-seed 7] [-n 200] [-interval 50ms] [-stale 4] [-reopt] [-trace] [-profile]
//
// The demo database is the 3-way chain join the repository's experiments
// use (E1 ⋈ E2 ⋈ E3, each with a selection on a host variable), executed
// through the governed path with varied selectivities so admission stats,
// latency histograms, and choose-plan decisions all populate. -stale
// multiplies E1's real row count beyond its catalog cardinality, so the
// calibration table has a genuine offender to flag. -reopt arms mid-query
// re-optimization on every workload query: the stale relation trips a
// cardinality guard mid-flight and the remedy (switch or re-plan) lands
// in the /queries trace ring and the /metrics reopt counters. -trace
// turns on end-to-end span tracing, populating /traces with each query's
// span tree and /metrics with per-stage latency histograms. -profile
// additionally mounts the runtime profiler (/debug/pprof/...) and expvar
// (/debug/vars) next to the observatory endpoints. With -n 0 the server starts with an empty
// registry; otherwise it keeps serving after the workload finishes so
// the endpoints can be inspected at leisure.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"dynplan"
)

func main() {
	d, err := newDaemon(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	go func() {
		if err := d.workload(); err != nil {
			log.Printf("obsd: workload: %v", err)
		}
	}()
	log.Printf("obsd: serving /query /metrics /calibration /queries /traces on %s", d.addr)
	if err := http.ListenAndServe(d.addr, d.handler); err != nil {
		fatal(err)
	}
}

// daemon is obsd wired from its command line: the listen address, the
// demo database with the observatory and governor installed, the HTTP
// handler over it, and the demo workload (run in the background by main,
// synchronously by the tests).
type daemon struct {
	addr     string
	db       *dynplan.Database
	handler  http.Handler
	workload func() error
}

// newDaemon parses obsd's command line (without the program name) and
// wires the daemon it describes.
func newDaemon(args []string) (*daemon, error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	addr := fs.String("addr", ":8344", "HTTP listen address")
	seed := fs.Int64("seed", 7, "data and workload seed")
	n := fs.Int("n", 200, "workload queries to run (0 serves an empty registry)")
	interval := fs.Duration("interval", 50*time.Millisecond, "pause between workload queries")
	stale := fs.Float64("stale", 4, "staleness factor applied to E1's real cardinality")
	reopt := fs.Bool("reopt", false, "arm mid-query re-optimization on every workload query")
	trace := fs.Bool("trace", false, "turn on end-to-end span tracing (/traces, per-stage latency histograms)")
	profile := fs.Bool("profile", false, "mount net/http/pprof under /debug/pprof/ and expvar under /debug/vars")
	_ = fs.Parse(args) // ExitOnError: a bad command line never returns

	db, sys, mod, q, err := demoDatabase(*seed, *stale)
	if err != nil {
		return nil, err
	}
	db.EnableObservatory()
	db.SetGovernor(dynplan.GovernorConfig{
		TotalPages:    256,
		MinGrantPages: 16,
		MaxConcurrent: 4,
		TenantSlots:   2,
		TenantPages:   128,
	})
	if *trace {
		db.EnableTracing()
	}
	var rp *dynplan.ReoptPolicy
	if *reopt {
		rp = &dynplan.ReoptPolicy{Query: q}
	}

	mux := http.NewServeMux()
	mux.Handle("/query", newQueryServer(db, sys))
	mux.Handle("/", db.Handler())
	if *profile {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
	}
	workload := func() error { return runWorkload(db, mod, rp, *seed, *n, *interval) }
	return &daemon{addr: *addr, db: db, handler: mux, workload: workload}, nil
}

// demoDatabase builds the 3-way chain-join system with data loaded and
// indexes built, returning the opened database, the system (the /query
// front end parses statements against its catalog), the dynamic plan's
// access module, and the logical query (the re-plan remedy needs it).
// staleness > 1 loads E1 with that multiple of its catalog cardinality,
// making the catalog stale by construction.
func demoDatabase(seed int64, staleness float64) (*dynplan.Database, *dynplan.System, *dynplan.Module, *dynplan.Query, error) {
	sys := dynplan.New()
	for i := 1; i <= 3; i++ {
		sys.MustCreateRelation(fmt.Sprintf("E%d", i), 400, 512,
			dynplan.Attr{Name: "a", DomainSize: 400, BTree: true},
			dynplan.Attr{Name: "jl", DomainSize: 80, BTree: true},
			dynplan.Attr{Name: "jh", DomainSize: 80, BTree: true},
		)
	}
	spec := dynplan.QuerySpec{}
	for i := 1; i <= 3; i++ {
		spec.Relations = append(spec.Relations, dynplan.RelSpec{
			Name: fmt.Sprintf("E%d", i),
			Pred: &dynplan.Pred{Attr: "a", Variable: fmt.Sprintf("v%d", i)},
		})
	}
	for i := 1; i < 3; i++ {
		spec.Joins = append(spec.Joins, dynplan.JoinSpec{
			LeftRel: fmt.Sprintf("E%d", i), LeftAttr: "jh",
			RightRel: fmt.Sprintf("E%d", i+1), RightAttr: "jl",
		})
	}
	q, err := sys.BuildQuery(spec)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	dyn, err := sys.OptimizeDynamic(q, dynplan.Uncertainty{})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	mod, err := dyn.Module()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	db := sys.OpenDatabase()
	if err := db.GenerateData(seed); err != nil {
		return nil, nil, nil, nil, err
	}
	// Stale catalog: E1 really holds staleness x its declared 400 rows.
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < int(400*(staleness-1)); i++ {
		row := []int64{int64(rng.Intn(400)), int64(rng.Intn(80)), int64(rng.Intn(80))}
		if err := db.Insert("E1", row); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	if err := db.BuildIndexes(); err != nil {
		return nil, nil, nil, nil, err
	}
	return db, sys, mod, q, nil
}

// runWorkload drives n governed executions with varied selectivities and
// memory, the traffic the endpoints report on. A non-nil re-optimization
// policy arms the cardinality guards on every query.
func runWorkload(db *dynplan.Database, mod *dynplan.Module, rp *dynplan.ReoptPolicy, seed int64, n int, interval time.Duration) error {
	rng := rand.New(rand.NewSource(seed))
	sels := []float64{0.05, 0.1, 0.25, 0.5, 0.8}
	mems := []float64{32, 64, 96}
	for i := 0; i < n; i++ {
		b := dynplan.Bindings{
			Selectivities: map[string]float64{
				"v1": sels[rng.Intn(len(sels))],
				"v2": sels[rng.Intn(len(sels))],
				"v3": sels[rng.Intn(len(sels))],
			},
			MemoryPages: mems[rng.Intn(len(mems))],
		}
		opts := dynplan.ExecOptions{
			Governed:  true,
			Resilient: true,
			Reopt:     rp,
		}
		if _, err := db.Exec(context.Background(), mod, b, opts); err != nil {
			return err
		}
		time.Sleep(interval)
	}
	log.Printf("obsd: workload done (%d queries); endpoints stay live", n)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obsd:", err)
	os.Exit(1)
}
