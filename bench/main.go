// Command bench is the repository's wall-clock benchmark: four workloads
// over the public dynplan API and a spawned obsd, robust per-op latency
// statistics, an oracle check of every result, and a traced run that
// times each layer from outside. See README.md.
//
// Run it from this directory:
//
//	go run .                          every workload -runs times, then traced; writes out/result.json
//	go run . -compare a.json b.json   judge two result files against the bounds
//	go run . -smoke                   every path once on a 20-op list
//	go run . --workload W --seed N --seconds S --trace 0|1
//	                                  one run; last line of stdout is the driver's JSON result
//	go run . -manifest                print BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		cfg     runConfig
		trace   int
		runs    int
		out     string
		cmp     bool
		printMf bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload and print the driver's result line")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of bindings and op order")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "with -workload: 1 makes the traced run (per-layer metrics), 0 the end-to-end run")
	flag.BoolVar(&cfg.smoke, "smoke", false, "20-op lists, fewest passes, in-process workloads only: checks the paths, not the speed")
	flag.IntVar(&runs, "runs", 3, "suite: untraced runs per workload")
	flag.StringVar(&out, "out", "out/result.json", "suite: where to write the result file")
	flag.BoolVar(&cmp, "compare", false, "compare two suite result files: -compare a.json b.json")
	flag.BoolVar(&printMf, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	cfg.trace = trace != 0

	// A signal cancels ctx; the obsd child is started under it and every
	// loop checks it, so an interrupted run still reaps its child.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env := &environment{outDir: "out"}

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case printMf:
		b, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(b)
	case cmp:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compare(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
	case cfg.smoke:
		if err := smoke(ctx, cfg, env); err != nil {
			return fail(err)
		}
		fmt.Println("smoke ok")
	case cfg.workload != "":
		res, err := run(ctx, cfg, env)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fail(fmt.Errorf("%d of %d ops failed; first: %w", res.Failed, res.Attempted, res.err))
		}
	default:
		if err := runSuite(ctx, cfg, runs, out, env, os.Stdout); err != nil {
			return fail(err)
		}
	}
	return 0
}

// smoke runs every in-process workload once untraced and once traced on
// a tiny op list.
func smoke(ctx context.Context, cfg runConfig, env *environment) error {
	cfg.seconds = 0
	for _, d := range workloadDefs {
		if d.http {
			continue
		}
		for _, traced := range []bool{false, true} {
			cfg.workload, cfg.trace = d.name, traced
			res, err := run(ctx, cfg, env)
			if err != nil {
				return fmt.Errorf("%s: %w", d.name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d ops failed; first: %w", d.name, res.Failed, res.Attempted, res.err)
			}
		}
	}
	return nil
}
