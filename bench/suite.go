package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// The suite: what `go run .` does without -workload. Every workload is
// run -runs times, round-robin — never back to back, so a burst of noise
// on the machine cannot land on one workload alone — then traced once.

// series is one end-to-end metric's values over the suite's runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

type suiteWorkload struct {
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
}

// suiteFile is what a suite invocation writes and -compare reads.
type suiteFile struct {
	Go         string                    `json:"go"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	NProc      int                       `json:"nproc"`
	Commit     string                    `json:"commit"`
	Seed       int64                     `json:"seed"`
	Runs       int                       `json:"runs"`
	Seconds    float64                   `json:"seconds"`
	Workloads  map[string]*suiteWorkload `json:"workloads"`
}

// commit names the checkout when it is a git repository; the benchmark
// runs fine where it is not.
func commit(ctx context.Context) string {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func runSuite(ctx context.Context, cfg runConfig, runs int, outPath string, env *environment, stdout io.Writer) error {
	sf := &suiteFile{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Commit: commit(ctx), Seed: cfg.seed, Runs: runs, Seconds: cfg.seconds,
		Workloads: make(map[string]*suiteWorkload),
	}
	var failures []error
	one := func(name string, trace bool) (*result, error) {
		c := cfg
		c.workload, c.trace = name, trace
		res, err := run(ctx, c, env)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sw := sf.Workloads[name]
		sw.Attempted += res.Attempted
		sw.Failed += res.Failed
		if !res.Correct {
			failures = append(failures, fmt.Errorf("%s: %d of %d ops failed; first: %w", name, res.Failed, res.Attempted, res.err))
		}
		return res, nil
	}
	for _, d := range workloadDefs {
		sf.Workloads[d.name] = &suiteWorkload{EndToEnd: make(map[string]*series)}
	}
	for r := 0; r < runs; r++ {
		for _, d := range workloadDefs {
			fmt.Fprintf(os.Stderr, "bench: run %d/%d of %s\n", r+1, runs, d.name)
			res, err := one(d.name, false)
			if err != nil {
				return err
			}
			for name, v := range res.Metrics {
				s := sf.Workloads[d.name].EndToEnd[name]
				if s == nil {
					s = &series{Unit: v.Unit}
					sf.Workloads[d.name].EndToEnd[name] = s
				}
				s.Values = append(s.Values, v.Value)
			}
		}
	}
	for _, d := range workloadDefs {
		fmt.Fprintf(os.Stderr, "bench: traced run of %s\n", d.name)
		res, err := one(d.name, true)
		if err != nil {
			return err
		}
		sf.Workloads[d.name].PerLayer = res.Metrics
	}
	for _, sw := range sf.Workloads {
		for _, s := range sw.EndToEnd {
			s.Median, s.Q1, s.Q3 = median(s.Values), quantile(s.Values, 0.25), quantile(s.Values, 0.75)
		}
	}
	sf.print(stdout)
	raw, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote %s; spans in %s/trace-<workload>.jsonl\n", outPath, env.outDir)
	return errors.Join(failures...)
}

func (sw *suiteWorkload) errorFrac() float64 {
	if sw.Attempted == 0 {
		return 0
	}
	return float64(sw.Failed) / float64(sw.Attempted)
}

// print lists every end-to-end metric by name and unit, then the traced
// run's per-layer metrics, workload by workload.
func (sf *suiteFile) print(w io.Writer) {
	fmt.Fprintf(w, "%s  GOMAXPROCS=%d nproc=%d  commit %s  seed %d  %d runs x %gs\n",
		sf.Go, sf.GOMAXPROCS, sf.NProc, sf.Commit, sf.Seed, sf.Runs, sf.Seconds)
	for _, d := range workloadDefs {
		sw := sf.Workloads[d.name]
		fmt.Fprintf(w, "\n%s — end to end (median [q1, q3] over runs)\n", d.name)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, def := range endToEnd {
			s := sw.EndToEnd[def.Name]
			fmt.Fprintf(tw, "  %s\t%.4g %s\t[%.4g, %.4g]\tspread %.1f%%\tbound %.0f%%\n",
				def.Name, s.Median, s.Unit, s.Q1, s.Q3, 100*iqrFrac(s.Values), 100*def.Bound)
		}
		fmt.Fprintf(tw, "  error_frac\t%g ratio\t\t\tbound 0\n", sw.errorFrac())
		_ = tw.Flush() // writes to w fail no more usefully here than in Fprintf
		fmt.Fprintf(w, "%s — per layer (one traced run)\n", d.name)
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, def := range perLayer {
			if v := sw.PerLayer[def.Name]; v.Value != 0 {
				fmt.Fprintf(tw, "  %s\t%.4g %s\n", def.Name, v.Value, v.Unit)
			}
		}
		_ = tw.Flush()
	}
}

// compare prints one row per (workload, end-to-end metric) of two suite
// files and reports whether b is worse than a anywhere.
func compare(aPath, bPath string, w io.Writer) (worse bool, err error) {
	load := func(path string) (*suiteFile, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var sf suiteFile
		if err := json.Unmarshal(raw, &sf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &sf, nil
	}
	a, err := load(aPath)
	if err != nil {
		return false, err
	}
	b, err := load(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %s  %s  seed %d  %d runs\nb: %s  commit %s  %s  seed %d  %d runs\n\n",
		aPath, a.Commit, a.Go, a.Seed, a.Runs, bPath, b.Commit, b.Go, b.Seed, b.Runs)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a (base a)\tbound\tverdict")
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			continue
		}
		for _, def := range endToEnd {
			sa, sb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			if sa == nil || sb == nil {
				continue
			}
			v := verdict(def, sa, sb)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.4g\t%.4g\t%.3f\t%.0f%%\t%s\n",
				name, def.Name, def.Unit, sa.Median, sb.Median, sb.Median/sa.Median, 100*def.Bound, v)
		}
		ea, eb := wa.errorFrac(), wb.errorFrac()
		v := "ok"
		if eb > 0 {
			v, worse = "worse", true
		}
		fmt.Fprintf(tw, "%s\terror_frac (ratio)\t%g\t%g\t-\t0\t%s\n", name, ea, eb, v)
	}
	return worse, tw.Flush()
}

// verdict judges b against a: unresolved when either side's own
// run-to-run spread is wider than the bound, worse when b's median is
// worse than a's by more than the bound, ok otherwise.
func verdict(def metricDef, a, b *series) string {
	if max(iqrFrac(a.Values), iqrFrac(b.Values)) > def.Bound {
		return "unresolved"
	}
	change := (b.Median - a.Median) / a.Median
	if def.Better == higher {
		change = -change
	}
	if change > def.Bound {
		return "worse"
	}
	return "ok"
}
