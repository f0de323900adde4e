package main

import (
	"math"
	"math/rand"
	"sort"

	"dynplan"
)

// Workloads. Each is a fixed op list with seeded bindings. The seed moves
// every binding value, but only inside its stratum: the catalog, the
// data, the statement set, how often and in which order statements occur,
// and which op combines a low selectivity on one relation with a high one
// on the next are all part of the workload. Two seeds therefore ask
// different questions of the same shape: the plan cache hits, misses and
// evicts identically under both, result sizes agree to a percent or so,
// and their medians are comparable.

// op is one query invocation: a statement and the bindings it runs under.
type op struct {
	stmt int
	bind dynplan.Bindings
}

// workload is a definition with its statements listed and its op list
// generated.
type workload struct {
	workloadDef
	statements []statement
	ops        []op
}

// workloadDef is what the seed does not touch.
type workloadDef struct {
	name string
	why  string
	// nOps is the op-list length; selLo/selHi bound the host-variable
	// selectivities, drawn from (selLo, selHi].
	nOps         int
	selLo, selHi float64
	// clients is the number of closed-loop clients; client c runs the ops
	// whose index is congruent to c, in list order.
	clients int
	// reparse makes every op parse and prepare its statement text before
	// executing it, so the plan cache sees look-ups, inserts and
	// evictions instead of one pinned handle per statement.
	reparse bool
	// http sends the ops to a spawned obsd over loopback instead of
	// calling the library in-process.
	http bool
	// zipf, when > 0, spreads the ops over the statements with
	// popularity rank^-zipf; 0 gives every statement an equal share.
	zipf           float64
	listStatements func() []statement
}

// Memory is bound uniformly in [16, 112] pages, as in the paper's §6.
const memLo, memHi = 16, 112

// orderSeed fixes what the benchmark's seed must not move: every
// workload's op order and stratum pairing, and the popularity ranks of
// compile_churn's statements.
const orderSeed = 1994

// churnZipf is the popularity exponent of compile_churn. Frozen: it was
// sized once so that misses are >= 25 % of ops against the default
// 64-entry plan cache (see README, "Sizing").
const churnZipf = 1.0

var workloadDefs = []workloadDef{
	{
		name: "startup_heavy",
		why:  "one prepared 10-relation chain with near-empty results: plan-cache hit and module activation are the op, executor work is not",
		nOps: 400, selLo: 0, selHi: 0.05, clients: 1,
		listStatements: func() []statement { return []statement{chainSQL("R", 1, paperRelations, false, false)} },
	},
	{
		name: "exec_heavy",
		why:  "four small prepared statements at high selectivity: scans, joins and the sort enforcer are the op, activation is a sliver",
		nOps: 400, selLo: 0.2, selHi: 1.0, clients: 1,
		listStatements: func() []statement {
			return []statement{
				chainSQL("R", 1, 1, false, false),
				chainSQL("R", 1, 2, false, false),
				chainSQL("R", 1, 3, false, false),
				chainSQL("R", 1, 3, true, false),
			}
		},
	},
	{
		name: "compile_churn",
		why:  "zipfian draws over 156 statements, each parsed and prepared per op against the 64-entry plan cache: misses, evictions and cold compiles are on the path",
		nOps: 1000, selLo: 0, selHi: 0.05, clients: 1, reparse: true, zipf: churnZipf,
		listStatements: churnStatements,
	},
	{
		name: "http_service",
		why:  "two tenants on keep-alive connections to a spawned obsd: net/http, JSON, the statement map, governor admission and the obs registry are on the path",
		nOps: 600, selLo: 0, selHi: 1.0, clients: 2, http: true,
		listStatements: func() []statement {
			var out []statement
			for n := 1; n <= demoRelations; n++ {
				for lo := 1; lo+n-1 <= demoRelations; lo++ {
					out = append(out, chainSQL("E", lo, n, false, false), chainSQL("E", lo, n, true, true))
				}
			}
			return out
		},
	},
}

// churnStatements lists every chain window Ri…Ri+n-1 for n in 2…7, each
// with and without ORDER BY and with and without a projection, then
// permutes them with a fixed seed: popularity rank must not correlate
// with join size, and must not change with the benchmark's seed, or one
// seed would compile 7-way joins where another compiles 2-way ones.
func churnStatements() []statement {
	var out []statement
	for n := 2; n <= 7; n++ {
		for lo := 1; lo+n-1 <= paperRelations; lo++ {
			for _, orderBy := range []bool{false, true} {
				for _, project := range []bool{false, true} {
					out = append(out, chainSQL("R", lo, n, orderBy, project))
				}
			}
		}
	}
	rand.New(rand.NewSource(orderSeed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func findDef(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// build generates the workload's op list from the seed. nOps overrides
// the list length (smoke mode); 0 keeps the definition's.
func (d workloadDef) build(seed int64, nOps int) *workload {
	if nOps <= 0 {
		nOps = d.nOps
	}
	w := &workload{workloadDef: d, statements: d.listStatements()}
	// design draws what belongs to the workload (which stratum of each
	// variable an op gets, and the op order); jitter draws what belongs
	// to the seed (where inside the stratum the value lies).
	design, jitter := rand.New(rand.NewSource(orderSeed)), rand.New(rand.NewSource(seed))
	for s, n := range shares(nOps, len(w.statements), d.zipf) {
		// Stratified draws: each variable of a statement gets one value
		// from each of n equal slices of its range. With independent
		// draws, or even with the strata re-paired per seed, the total
		// result size of a multi-way join (a sum of products of
		// selectivities) moved by 5 % between seeds, and allocs_per_op
		// and op_p95_us with it.
		mem := stratified(design, jitter, n, memLo, memHi)
		sels := make(map[string][]float64, len(w.statements[s].vars))
		for _, v := range w.statements[s].vars {
			sels[v] = stratified(design, jitter, n, d.selLo, d.selHi)
		}
		for i := 0; i < n; i++ {
			b := dynplan.Bindings{Selectivities: make(map[string]float64, len(sels)), MemoryPages: mem[i]}
			for _, v := range w.statements[s].vars {
				b.Selectivities[v] = sels[v][i]
			}
			w.ops = append(w.ops, op{stmt: s, bind: b})
		}
	}
	// compile_churn's misses and evictions are a function of the order.
	design.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	return w
}

// stratified returns n values in (lo, hi], one from each of n equal
// strata: design decides which position gets which stratum, jitter where
// in the stratum the value lies.
func stratified(design, jitter *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i, k := range design.Perm(n) {
		out[i] = lo + (hi-lo)*(float64(k)+1-jitter.Float64())/float64(n)
	}
	return out
}

// shares splits total ops over n statements: equally when zipf is 0,
// otherwise in proportion to (rank+1)^-zipf. Remainders go to the
// largest fractional parts, lowest rank first, so the counts are a
// function of (total, n, zipf) alone.
func shares(total, n int, zipf float64) []int {
	weights := make([]float64, n)
	wsum := 0.0
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -zipf)
		wsum += weights[r]
	}
	counts := make([]int, n)
	type frac struct {
		rank int
		rem  float64
	}
	fracs := make([]frac, n)
	given := 0
	for r, wt := range weights {
		exact := float64(total) * wt / wsum
		counts[r] = int(exact)
		given += counts[r]
		fracs[r] = frac{r, exact - float64(counts[r])}
	}
	sort.SliceStable(fracs, func(i, j int) bool { return fracs[i].rem > fracs[j].rem })
	for i := 0; given < total; i++ {
		counts[fracs[i%n].rank]++
		given++
	}
	return counts
}
