// Package workload reproduces the experimental setup of §6 of the paper:
// a synthetic catalog of ten relations and the five queries of increasing
// complexity — a single-relation selection and 2-, 4-, 6-, and 10-way
// chain joins, each with one unbound selection predicate per relation.
//
// Catalog statistics follow the paper: cardinalities uniform in
// [100, 1000], 512-byte records, attribute domain sizes between 0.2 and
// 1.25 times the relation's cardinality, and uncluttered B-trees on every
// selection and join attribute. The package also materializes the
// relations as actual tables (uniform integer data) so the execution
// engine can run the optimized plans, which the paper's prototype could
// not.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"dynplan/internal/btree"
	"dynplan/internal/catalog"
	"dynplan/internal/logical"
	"dynplan/internal/storage"
)

// MaxRelations is the size of the synthetic catalog, the paper's largest
// query (query 5, a ten-way join).
const MaxRelations = 10

// SelAttr, JoinLo and JoinHi are the attribute names of every synthetic
// relation: the selection attribute and the two join attributes linking a
// relation to its chain predecessor and successor.
const (
	SelAttr = "a"
	JoinLo  = "jl" // joins with the previous relation in the chain
	JoinHi  = "jh" // joins with the next relation in the chain
)

// Workload is a deterministic instance of the experimental environment.
type Workload struct {
	Catalog *catalog.Catalog
	seed    int64
}

// New builds the catalog from the given seed. The same seed always yields
// the same statistics and (via LoadStore) the same data.
func New(seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	cat := catalog.New()
	for i := 1; i <= MaxRelations; i++ {
		card := 100 + rng.Intn(901) // uniform [100, 1000]
		domain := func() int {
			d := int(float64(card) * (0.2 + rng.Float64()*1.05)) // 0.2–1.25 × cardinality
			if d < 1 {
				d = 1
			}
			return d
		}
		rel := catalog.NewRelation(fmt.Sprintf("R%d", i), card, 512,
			catalog.NewAttribute(SelAttr, domain(), true),
			catalog.NewAttribute(JoinLo, domain(), true),
			catalog.NewAttribute(JoinHi, domain(), true),
		)
		if err := cat.AddRelation(rel); err != nil {
			panic(err) // names are generated, duplicates impossible
		}
	}
	return &Workload{Catalog: cat, seed: seed}
}

// QuerySpec names one of the paper's experimental queries.
type QuerySpec struct {
	// Name is the paper's label ("query 1" … "query 5").
	Name string
	// Relations is the number of chained relations (1, 2, 4, 6, 10).
	Relations int
}

// PaperQueries returns the five experimental queries of §6.
func PaperQueries() []QuerySpec {
	return []QuerySpec{
		{Name: "query 1", Relations: 1},
		{Name: "query 2", Relations: 2},
		{Name: "query 3", Relations: 4},
		{Name: "query 4", Relations: 6},
		{Name: "query 5", Relations: 10},
	}
}

// Query builds the n-relation chain query: relations R1…Rn, one unbound
// selection "Ri.a <= ?vi" per relation, and join edges
// Ri.jh = R(i+1).jl. For n = 1 the query is the paper's motivating
// single-relation selection (Figure 1).
func (w *Workload) Query(n int) *logical.Query {
	if n < 1 || n > MaxRelations {
		panic(fmt.Sprintf("workload: query size %d out of range", n))
	}
	q := &logical.Query{}
	for i := 0; i < n; i++ {
		rel := w.Catalog.MustRelation(fmt.Sprintf("R%d", i+1))
		q.Rels = append(q.Rels, logical.QRel{
			Rel: rel,
			Pred: &logical.SelPred{
				Attr:     rel.MustAttribute(SelAttr),
				Variable: fmt.Sprintf("v%d", i+1),
			},
		})
	}
	for i := 0; i+1 < n; i++ {
		left := q.Rels[i].Rel
		right := q.Rels[i+1].Rel
		q.Edges = append(q.Edges, logical.JoinEdge{
			Left:      i,
			Right:     i + 1,
			LeftAttr:  left.MustAttribute(JoinHi),
			RightAttr: right.MustAttribute(JoinLo),
		})
	}
	if err := q.Validate(); err != nil {
		panic(err) // construction is by-definition valid
	}
	return q
}

// StarQuery builds an n-relation star: R1 is the hub, joined to each of
// R2…Rn on R1's join attributes (alternating jl/jh) against the
// satellite's jl. Star joins exercise partition shapes the paper's chain
// queries never produce (every bipartition must keep the hub on one
// side), broadening the search-engine coverage. Each relation carries an
// unbound selection, like the chain queries.
func (w *Workload) StarQuery(n int) *logical.Query {
	if n < 2 || n > MaxRelations {
		panic(fmt.Sprintf("workload: star size %d out of range", n))
	}
	q := &logical.Query{}
	for i := 0; i < n; i++ {
		rel := w.Catalog.MustRelation(fmt.Sprintf("R%d", i+1))
		q.Rels = append(q.Rels, logical.QRel{
			Rel: rel,
			Pred: &logical.SelPred{
				Attr:     rel.MustAttribute(SelAttr),
				Variable: fmt.Sprintf("v%d", i+1),
			},
		})
	}
	hub := q.Rels[0].Rel
	for i := 1; i < n; i++ {
		hubAttr := JoinLo
		if i%2 == 0 {
			hubAttr = JoinHi
		}
		q.Edges = append(q.Edges, logical.JoinEdge{
			Left: 0, Right: i,
			LeftAttr:  hub.MustAttribute(hubAttr),
			RightAttr: q.Rels[i].Rel.MustAttribute(JoinLo),
		})
	}
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return q
}

// Variables returns the host variables of the n-relation query
// ("v1" … "vn").
func Variables(n int) []string {
	vars := make([]string, n)
	for i := range vars {
		vars[i] = fmt.Sprintf("v%d", i+1)
	}
	return vars
}

// LoadStore materializes every catalog relation with uniform integer data
// drawn deterministically from the workload seed: attribute values are
// uniform over [0, domain). A selection "a <= sel·domain" therefore
// qualifies a fraction ≈ sel of the records, matching the cost model's
// selectivity semantics.
func (w *Workload) LoadStore() *storage.Store {
	return w.LoadStoreSkewed(1)
}

// LoadStoreSkewed materializes the relations with the *selection*
// attribute drawn as ⌊domain · u^skew⌋ (u uniform): skew = 1 is uniform;
// skew > 1 concentrates values near zero, so a predicate whose bound
// selectivity claims ŝ actually qualifies a fraction ŝ^(1/skew) of the
// records. Join attributes stay uniform. This models the selectivity
// estimation error of [IoC91] that §7 of the paper targets with run-time
// choose-plan decisions; see internal/reopt.
func (w *Workload) LoadStoreSkewed(skew float64) *storage.Store {
	if skew <= 0 {
		panic("workload: skew must be positive")
	}
	rng := rand.New(rand.NewSource(w.seed + 1))
	store := storage.NewStore()
	for _, rel := range w.Catalog.Relations() {
		rows := make([]int64, rel.Cardinality*len(rel.Attrs))
		for i := 0; i < rel.Cardinality; i++ {
			row := rows[i*len(rel.Attrs) : (i+1)*len(rel.Attrs)]
			for j, a := range rel.Attrs {
				u := rng.Float64()
				if a.Name == SelAttr && skew != 1 {
					u = math.Pow(u, skew)
				}
				v := int64(u * float64(a.DomainSize))
				if v >= int64(a.DomainSize) {
					v = int64(a.DomainSize) - 1
				}
				row[j] = v
			}
		}
		store.AddTable(storage.NewTable(rel.Name, len(rel.Attrs), rel.RecordBytes, rows))
	}
	return store
}

// ActualSelectivity returns the data fraction a claimed selectivity
// really qualifies under LoadStoreSkewed's distribution.
func ActualSelectivity(claimed, skew float64) float64 {
	if claimed <= 0 {
		return 0
	}
	if claimed >= 1 {
		return 1
	}
	return math.Pow(claimed, 1/skew)
}

// BuildIndexes constructs the B-trees the catalog declares, keyed by
// relation and attribute name.
func (w *Workload) BuildIndexes(store *storage.Store) (map[string]map[string]*btree.Tree, error) {
	idx := make(map[string]map[string]*btree.Tree)
	for _, rel := range w.Catalog.Relations() {
		t, err := store.Table(rel.Name)
		if err != nil {
			return nil, err
		}
		for j, a := range rel.Attrs {
			if !a.BTree {
				continue
			}
			if idx[rel.Name] == nil {
				idx[rel.Name] = make(map[string]*btree.Tree)
			}
			idx[rel.Name][a.Name] = btree.Build(t, j, btree.DefaultOrder)
		}
	}
	return idx, nil
}
