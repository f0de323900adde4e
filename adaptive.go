package dynplan

import (
	"errors"
	"math"
	"math/rand"

	"dynplan/internal/physical"
	"dynplan/internal/storage"
)

// errSkew rejects non-positive skew exponents.
var errSkew = errors.New("dynplan: skew must be positive")

func newDeterministicRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func powFloat(u, e float64) float64 { return math.Pow(u, e) }

// AdaptiveResult is what an adaptive execution's run-time decision
// procedures learned and decided (ExecResult.Adaptive); the rows and the
// I/O account, materializations included, are on the ExecResult itself.
type AdaptiveResult struct {
	// Chosen is the final plan (its scan inputs are Temp-Scans over the
	// materialized subplans).
	Chosen *physical.Node
	// Materialized counts the subplans evaluated into temporaries.
	Materialized int
	// ObservedSelectivities maps each host variable to the selectivity
	// actually observed in the data, which may differ from the bound
	// (claimed) selectivity when statistics or application estimates are
	// stale.
	ObservedSelectivities map[string]float64
	// PredictedCost is the corrected prediction for the final plan.
	PredictedCost float64
}

// GenerateSkewedData fills the catalog relations like GenerateData but
// draws every attribute named "a" (the convention of the experiment
// schema) from a skewed distribution: values ⌊domain · u^skew⌋, so a
// predicate claiming selectivity ŝ actually qualifies ŝ^(1/skew) of the
// records. Use it to reproduce selectivity-estimation-error scenarios.
func (db *Database) GenerateSkewedData(seed int64, skew float64, skewedAttr string) error {
	if skew <= 0 {
		return errSkew
	}
	rng := newDeterministicRand(seed)
	for _, rel := range db.sys.cat.Relations() {
		t := storage.NewTable(rel.Name, rel.RecordBytes)
		for i := 0; i < rel.Cardinality; i++ {
			row := make(storage.Row, len(rel.Attrs))
			for j, a := range rel.Attrs {
				u := rng.Float64()
				if a.Name == skewedAttr && skew != 1 {
					u = powFloat(u, skew)
				}
				v := int64(u * float64(a.DomainSize))
				if v >= int64(a.DomainSize) {
					v = int64(a.DomainSize) - 1
				}
				row[j] = v
			}
			t.Append(row)
		}
		db.store.AddTable(t)
		db.loaded[rel.Name] = true
	}
	return nil
}
