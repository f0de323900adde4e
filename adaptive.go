package dynplan

import (
	"errors"
	"math"
	"math/rand"

	"dynplan/internal/storage"
)

// errSkew rejects non-positive skew exponents.
var errSkew = errors.New("dynplan: skew must be positive")

// GenerateSkewedData fills the catalog relations like GenerateData but
// draws every attribute named "a" (the convention of the experiment
// schema) from a skewed distribution: values ⌊domain · u^skew⌋, so a
// predicate claiming selectivity ŝ actually qualifies ŝ^(1/skew) of the
// records. Use it to reproduce selectivity-estimation-error scenarios.
func (db *Database) GenerateSkewedData(seed int64, skew float64, skewedAttr string) error {
	if skew <= 0 {
		return errSkew
	}
	rng := rand.New(rand.NewSource(seed))
	for _, rel := range db.sys.cat.Relations() {
		t := storage.NewTable(rel.Name, rel.RecordBytes)
		for i := 0; i < rel.Cardinality; i++ {
			row := make(storage.Row, len(rel.Attrs))
			for j, a := range rel.Attrs {
				u := rng.Float64()
				if a.Name == skewedAttr && skew != 1 {
					u = math.Pow(u, skew)
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
