package plan

import (
	"testing"

	"dynplan/internal/logical"
	"dynplan/internal/physical"
	"dynplan/internal/runtimeopt"
	"dynplan/internal/search"
)

func optimizeForFuzz(q *logical.Query) (*physical.Node, error) {
	res, err := runtimeopt.OptimizeDynamic(q, search.Config{}, true)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// FuzzLoad hardens access-module deserialization: arbitrary bytes must
// never panic, and anything Load accepts must validate and re-encode to
// an equivalent module. `go test` runs the seed corpus;
// `go test -fuzz=FuzzLoad` explores.
func FuzzLoad(f *testing.F) {
	// Seed with real modules of several sizes plus mutations.
	for _, n := range []int{1, 2, 3} {
		q := chain(n)
		res, err := optimizeForFuzz(q)
		if err != nil {
			f.Fatal(err)
		}
		mod, err := NewModule(res, 0, 0)
		if err != nil {
			f.Fatal(err)
		}
		raw := mod.Bytes()
		f.Add(raw)
		if len(raw) > 16 {
			mutated := append([]byte(nil), raw...)
			mutated[12] ^= 0xFF
			f.Add(mutated)
			f.Add(raw[:len(raw)/2])
		}
	}
	f.Add([]byte{})
	f.Add([]byte("DYNPLAN1"))
	f.Add([]byte("DYNPLAN1\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		mod, err := Load(raw)
		if err != nil {
			return
		}
		// Anything accepted must be a valid, re-encodable plan.
		if err := mod.Root().Validate(); err != nil {
			t.Errorf("Load accepted an invalid plan: %v", err)
		}
		again, err := NewModule(mod.Root(), 0, 0)
		if err != nil {
			t.Errorf("accepted module does not re-encode: %v", err)
			return
		}
		if again.NodeCount() != mod.NodeCount() {
			t.Errorf("re-encode changed node count: %d vs %d", again.NodeCount(), mod.NodeCount())
		}
	})
}
