package exec

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkKernels checks the hash join's build table and the Sort enforcer's
// key sort over keys against reference implementations: a Go map from key
// to the key's indices in insertion order, and a stable sort of the
// indices by key. Every probe — each build key and its two neighbours —
// must meet the same indices in the same order, and the sort must put the
// same indices in the same order.
func checkKernels(t *testing.T, keys []int64) {
	t.Helper()
	var table joinTable
	table.build(keys, nil)
	// Lookups end at an empty slot, so the table must keep some empty.
	if s := len(table.slots); s < 2*len(keys) || s&(s-1) != 0 {
		t.Fatalf("%d build keys: %d slots, want a power of two at least twice the keys", len(keys), s)
	}
	chains := make(map[int64][]int32, len(keys))
	for i, k := range keys {
		chains[k] = append(chains[k], int32(i))
	}
	probes := make([]int64, 0, 3*len(keys))
	for _, k := range keys {
		probes = append(probes, k, k-1, k+1) // the neighbours wrap at the extremes
	}
	for _, k := range probes {
		var got []int32
		for m := table.lookup(k); m >= 0; m = table.next[m] {
			got = append(got, m)
			if len(got) > len(keys) {
				t.Fatalf("key %d: chain longer than the %d build keys", k, len(keys))
			}
		}
		if want := chains[k]; !slices.Equal(got, want) {
			t.Fatalf("%d build keys, key %d: table chain %v, map chain %v", len(keys), k, got, want)
		}
	}

	got := sortOrder(keys, nil)
	want := make([]int32, len(keys))
	for i := range want {
		want[i] = int32(i)
	}
	slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%d keys: key sort puts index %d (key %d) at %d, stable sort index %d (key %d)",
				len(keys), got[i], keys[got[i]], i, want[i], keys[want[i]])
		}
	}
}

// tableShape returns the shift and the slot count of a table built over
// n rows.
func tableShape(n int) (shift uint, slots int) {
	var table joinTable
	table.build(make([]int64, n), nil)
	return table.shift, len(table.slots)
}

// collidingKeys returns n distinct keys that all hash to slot home of a
// table with the given shift. Multiplication by the odd Fibonacci constant
// is invertible modulo 2⁶⁴, so key j is the preimage of the product whose
// top bits are home and whose low bits are j.
func collidingKeys(n int, shift uint, home uint64) []int64 {
	inv := uint64(fibonacci) // Newton's iteration doubles the correct low bits
	for range 5 {
		inv *= 2 - fibonacci*inv
	}
	keys := make([]int64, n)
	for j := range keys {
		keys[j] = int64((home<<shift + uint64(j)) * inv)
	}
	return keys
}

func TestJoinAndSortKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	extremes := []int64{math.MinInt64, -1 << 40, -7, -1, 0, 1, 7, 1 << 40, math.MaxInt64}
	t.Run("empty-and-single", func(t *testing.T) {
		checkKernels(t, nil)
		checkKernels(t, []int64{42})
		checkKernels(t, []int64{math.MinInt64})
	})
	t.Run("all-equal", func(t *testing.T) {
		for _, n := range []int{2, 3, 64, 1000} {
			checkKernels(t, slices.Repeat([]int64{-3}, n))
		}
	})
	t.Run("extremes", func(t *testing.T) {
		checkKernels(t, extremes)
		keys := make([]int64, 500)
		for i := range keys {
			keys[i] = extremes[rng.Intn(len(extremes))]
		}
		checkKernels(t, keys)
	})
	t.Run("colliding", func(t *testing.T) {
		// homeAll builds a table over keys and checks that every key
		// hashes to slot home.
		homeAll := func(keys []int64, home uint64) {
			var table joinTable
			table.build(keys, nil)
			for _, k := range keys {
				if h := table.home(k); h != home {
					t.Fatalf("key %d homes at slot %d, want %d", k, h, home)
				}
			}
		}
		for _, n := range []int{2, 7, 64, 300} {
			shift, _ := tableShape(n)
			keys := collidingKeys(n, shift, 1)
			homeAll(keys, 1)
			checkKernels(t, keys)
			// A cluster with duplicates at the last slot, so that its
			// probes wrap to the first.
			distinct := n/2 + 1
			shift, slots := tableShape(distinct + n/2)
			keys = collidingKeys(distinct, shift, uint64(slots-1))
			for range n / 2 {
				keys = append(keys, keys[rng.Intn(distinct)])
			}
			homeAll(keys, uint64(slots-1))
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			checkKernels(t, keys)
		}
	})
	t.Run("packing-boundary", func(t *testing.T) {
		// A key range of 2³²−1 still packs into a uint64 beside the index;
		// one of 2³² takes the comparison sort. Both must sort stably.
		for _, span := range []int64{1<<32 - 1, 1 << 32} {
			for _, lo := range []int64{math.MinInt64, -1 << 31, 0, math.MaxInt64 - span} {
				keys := []int64{lo + span, lo, lo + span, lo}
				for range 300 {
					keys = append(keys, lo+rng.Int63n(span+1), lo+rng.Int63n(4))
				}
				rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
				checkKernels(t, keys)
			}
		}
	})
	t.Run("powers-of-two", func(t *testing.T) {
		for p := 1; p <= 1<<12; p *= 2 {
			for _, n := range []int{p - 1, p, p + 1} {
				for _, domain := range []int64{3, int64(n) + 1, math.MaxInt64} {
					keys := make([]int64, n)
					for i := range keys {
						keys[i] = rng.Int63n(domain) - domain/2
					}
					checkKernels(t, keys)
				}
			}
		}
	})
}

// FuzzExecKernels runs checkKernels on fuzzed keys: raw holds the keys as
// little-endian 8-byte words, and a non-zero domain folds them into
// [0, domain) so that duplicates are common.
func FuzzExecKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.MaxUint64), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, domain uint8) {
		keys := make([]int64, len(raw)/8)
		for i := range keys {
			keys[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
			if domain > 0 {
				keys[i] = int64(uint64(keys[i]) % uint64(domain))
			}
		}
		checkKernels(t, keys)
	})
}
