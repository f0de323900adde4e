package exec

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dynplan/internal/storage"
)

// kernelRows returns one row per key: the key in column 0 and the row's
// input position in column 1, so an output order names the rows it holds.
func kernelRows(keys []int64) []storage.Row {
	rows := make([]storage.Row, len(keys))
	for i, k := range keys {
		rows[i] = storage.Row{k, int64(i)}
	}
	return rows
}

// checkKernels checks the hash join's build table and the Sort enforcer's
// key sort on rows keyed by keys against reference implementations: a Go
// map from key to the key's rows in insertion order, and an in-place stable
// sort of the row headers. Every probe — each build key and its two
// neighbours — must meet the same rows in the same order, and the sort
// must leave the same row headers in the same order.
func checkKernels(t *testing.T, keys []int64) {
	t.Helper()
	rows := kernelRows(keys)

	var table joinTable
	table.build(rows, 0, nil)
	// Lookups end at an empty slot, so the table must keep some empty.
	if s := len(table.slots); s < 2*len(rows) || s&(s-1) != 0 {
		t.Fatalf("%d build rows: %d slots, want a power of two at least twice the rows", len(rows), s)
	}
	chains := make(map[int64][]int32, len(rows))
	for i, r := range rows {
		chains[r[0]] = append(chains[r[0]], int32(i))
	}
	probes := make([]int64, 0, 3*len(keys))
	for _, k := range keys {
		probes = append(probes, k, k-1, k+1) // the neighbours wrap at the extremes
	}
	for _, k := range probes {
		var got []int32
		for m := table.lookup(k); m >= 0; m = table.next[m] {
			got = append(got, m)
			if len(got) > len(rows) {
				t.Fatalf("key %d: chain longer than the %d build rows", k, len(rows))
			}
		}
		if want := chains[k]; !slices.Equal(got, want) {
			t.Fatalf("%d build rows, key %d: table chain %v, map chain %v", len(rows), k, got, want)
		}
	}

	got, want := slices.Clone(rows), slices.Clone(rows)
	sortRows(got, 0, nil)
	slices.SortStableFunc(want, func(a, b storage.Row) int { return cmp.Compare(a[0], b[0]) })
	for i := range want {
		if &got[i][0] != &want[i][0] {
			t.Fatalf("%d rows: key sort puts row %d (key %d) at %d, stable sort row %d (key %d)",
				len(rows), got[i][1], got[i][0], i, want[i][1], want[i][0])
		}
	}
}

// tableShape returns the shift and the slot count of a table built over
// n rows.
func tableShape(n int) (shift uint, slots int) {
	var table joinTable
	table.build(kernelRows(make([]int64, n)), 0, nil)
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
			table.build(kernelRows(keys), 0, nil)
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
