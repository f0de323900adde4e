package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dynplan/internal/storage"
)

func rid(i int) storage.RID {
	return storage.RID{Page: int32(i / 100), Slot: int32(i % 100)}
}

func TestEmptyTree(t *testing.T) {
	tr := New(8)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("empty tree: len=%d height=%d", tr.Len(), tr.Height())
	}
	if got := tr.Search(5); got != nil {
		t.Errorf("Search in empty tree = %v", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("empty tree invariants: %v", err)
	}
}

func TestInsertAndSearch(t *testing.T) {
	tr := New(4) // tiny order forces deep trees
	for i := 0; i < 1000; i++ {
		tr.Insert(int64(i*7%500), rid(i))
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Errorf("Height = %d; order-4 tree of 1000 entries should be deep", tr.Height())
	}
	// Key 0 was inserted for i = 0 and i = 500 (i*7%500 == 0).
	got := tr.Search(0)
	if len(got) != 2 {
		t.Fatalf("Search(0) = %v, want 2 rids", got)
	}
	if got[0] != rid(0) || got[1] != rid(500) {
		t.Errorf("duplicates out of insertion order: %v", got)
	}
	if got := tr.Search(9999); got != nil {
		t.Errorf("Search(absent) = %v", got)
	}
}

// TestAgainstReference drives random inserts and compares every range
// query against a sorted-slice reference implementation.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		order := 3 + rng.Intn(14)
		n := rng.Intn(800)
		tr := New(order)
		type entry struct {
			key int64
			rid storage.RID
		}
		var ref []entry
		for i := 0; i < n; i++ {
			k := int64(rng.Intn(200))
			tr.Insert(k, rid(i))
			ref = append(ref, entry{k, rid(i)})
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("trial %d (order %d, n %d): %v", trial, order, n, err)
		}
		// Stable sort keeps duplicate insertion order, matching the tree.
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].key < ref[j].key })

		for q := 0; q < 20; q++ {
			lo := int64(rng.Intn(220) - 10)
			hi := lo + int64(rng.Intn(100))
			var want []storage.RID
			for _, e := range ref {
				if e.key >= lo && e.key <= hi {
					want = append(want, e.rid)
				}
			}
			got := tr.AppendRange(nil, lo, hi)
			if len(got) != len(want) {
				t.Fatalf("trial %d: AppendRange(%d,%d) returned %d rids, want %d", trial, lo, hi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: AppendRange(%d,%d)[%d] = %v, want %v", trial, lo, hi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestInvariantsQuick is the property-based invariant check: any insert
// sequence leaves a structurally valid tree whose ascent is sorted.
func TestInvariantsQuick(t *testing.T) {
	f := func(keys []int16, orderSeed uint8) bool {
		order := 3 + int(orderSeed%16)
		tr := New(order)
		for i, k := range keys {
			tr.Insert(int64(k), rid(i))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		prev := int64(-1 << 62)
		sorted := true
		count := 0
		tr.Ascend(func(k int64, _ storage.RID) bool {
			if k < prev {
				sorted = false
			}
			prev = k
			count++
			return true
		})
		return sorted && count == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAppendRangeBounds checks that AppendRange keeps what dst already
// holds, stops at hi inside a leaf and across leaf boundaries, and appends
// nothing for an inverted or empty range.
func TestAppendRangeBounds(t *testing.T) {
	tr := New(6) // leaves of at most five entries: ranges span many leaves
	for i := 0; i < 100; i++ {
		tr.Insert(int64(i), rid(i))
	}
	prefix := []storage.RID{rid(999)}
	got := tr.AppendRange(prefix, 3, 41)
	if len(got) != 1+39 || got[0] != rid(999) {
		t.Fatalf("AppendRange(prefix, 3, 41) = %d rids starting %v, want the prefix and 39 more", len(got), got[0])
	}
	for i, r := range got[1:] {
		if r != rid(3+i) {
			t.Fatalf("AppendRange(prefix, 3, 41)[%d] = %v, want %v", 1+i, r, rid(3+i))
		}
	}
	if got := tr.AppendRange(prefix, 50, 10); len(got) != 1 {
		t.Errorf("inverted range appended %d rids", len(got)-1)
	}
	if got := tr.AppendRange(nil, 100, 200); got != nil {
		t.Errorf("range past the last key = %v, want nil", got)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New(6)
	for i := 0; i < 50; i++ {
		tr.Insert(int64(i), rid(i))
	}
	seen := 0
	tr.Ascend(func(int64, storage.RID) bool {
		seen++
		return false
	})
	if seen != 1 {
		t.Errorf("Ascend early stop visited %d, want 1", seen)
	}
}

func TestMinimumOrderClamped(t *testing.T) {
	tr := New(1) // clamped to 3
	for i := 0; i < 100; i++ {
		tr.Insert(int64(i), rid(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAndExtremeKeys(t *testing.T) {
	tr := New(5)
	keys := []int64{math.MinInt64, -1 << 40, -7, 0, 7, 1 << 40, math.MaxInt64}
	for i, k := range keys {
		tr.Insert(k, rid(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// keys is ascending, so the full range returns the rids in insertion
	// order.
	got := tr.AppendRange(nil, math.MinInt64, math.MaxInt64)
	if len(got) != len(keys) {
		t.Fatalf("full range returned %d rids, want %d", len(got), len(keys))
	}
	for i, r := range got {
		if r != rid(i) {
			t.Fatalf("full range [%d] = %v, want %v", i, r, rid(i))
		}
	}
	if got := tr.AppendRange(nil, -1<<62, 1<<62); len(got) != len(keys)-2 {
		t.Errorf("range without the extremes returned %d rids, want %d", len(got), len(keys)-2)
	}
}

func TestBuildFromTable(t *testing.T) {
	table := storage.NewTable("R", 512)
	for i := 0; i < 300; i++ {
		table.Append(storage.Row{int64(i % 37), int64(i)})
	}
	tr := Build(table, 0, 8)
	if tr.Len() != 300 {
		t.Fatalf("Build indexed %d entries, want 300", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every indexed RID must point at a row whose key matches.
	bad := 0
	tr.Ascend(func(k int64, r storage.RID) bool {
		row, err := table.Get(r)
		if err != nil || row[0] != k {
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Errorf("%d index entries point at wrong rows", bad)
	}
}
