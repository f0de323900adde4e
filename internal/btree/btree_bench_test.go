package btree

import (
	"math/rand"
	"testing"

	"dynplan/internal/storage"
)

func benchTree(n int) *Tree {
	rng := rand.New(rand.NewSource(1))
	tr := New(DefaultOrder)
	for i := 0; i < n; i++ {
		tr.Insert(int64(rng.Intn(n)), rid(i))
	}
	return tr
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tr := New(DefaultOrder)
	i := 0
	for b.Loop() {
		tr.Insert(int64(rng.Intn(1<<20)), rid(i))
		i++
	}
}

func BenchmarkSearch(b *testing.B) {
	tr := benchTree(100000)
	rng := rand.New(rand.NewSource(3))
	for b.Loop() {
		tr.Search(int64(rng.Intn(100000)))
	}
}

func BenchmarkRangeScan(b *testing.B) {
	tr := benchTree(100000)
	rng := rand.New(rand.NewSource(4))
	var rids []storage.RID
	for b.Loop() {
		lo := int64(rng.Intn(90000))
		rids = tr.AppendRange(rids[:0], lo, lo+1000)
	}
}

func BenchmarkAscend(b *testing.B) {
	tr := benchTree(100000)
	for b.Loop() {
		count := 0
		tr.Ascend(func(int64, storage.RID) bool {
			count++
			return true
		})
	}
}
