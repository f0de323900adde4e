package plancache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoComputesOnceAndHits(t *testing.T) {
	c := New(4)
	var computes int
	k := Key{Digest: "q1", CatalogVersion: 1}
	v, hit, err := c.Do(k, func() (any, error) { computes++; return 42, nil })
	if err != nil || hit || v.(int) != 42 {
		t.Fatalf("cold lookup: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.Do(k, func() (any, error) { computes++; return 0, nil })
	if err != nil || !hit || v.(int) != 42 {
		t.Fatalf("warm lookup: v=%v hit=%v err=%v", v, hit, err)
	}
	if computes != 1 {
		t.Errorf("computed %d times", computes)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Evictions != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSingleFlight(t *testing.T) {
	c := New(4)
	var computes atomic.Int64
	gate := make(chan struct{})
	k := Key{Digest: "q", CatalogVersion: 1}
	const workers = 16
	var hits atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.Do(k, func() (any, error) {
				computes.Add(1)
				<-gate
				return "plan", nil
			})
			if err != nil || v.(string) != "plan" {
				t.Errorf("v=%v err=%v", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("computed %d times under contention", computes.Load())
	}
	if hits.Load() != workers-1 {
		t.Errorf("hits = %d, want %d", hits.Load(), workers-1)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	mk := func(d string) Key { return Key{Digest: d, CatalogVersion: 1} }
	for _, d := range []string{"a", "b"} {
		c.Do(mk(d), func() (any, error) { return d, nil })
	}
	// Touch a so b becomes the LRU victim.
	if _, hit, _ := c.Do(mk("a"), nil); !hit {
		t.Fatal("a should be resident")
	}
	c.Do(mk("c"), func() (any, error) { return "c", nil })
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if _, hit, _ := c.Do(mk("b"), func() (any, error) { return "b2", nil }); hit {
		t.Error("b survived eviction")
	}
	if s := c.Stats(); s.Evictions < 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFailedComputeRetries(t *testing.T) {
	c := New(2)
	k := Key{Digest: "q", CatalogVersion: 1}
	boom := errors.New("boom")
	if _, _, err := c.Do(k, func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed entry stayed resident: len=%d", c.Len())
	}
	v, hit, err := c.Do(k, func() (any, error) { return 7, nil })
	if err != nil || hit || v.(int) != 7 {
		t.Fatalf("retry: v=%v hit=%v err=%v", v, hit, err)
	}
}

func TestInvalidateOlderThan(t *testing.T) {
	c := New(8)
	for ver := uint64(1); ver <= 4; ver++ {
		for _, d := range []string{"x", "y"} {
			k := Key{Digest: d, CatalogVersion: ver}
			c.Do(k, func() (any, error) { return ver, nil })
		}
	}
	if n := c.InvalidateOlderThan(4); n != 6 {
		t.Errorf("dropped %d entries, want 6", n)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	if _, hit, _ := c.Do(Key{Digest: "x", CatalogVersion: 4}, nil); !hit {
		t.Error("current-version entry was swept")
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Digest: fmt.Sprintf("q%d", i%12), CatalogVersion: uint64(1 + i%3)}
				v, _, err := c.Do(k, func() (any, error) { return k, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v.(Key) != k {
					t.Errorf("wrong value for %v: %v", k, v)
					return
				}
				if i%50 == 0 {
					c.InvalidateOlderThan(2)
				}
			}
		}(g)
	}
	wg.Wait()
}
