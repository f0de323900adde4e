package storage

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"dynplan/internal/qerr"
)

// FaultConfig parameterizes the deterministic fault-injection wrapper the
// execution engine can route page reads through. All knobs default to
// "off"; a zero config injects nothing.
//
// Faults are decided per (table, page) by a hash of the seed, so a given
// configuration always poisons the same pages regardless of the order the
// engine touches them — the property that makes fault runs reproducible
// and lets the retrying fallback executor make provable progress: a
// transient fault heals after Persistence touches, so each failed attempt
// permanently clears the page it tripped on.
type FaultConfig struct {
	// Seed drives the per-page fault decisions.
	Seed int64
	// TransientRate is the fraction of pages carrying a transient
	// read fault: the first Persistence touches of such a page fail with
	// an error wrapping qerr.ErrTransientIO (and qerr.ErrFaultInjected);
	// subsequent touches succeed.
	TransientRate float64
	// PermanentRate is the fraction of pages whose every read fails with
	// an error wrapping qerr.ErrPermanentIO. Pages are partitioned:
	// a page is transient-faulty, permanent-faulty, or healthy.
	PermanentRate float64
	// Persistence is how many touches a transient fault survives before
	// healing (default 1: the page fails once, then reads cleanly).
	Persistence int
	// ReadRetries is the number of in-place retries the wrapper itself
	// performs on a transient fault before letting the error escape to
	// the operator (default 0: every injected fault surfaces). With
	// ReadRetries ≥ Persistence, transient faults are absorbed at the
	// storage layer and only show up in the Stats.
	ReadRetries int
	// LatencyReads is the simulated latency of each injected failure,
	// charged to the accountant as random page reads (default 1: the
	// failed I/O still cost a disk access). Applies to in-place retries
	// too, so absorbed faults inflate the measured I/O honestly.
	LatencyReads int64
	// MemShrinkAfterReads, when positive, simulates the memory grant
	// shrinking mid-query: once the injector has seen that many page
	// reads, MemoryScale reports MemShrinkFactor instead of 1 and
	// memory-hungry operators whose working set no longer fits fail with
	// qerr.ErrInsufficientMemory.
	MemShrinkAfterReads int64
	// MemShrinkFactor is the fraction of the original memory grant that
	// remains after the shrink event (default 0.5).
	MemShrinkFactor float64
	// MaxInjected, when positive, caps the total number of injected
	// failures; further reads pass. Use it to bound fault density in long
	// sweeps.
	MaxInjected int64
	// TargetRel, when non-empty, confines injection to that relation's
	// pages; reads of every other relation always pass. Combined with the
	// page bounds below it poisons exactly one scan partition — the
	// per-worker targeting the parallel fault-domain tests aim with.
	TargetRel string
	// TargetPageLo and TargetPageHi bound the poisoned page range
	// [TargetPageLo, TargetPageHi) within TargetRel; a TargetPageHi of 0
	// leaves the range unbounded above. Ignored when TargetRel is empty.
	TargetPageLo, TargetPageHi int32
}

// PartitionPageRange returns worker k's page range [lo, hi) when numPages
// pages are split into dop contiguous partitions — the same arithmetic
// the exchange operators use to partition a heap scan, exported so fault
// injection can target exactly one worker's pages.
func PartitionPageRange(numPages, dop, k int) (lo, hi int32) {
	return int32(numPages * k / dop), int32(numPages * (k + 1) / dop)
}

// FaultStats summarizes what an Injector has done.
type FaultStats struct {
	// Reads is the number of page reads routed through the injector.
	Reads int64
	// Injected counts all injected failures (including ones absorbed by
	// in-place retries); Transient and Permanent split them by kind.
	Injected  int64
	Transient int64
	Permanent int64
	// Absorbed counts transient faults the wrapper retried away in place
	// without the operator ever seeing an error.
	Absorbed int64
	// Healed counts transient-faulty pages that have exhausted their
	// Persistence and now read cleanly.
	Healed int64
	// MemShrunk reports whether the memory-shrink event has fired.
	MemShrunk bool
}

// Injector decides, deterministically per page, whether a read fails. It
// is safe for concurrent use; a nil *Injector injects nothing.
type Injector struct {
	mu  sync.Mutex
	cfg FaultConfig
	// remaining maps a transient-faulty page to the failures it has left
	// before healing; pages absent from the map and not yet touched are
	// decided by hash on first contact.
	remaining map[pageKey]int
	stats     FaultStats
}

type pageKey struct {
	table string
	page  int32
}

// NewInjector builds an injector from the config, applying defaults:
// Persistence 1, LatencyReads 1, MemShrinkFactor 0.5.
func NewInjector(cfg FaultConfig) *Injector {
	if cfg.Persistence <= 0 {
		cfg.Persistence = 1
	}
	if cfg.LatencyReads < 0 {
		cfg.LatencyReads = 0
	} else if cfg.LatencyReads == 0 {
		cfg.LatencyReads = 1
	}
	if cfg.MemShrinkFactor <= 0 || cfg.MemShrinkFactor >= 1 {
		cfg.MemShrinkFactor = 0.5
	}
	return &Injector{cfg: cfg, remaining: make(map[pageKey]int)}
}

// draw maps (seed, table, page) to a uniform value in [0, 1).
func (f *Injector) draw(k pageKey) float64 {
	h := fnv.New64a()
	var seed [8]byte
	for i := range seed {
		seed[i] = byte(uint64(f.cfg.Seed) >> (8 * i))
	}
	h.Write(seed[:])
	h.Write([]byte(k.table))
	var page [4]byte
	for i := range page {
		page[i] = byte(uint32(k.page) >> (8 * i))
	}
	h.Write(page[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// PageRead routes one page read through the injector: it decides whether
// the read fails, charges the simulated latency of failures to acc (when
// non-nil), performs the configured in-place retries, and returns the
// error that escapes, if any. A nil injector always succeeds.
func (f *Injector) PageRead(table string, page int32, acc *Accountant) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Reads++
	err := f.readLocked(table, page, acc)
	for r := 0; err != nil && errors.Is(err, qerr.ErrTransientIO) && r < f.cfg.ReadRetries; r++ {
		if retry := f.readLocked(table, page, acc); retry == nil {
			f.stats.Absorbed++
			return nil
		} else {
			err = retry
		}
	}
	return err
}

// readLocked is one read attempt; the caller holds the mutex.
func (f *Injector) readLocked(table string, page int32, acc *Accountant) error {
	if f.cfg.TargetRel != "" {
		if table != f.cfg.TargetRel || page < f.cfg.TargetPageLo ||
			(f.cfg.TargetPageHi > 0 && page >= f.cfg.TargetPageHi) {
			return nil
		}
	}
	k := pageKey{table: table, page: page}
	rem, touched := f.remaining[k]
	if !touched {
		u := f.draw(k)
		switch {
		case u < f.cfg.TransientRate:
			rem = f.cfg.Persistence
		case u < f.cfg.TransientRate+f.cfg.PermanentRate:
			rem = -1 // permanent
		default:
			rem = 0 // healthy
		}
		f.remaining[k] = rem
	}
	if rem == 0 {
		return nil
	}
	if f.cfg.MaxInjected > 0 && f.stats.Injected >= f.cfg.MaxInjected {
		return nil
	}
	f.stats.Injected++
	if acc != nil {
		acc.ReadRand(f.cfg.LatencyReads)
	}
	if rem < 0 {
		f.stats.Permanent++
		return fmt.Errorf("storage: injected permanent read error on %s page %d: %w: %w",
			table, page, qerr.ErrPermanentIO, qerr.ErrFaultInjected)
	}
	f.stats.Transient++
	rem--
	f.remaining[k] = rem
	if rem == 0 {
		f.stats.Healed++
	}
	return fmt.Errorf("storage: injected transient read error on %s page %d: %w: %w",
		table, page, qerr.ErrTransientIO, qerr.ErrFaultInjected)
}

// MemoryScale returns the fraction of the original memory grant currently
// available: 1 until the shrink event fires, MemShrinkFactor afterwards.
func (f *Injector) MemoryScale() float64 {
	if f == nil || f.cfg.MemShrinkAfterReads <= 0 {
		return 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stats.Reads >= f.cfg.MemShrinkAfterReads {
		f.stats.MemShrunk = true
		return f.cfg.MemShrinkFactor
	}
	return 1
}

// RestoreMemory clears the memory-shrink event (the grant grew back), so
// a fallback attempt can model a transient shrink.
func (f *Injector) RestoreMemory() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg.MemShrinkAfterReads = 0
	f.stats.MemShrunk = false
}

// Stats returns a snapshot of the injector's counters.
func (f *Injector) Stats() FaultStats {
	if f == nil {
		return FaultStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Reset restores every page to its initial fault state and zeroes the
// counters; the per-page fault decisions (a function of the seed) are
// unchanged.
func (f *Injector) Reset() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.remaining = make(map[pageKey]int)
	f.stats = FaultStats{}
}
