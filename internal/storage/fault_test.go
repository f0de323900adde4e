package storage

import (
	"errors"
	"testing"

	"dynplan/internal/qerr"
)

func TestInjectorDeterministic(t *testing.T) {
	cfg := FaultConfig{Seed: 7, TransientRate: 0.3, PermanentRate: 0.1}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for page := int32(0); page < 200; page++ {
		ea := a.PageRead("T", page, nil)
		eb := b.PageRead("T", page, nil)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("page %d: injectors disagree: %v vs %v", page, ea, eb)
		}
		if ea != nil && eb != nil && ea.Error() != eb.Error() {
			t.Fatalf("page %d: different faults: %v vs %v", page, ea, eb)
		}
	}
	st := a.Stats()
	if st.Injected == 0 || st.Transient == 0 || st.Permanent == 0 {
		t.Errorf("expected both fault kinds over 200 pages, got %+v", st)
	}
	// Roughly the configured rates (loose bounds; the draw is a hash).
	if st.Transient < 30 || st.Transient > 90 {
		t.Errorf("transient count %d implausible for rate 0.3 over 200 pages", st.Transient)
	}
}

func TestInjectorTransientHeals(t *testing.T) {
	f := NewInjector(FaultConfig{Seed: 1, TransientRate: 1, Persistence: 2})
	acc := &Accountant{}
	for i := 0; i < 2; i++ {
		err := f.PageRead("T", 0, acc)
		if !errors.Is(err, qerr.ErrTransientIO) || !errors.Is(err, qerr.ErrFaultInjected) {
			t.Fatalf("touch %d: want transient injected fault, got %v", i, err)
		}
	}
	if err := f.PageRead("T", 0, acc); err != nil {
		t.Fatalf("page must heal after persistence touches: %v", err)
	}
	st := f.Stats()
	if st.Healed != 1 || st.Injected != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Latency: each injected failure charged one random read by default.
	if got := acc.RandPageReads(); got != 2 {
		t.Errorf("latency charges = %d, want 2", got)
	}
}

func TestInjectorInPlaceRetryAbsorbs(t *testing.T) {
	f := NewInjector(FaultConfig{Seed: 1, TransientRate: 1, Persistence: 1, ReadRetries: 1})
	if err := f.PageRead("T", 5, nil); err != nil {
		t.Fatalf("retry must absorb a persistence-1 transient fault: %v", err)
	}
	st := f.Stats()
	if st.Absorbed != 1 || st.Injected != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Permanent faults are never absorbed.
	p := NewInjector(FaultConfig{Seed: 1, PermanentRate: 1, ReadRetries: 5})
	if err := p.PageRead("T", 5, nil); !errors.Is(err, qerr.ErrPermanentIO) {
		t.Errorf("want permanent fault, got %v", err)
	}
}

func TestInjectorMemoryShrink(t *testing.T) {
	f := NewInjector(FaultConfig{Seed: 1, MemShrinkAfterReads: 3, MemShrinkFactor: 0.25})
	if s := f.MemoryScale(); s != 1 {
		t.Errorf("scale before shrink = %g", s)
	}
	for i := int32(0); i < 3; i++ {
		if err := f.PageRead("T", i, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s := f.MemoryScale(); s != 0.25 {
		t.Errorf("scale after shrink = %g", s)
	}
	if !f.Stats().MemShrunk {
		t.Error("MemShrunk not reported")
	}
	f.RestoreMemory()
	if s := f.MemoryScale(); s != 1 {
		t.Errorf("scale after restore = %g", s)
	}
}

func TestInjectorMaxInjectedAndReset(t *testing.T) {
	f := NewInjector(FaultConfig{Seed: 2, TransientRate: 1, MaxInjected: 2})
	fails := 0
	for page := int32(0); page < 10; page++ {
		if f.PageRead("T", page, nil) != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Errorf("MaxInjected ignored: %d failures", fails)
	}
	f.Reset()
	if err := f.PageRead("T", 9, nil); err == nil {
		t.Error("reset must restore fault state")
	}
	if st := f.Stats(); st.Reads != 1 {
		t.Errorf("reset did not zero counters: %+v", st)
	}
}

func TestNilInjector(t *testing.T) {
	var f *Injector
	if err := f.PageRead("T", 0, nil); err != nil {
		t.Error("nil injector must inject nothing")
	}
	if f.MemoryScale() != 1 {
		t.Error("nil injector must not shrink memory")
	}
	f.Reset()
	f.RestoreMemory()
	if f.Stats() != (FaultStats{}) {
		t.Error("nil injector stats must be zero")
	}
}

// TestFetchInjectsFaults: Fetch charges one random read per call, then
// the injector may fail it; a faulty page heals after its failure, a nil
// injector injects nothing, and an invalid RID surfaces the storage error.
func TestFetchInjectsFaults(t *testing.T) {
	tab := NewTable("T", 2, 512, nil)
	rid := tab.Append(Row{1, 2})
	acc := &Accountant{}
	f := NewInjector(FaultConfig{Seed: 1, TransientRate: 1})
	if _, err := tab.Fetch(rid, acc, f); !errors.Is(err, qerr.ErrTransientIO) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if acc.RandPageReads() < 1 {
		t.Fatal("failed fetch charged no random read")
	}
	before := acc.RandPageReads()
	pos, err := tab.Fetch(rid, acc, f) // healed
	if err != nil || tab.Row(pos)[0] != 1 {
		t.Fatalf("healed fetch: %v %v", pos, err)
	}
	if _, err := tab.Fetch(rid, acc, nil); err != nil {
		t.Fatalf("nil injector fetch: %v", err)
	}
	if got := acc.RandPageReads() - before; got != 2 {
		t.Errorf("two clean fetches charged %d random reads, want 2", got)
	}
	// Invalid RID surfaces the storage error, not an injected one, and
	// charges nothing.
	before = acc.RandPageReads()
	if _, err := tab.Fetch(RID{Page: 99}, acc, f); err == nil || errors.Is(err, qerr.ErrFaultInjected) {
		t.Errorf("invalid rid error mangled: %v", err)
	}
	if acc.RandPageReads() != before {
		t.Errorf("invalid rid charged %d random reads", acc.RandPageReads()-before)
	}
}
