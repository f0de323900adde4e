package governor

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dynplan/internal/qerr"
)

func TestBrokerGrantAndDegrade(t *testing.T) {
	b := NewBroker(100)
	ctx := context.Background()

	g1, err := b.Acquire(ctx, 64, 8, time.Minute)
	if err != nil || g1 != 64 {
		t.Fatalf("first grant = %v, %v; want 64", g1, err)
	}
	// 36 pages remain: a 64-page request is degraded, not blocked.
	g2, err := b.Acquire(ctx, 64, 8, time.Minute)
	if err != nil || g2 != 36 {
		t.Fatalf("degraded grant = %v, %v; want 36", g2, err)
	}
	s := b.Stats()
	if s.OutstandingPages != 100 || s.Degraded != 1 || s.Grants != 2 {
		t.Fatalf("stats = %+v", s)
	}
	b.Release(g1)
	b.Release(g2)
	if out := b.Stats().OutstandingPages; out != 0 {
		t.Fatalf("outstanding after release = %v, want 0", out)
	}
}

func TestBrokerWaitsBelowFloorAndWakes(t *testing.T) {
	b := NewBroker(16)
	ctx := context.Background()
	g1, err := b.Acquire(ctx, 12, 8, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Only 4 pages remain, below the floor of 8: the next acquire blocks
	// until the release below.
	done := make(chan float64, 1)
	go func() {
		g, err := b.Acquire(ctx, 8, 8, time.Minute)
		if err != nil {
			t.Error(err)
		}
		done <- g
	}()
	select {
	case g := <-done:
		t.Fatalf("acquire below floor returned %v without waiting", g)
	case <-time.After(20 * time.Millisecond):
	}
	b.Release(g1)
	select {
	case g := <-done:
		if g != 8 {
			t.Fatalf("woken grant = %v, want 8", g)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke after release")
	}
	if s := b.Stats(); s.Waits != 1 {
		t.Fatalf("waits = %d, want 1", s.Waits)
	}
}

func TestBrokerGrantWaitTimeoutIsAdmission(t *testing.T) {
	b := NewBroker(4)
	_, err := b.Acquire(context.Background(), 64, 8, 10*time.Millisecond)
	if !errors.Is(err, qerr.ErrAdmission) {
		t.Fatalf("grant timeout error = %v, want ErrAdmission", err)
	}
	if qerr.Canceled(err) {
		t.Fatalf("grant timeout must not classify as cancellation: %v", err)
	}
	if out := b.Stats().OutstandingPages; out != 0 {
		t.Fatalf("outstanding after failed acquire = %v", out)
	}
}

func TestGovernorShedsWhenQueueFull(t *testing.T) {
	g := New(Config{TotalPages: 1024, MaxConcurrent: 1, MaxQueued: 1, QueueTimeout: time.Minute})
	ctx := context.Background()

	t1, err := g.Acquire(ctx, "", 16)
	if err != nil {
		t.Fatal(err)
	}
	// One query may queue…
	queued := make(chan *Ticket, 1)
	go func() {
		t2, err := g.Acquire(ctx, "", 16)
		if err != nil {
			t.Error(err)
		}
		queued <- t2
	}()
	waitFor(t, func() bool { return g.Stats().Queued == 1 })
	// …the next arrival is shed immediately with the typed error.
	_, err = g.Acquire(ctx, "", 16)
	if !errors.Is(err, qerr.ErrAdmission) {
		t.Fatalf("queue-full error = %v, want ErrAdmission", err)
	}
	t1.Release()
	t2 := <-queued
	t2.Release()

	s := g.Stats()
	if s.ShedQueueFull != 1 || s.Admitted != 2 || s.Completed != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Broker.OutstandingPages != 0 {
		t.Fatalf("outstanding pages = %v, want 0", s.Broker.OutstandingPages)
	}
}

func TestGovernorQueueTimeoutSheds(t *testing.T) {
	g := New(Config{TotalPages: 1024, MaxConcurrent: 1, MaxQueued: 4, QueueTimeout: 15 * time.Millisecond})
	t1, err := g.Acquire(context.Background(), "", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Release()
	_, err = g.Acquire(context.Background(), "", 16)
	if !errors.Is(err, qerr.ErrAdmission) {
		t.Fatalf("queue-timeout error = %v, want ErrAdmission", err)
	}
	if s := g.Stats(); s.ShedTimeout != 1 {
		t.Fatalf("shed-timeout = %d, want 1", s.ShedTimeout)
	}
}

func TestGovernorCancellationIsNotShedding(t *testing.T) {
	g := New(Config{TotalPages: 64, MaxConcurrent: 1, MaxQueued: 4, QueueTimeout: time.Minute})
	t1, err := g.Acquire(context.Background(), "", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx, "", 16)
		done <- err
	}()
	waitFor(t, func() bool { return g.Stats().Queued == 1 })
	cancel()
	err = <-done
	if !qerr.Canceled(err) {
		t.Fatalf("canceled acquire = %v, want cancellation taxonomy", err)
	}
	if errors.Is(err, qerr.ErrAdmission) {
		t.Fatalf("cancellation must not read as admission rejection: %v", err)
	}
	s := g.Stats()
	if s.ShedQueueFull != 0 || s.ShedTimeout != 0 {
		t.Fatalf("cancellation counted as shed: %+v", s)
	}
}

func TestGovernorConcurrentSoak(t *testing.T) {
	g := New(Config{TotalPages: 128, MinGrantPages: 8, MaxConcurrent: 4, MaxQueued: 4, QueueTimeout: 2 * time.Second})
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted, rejected := 0, 0
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := g.Acquire(context.Background(), "", 48)
			if err != nil {
				if !errors.Is(err, qerr.ErrAdmission) {
					t.Errorf("unexpected acquire error: %v", err)
				}
				mu.Lock()
				rejected++
				mu.Unlock()
				return
			}
			if tk.Pages < 8 || tk.Pages > 48 {
				t.Errorf("grant %v outside [8, 48]", tk.Pages)
			}
			time.Sleep(time.Millisecond)
			tk.Release()
			mu.Lock()
			admitted++
			mu.Unlock()
		}()
	}
	wg.Wait()
	s := g.Stats()
	if s.Broker.OutstandingPages != 0 {
		t.Fatalf("outstanding pages after soak = %v", s.Broker.OutstandingPages)
	}
	if s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("occupancy after soak = %+v", s)
	}
	if int(s.Admitted) != admitted || int(s.ShedQueueFull+s.ShedTimeout) != rejected {
		t.Fatalf("counters disagree: stats %+v vs admitted=%d rejected=%d", s, admitted, rejected)
	}
	if admitted+rejected != 32 {
		t.Fatalf("accounted %d of 32 queries", admitted+rejected)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(2, 3)
	if b.Blocked("R") {
		t.Fatal("fresh breaker blocks")
	}
	b.RecordFailure("R")
	if b.Open("R") {
		t.Fatal("one failure opened the circuit (threshold 2)")
	}
	b.RecordFailure("R")
	if !b.Open("R") {
		t.Fatal("threshold failures did not open the circuit")
	}
	// Cooldown: three blocked executions, then half-open probes pass.
	for i := 0; i < 3; i++ {
		if !b.Blocked("R") {
			t.Fatalf("execution %d not blocked during cooldown", i)
		}
	}
	if b.Blocked("R") {
		t.Fatal("half-open circuit still blocks probes")
	}
	// Failed probe re-opens and restarts the cooldown.
	b.RecordFailure("R")
	if !b.Blocked("R") {
		t.Fatal("failed probe did not re-open the circuit")
	}
	for i := 0; i < 2; i++ {
		b.Blocked("R")
	}
	// Successful probe closes it.
	b.RecordSuccess("R")
	if b.Blocked("R") || b.Open("R") {
		t.Fatal("successful probe did not close the circuit")
	}
	if trips := b.Trips(); trips["R"] != 2 {
		t.Fatalf("trips = %v, want R:2", trips)
	}
	// Other relations are independent.
	if b.Blocked("S") {
		t.Fatal("unrelated relation blocked")
	}
	// Nil breaker never blocks.
	var nb *Breaker
	if nb.Blocked("R") {
		t.Fatal("nil breaker blocks")
	}
	nb.RecordFailure("R")
	nb.RecordSuccess("R")
}

func TestBreakerBlockedSet(t *testing.T) {
	b := NewBreaker(1, 4)
	b.RecordFailure("R1")
	set := b.BlockedSet([]string{"R1", "R2"})
	if !set["R1"] || set["R2"] {
		t.Fatalf("blocked set = %v", set)
	}
}

// waitFor polls a condition with a generous deadline; chaos-free tests
// only use it to sequence goroutine startup, not to measure time.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestTenantGateBoundsConcurrency(t *testing.T) {
	g := New(Config{TotalPages: 1024, MaxConcurrent: 8, MaxQueued: 8,
		TenantSlots: 2, QueueTimeout: 25 * time.Millisecond})
	ctx := context.Background()

	t1, err := g.Acquire(ctx, "a", 16)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := g.Acquire(ctx, "a", 16)
	if err != nil {
		t.Fatal(err)
	}
	// Tenant a holds both of its slots: its third arrival waits at the
	// tenant gate — never reaching the shared queue — and sheds on
	// timeout with the typed error.
	if _, err := g.Acquire(ctx, "a", 16); !errors.Is(err, qerr.ErrAdmission) {
		t.Fatalf("third tenant-a admission error = %v, want ErrAdmission", err)
	}
	// Another tenant is untouched by a's saturation.
	tb, err := g.Acquire(ctx, "b", 16)
	if err != nil {
		t.Fatalf("tenant b admission while a floods: %v", err)
	}
	t1.Release()
	t2.Release()
	tb.Release()

	s := g.Stats()
	ta := s.Tenants["a"]
	if ta.Admitted != 2 || ta.Completed != 2 || ta.ShedGate != 1 {
		t.Fatalf("tenant a stats = %+v", ta)
	}
	if ta.InFlight != 0 || ta.OutstandingPages != 0 {
		t.Fatalf("tenant a occupancy after release = %+v", ta)
	}
	if tb := s.Tenants["b"]; tb.Admitted != 1 || tb.ShedGate != 0 {
		t.Fatalf("tenant b stats = %+v", tb)
	}
	if s.Broker.OutstandingPages != 0 {
		t.Fatalf("outstanding pages = %v, want 0", s.Broker.OutstandingPages)
	}
}

func TestTenantQuotaClampsAndSheds(t *testing.T) {
	g := New(Config{TotalPages: 1024, MinGrantPages: 10, MaxConcurrent: 8,
		MaxQueued: 8, TenantSlots: 4, TenantPages: 25, QueueTimeout: time.Minute})
	ctx := context.Background()

	t1, err := g.Acquire(ctx, "a", 20)
	if err != nil || t1.Pages != 20 {
		t.Fatalf("first grant = %+v, %v; want 20 pages", t1, err)
	}
	// 5 quota pages remain — below the 10-page floor: the request is
	// shed, not granted a useless sliver, and the slot is returned.
	if _, err := g.Acquire(ctx, "a", 20); !errors.Is(err, qerr.ErrAdmission) {
		t.Fatalf("over-quota grant error = %v, want ErrAdmission", err)
	}
	t1.Release()
	// With the quota free again, an oversized request is clamped to the
	// quota and marked degraded.
	t3, err := g.Acquire(ctx, "a", 40)
	if err != nil {
		t.Fatal(err)
	}
	if t3.Pages != 25 || t3.Requested != 40 || !t3.Degraded {
		t.Fatalf("clamped grant = %+v, want 25 of 40, degraded", t3)
	}
	t3.Release()

	s := g.Stats()
	ta := s.Tenants["a"]
	if ta.Admitted != 2 || ta.Completed != 2 || ta.ShedTimeout != 1 {
		t.Fatalf("tenant a stats = %+v", ta)
	}
	if ta.OutstandingPages != 0 || s.Broker.OutstandingPages != 0 {
		t.Fatalf("outstanding after release: tenant %v, broker %v",
			ta.OutstandingPages, s.Broker.OutstandingPages)
	}
}

func TestAnonymousQueriesBypassTenantGate(t *testing.T) {
	g := New(Config{TotalPages: 1024, MaxConcurrent: 4, MaxQueued: 4,
		TenantSlots: 1, QueueTimeout: 25 * time.Millisecond})
	ctx := context.Background()
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := g.Acquire(ctx, "", 16)
		if err != nil {
			t.Fatalf("anonymous acquire %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		tk.Release()
	}
	if s := g.Stats(); len(s.Tenants) != 0 {
		t.Fatalf("anonymous traffic created tenant accounts: %+v", s.Tenants)
	}
}
