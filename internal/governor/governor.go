// Package governor is the concurrency-safe resource governor that sits
// between the database and the executor: a memory grant broker, admission
// control with a bounded queue and load shedding, and a per-relation
// circuit breaker.
//
// The paper's dynamic plans defer the memory binding to start-up-time
// (§4); choose-plan operators exist precisely so a plan can degrade
// gracefully when buffer pages are scarce (§6.2). Under concurrent
// traffic, "the memory available at start-up" is whatever the governor
// can grant at that moment: queries are admitted up to a concurrency
// limit, queue briefly beyond it, are shed with a typed error when the
// queue is full or the wait budget expires, and receive a memory grant
// the broker may degrade below the request — which the activation bindings
// then carry into choose-plan resolution.
package governor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dynplan/internal/qerr"
)

// Config parameterizes a Governor. The zero value of any knob selects its
// default.
type Config struct {
	// TotalPages is the memory grant pool shared by all running queries
	// (default 256).
	TotalPages float64
	// MinGrantPages is the smallest grant the broker will issue; a query
	// asking for more may be degraded down to this floor under pressure,
	// never below (default 8, clamped to the request when the request is
	// smaller).
	MinGrantPages float64
	// MaxConcurrent is how many queries may execute at once (default 8).
	MaxConcurrent int
	// MaxQueued is how many admitted-but-waiting queries may queue beyond
	// the executing set before further arrivals are shed (default
	// 2×MaxConcurrent).
	MaxQueued int
	// QueueTimeout bounds each wait of an acquisition separately: at the
	// tenant gate, for an execution slot, for a memory grant. On expiry
	// the query is shed with an error wrapping qerr.ErrAdmission (default
	// 1s).
	QueueTimeout time.Duration
	// TenantSlots, when positive, caps how many queries any single tenant
	// may have past admission at once. The tenant gate sits *before* the
	// global slot queue: a flooding tenant's excess arrivals wait on (or
	// are shed from) their own tenant gate and never occupy the shared
	// queue, so one hot tenant cannot starve the others' admission.
	// Queries with an empty tenant bypass the gate.
	TenantSlots int
	// TenantPages, when positive, caps any single tenant's outstanding
	// memory grant total. A request is clamped to the tenant's remaining
	// quota; when the remainder cannot fund even MinGrantPages, the query
	// is shed with qerr.ErrAdmission rather than letting one tenant drain
	// the shared pool.
	TenantPages float64
	// BreakerThreshold is how many consecutive permanent faults on one
	// relation open its circuit (default 3); BreakerCooldown is how many
	// executions the open circuit blocks before half-opening for a probe
	// (default 8). They configure NewBreaker.
	BreakerThreshold int
	BreakerCooldown  int
}

func (c Config) withDefaults() Config {
	if c.TotalPages <= 0 {
		c.TotalPages = 256
	}
	if c.MinGrantPages <= 0 {
		c.MinGrantPages = 8
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 2 * c.MaxConcurrent
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	return c
}

// Stats is a snapshot of the governor's counters.
type Stats struct {
	// Admitted counts queries that received a slot and a grant; Completed
	// those that released their ticket.
	Admitted, Completed int64
	// ShedQueueFull counts arrivals rejected because the queue was at
	// MaxQueued; ShedTimeout counts queued queries whose slot or grant
	// wait expired. Both fail with qerr.ErrAdmission.
	ShedQueueFull, ShedTimeout int64
	// InFlight and Queued are the current occupancy; QueueHighWater the
	// deepest queue ever observed.
	InFlight, Queued, QueueHighWater int
	// QueueWaitTotal is the cumulative time admitted queries spent queued.
	QueueWaitTotal time.Duration
	// Broker is the grant broker's snapshot.
	Broker BrokerStats
	// Tenants is the per-tenant view, present when any query has run
	// under a non-empty tenant identity.
	Tenants map[string]TenantStats
}

// TenantStats is one tenant's admission account.
type TenantStats struct {
	// Admitted counts the tenant's queries that received a slot and a
	// grant; Completed those that released their ticket.
	Admitted, Completed int64
	// ShedGate counts arrivals shed waiting at the tenant gate;
	// ShedTimeout those shed later, at the shared slot or grant gates
	// (including quota exhaustion).
	ShedGate, ShedTimeout int64
	// InFlight is the tenant's current past-admission occupancy;
	// OutstandingPages its current total memory grant.
	InFlight         int
	OutstandingPages float64
	// QueueWaitTotal is the cumulative time the tenant's admitted queries
	// spent waiting (tenant gate, slot queue, and grant).
	QueueWaitTotal time.Duration
}

// Governor enforces admission control and brokers memory grants. Create
// one with New; all methods are safe for concurrent use.
type Governor struct {
	cfg    Config
	broker *Broker
	slots  chan struct{}

	mu             sync.Mutex
	queued         int
	queueHighWater int
	inFlight       int
	admitted       int64
	completed      int64
	shedQueueFull  int64
	shedTimeout    int64
	queueWaitTotal time.Duration
	tenants        map[string]*tenantState
}

// tenantState is one tenant's gate and account; the counters are guarded
// by the governor's mutex, the gate channel synchronizes itself.
type tenantState struct {
	// gate holds the tenant's TenantSlots admission tokens; nil when the
	// governor has no per-tenant slot cap.
	gate chan struct{}

	admitted       int64
	completed      int64
	shedGate       int64
	shedTimeout    int64
	inFlight       int
	outstanding    float64
	queueWaitTotal time.Duration
}

// tenantFor returns (creating on first use) the tenant's state.
func (g *Governor) tenantFor(tenant string) *tenantState {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tenants == nil {
		g.tenants = make(map[string]*tenantState)
	}
	ts := g.tenants[tenant]
	if ts == nil {
		ts = &tenantState{}
		if g.cfg.TenantSlots > 0 {
			ts.gate = make(chan struct{}, g.cfg.TenantSlots)
			for i := 0; i < g.cfg.TenantSlots; i++ {
				ts.gate <- struct{}{}
			}
		}
		g.tenants[tenant] = ts
	}
	return ts
}

// New creates a governor from the config.
func New(cfg Config) *Governor {
	cfg = cfg.withDefaults()
	g := &Governor{
		cfg:    cfg,
		broker: NewBroker(cfg.TotalPages),
		slots:  make(chan struct{}, cfg.MaxConcurrent),
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		g.slots <- struct{}{}
	}
	return g
}

// Ticket is one admitted query's claim on the governor: an execution slot
// plus a memory grant. Release it exactly once, on every path.
type Ticket struct {
	// Pages is the granted memory, possibly degraded below the request.
	Pages float64
	// Requested is what the query asked for.
	Requested float64
	// Wait is the time spent queued before admission: tenant gate, slot
	// queue and grant. SlotWait is its part up to the claimed slot.
	Wait, SlotWait time.Duration
	// Degraded reports Pages < Requested.
	Degraded bool

	g    *Governor
	ts   *tenantState
	once sync.Once
}

// Acquire admits a query under a tenant identity ("" for none) and grants
// it memory, passing three gates in order:
//
//   - the tenant gate: with Config.TenantSlots set and a non-empty tenant,
//     one of the tenant's own tokens, so a tenant flooding arrivals queues
//     against itself and never fills the shared queue;
//   - the slot queue: a shared execution slot, joining the bounded queue
//     when none is free and shed at once when the queue is full;
//   - the grant: up to wantPages (MinGrantPages when wantPages <= 0),
//     clamped to the tenant's remaining quota, which the broker may degrade
//     down to MinGrantPages under pressure.
//
// Each wait is bounded by QueueTimeout. A shed at any gate fails with an
// error wrapping qerr.ErrAdmission and hands back what the query held; a
// caller context that ends surfaces through the qerr taxonomy and is never
// counted as a shed. On success the caller must Release the ticket when
// the query finishes.
func (g *Governor) Acquire(ctx context.Context, tenant string, wantPages float64) (*Ticket, error) {
	if err := qerr.FromContext(ctx.Err()); err != nil {
		return nil, err
	}
	began := time.Now()

	var ts *tenantState
	if tenant != "" {
		ts = g.tenantFor(tenant)
	}
	if ts != nil && ts.gate != nil {
		if err := g.take(ctx, ts.gate); err != nil {
			if qerr.Canceled(err) {
				return nil, err
			}
			g.mu.Lock()
			ts.shedGate++
			g.shedTimeout++
			g.mu.Unlock()
			return nil, fmt.Errorf("governor: tenant %q gate wait exceeded %v (%d slots per tenant): %w",
				tenant, g.cfg.QueueTimeout, g.cfg.TenantSlots, qerr.ErrAdmission)
		}
	}
	if err := g.claimSlot(ctx); err != nil {
		return nil, g.abandon(ts, false, err)
	}
	slotWait := time.Since(began)

	want := wantPages
	if want <= 0 {
		want = g.cfg.MinGrantPages
	}
	requested := want
	if ts != nil && g.cfg.TenantPages > 0 {
		// The tenant quota clamps the request before the broker sees it: a
		// tenant holding most of its quota gets degraded grants, and one
		// whose remainder cannot fund the floor is shed — the shared pool
		// stays available to the other tenants.
		g.mu.Lock()
		avail := g.cfg.TenantPages - ts.outstanding
		g.mu.Unlock()
		if avail < min(g.cfg.MinGrantPages, want) {
			return nil, g.abandon(ts, true, fmt.Errorf("governor: tenant grant quota exhausted (%.4g of %.4g pages outstanding): %w",
				g.cfg.TenantPages-avail, g.cfg.TenantPages, qerr.ErrAdmission))
		}
		want = min(want, avail)
	}
	// Slot holders release pages as they finish, so a bounded grant wait
	// cannot deadlock.
	pages, err := g.broker.Acquire(ctx, want, g.cfg.MinGrantPages, g.cfg.QueueTimeout)
	if err != nil {
		return nil, g.abandon(ts, true, err)
	}

	wait := time.Since(began)
	g.mu.Lock()
	g.inFlight++
	g.admitted++
	g.queueWaitTotal += wait
	if ts != nil {
		ts.inFlight++
		ts.admitted++
		ts.outstanding += pages
		ts.queueWaitTotal += wait
	}
	g.mu.Unlock()
	return &Ticket{
		Pages:     pages,
		Requested: requested,
		Wait:      wait,
		SlotWait:  slotWait,
		Degraded:  pages < requested,
		g:         g,
		ts:        ts,
	}, nil
}

// claimSlot takes a shared execution slot, joining the bounded queue when
// none is free. It counts its own sheds: a full queue, an expired wait.
func (g *Governor) claimSlot(ctx context.Context) error {
	select {
	case <-g.slots:
		return nil
	default:
	}
	g.mu.Lock()
	if g.queued >= g.cfg.MaxQueued {
		g.shedQueueFull++
		g.mu.Unlock()
		return fmt.Errorf("governor: admission queue full (%d waiting, %d running): %w",
			g.cfg.MaxQueued, g.cfg.MaxConcurrent, qerr.ErrAdmission)
	}
	g.queued++
	g.queueHighWater = max(g.queueHighWater, g.queued)
	g.mu.Unlock()

	err := g.take(ctx, g.slots)
	g.mu.Lock()
	g.queued--
	if err != nil && !qerr.Canceled(err) {
		g.shedTimeout++
		err = fmt.Errorf("governor: queue wait exceeded %v: %w", g.cfg.QueueTimeout, qerr.ErrAdmission)
	}
	g.mu.Unlock()
	return err
}

// take receives a token from ch, waiting at most QueueTimeout; the timer
// starts only when it has to wait. It returns nil on success, the qerr
// context error when ctx ends first, and errWaitExpired when the wait runs
// out.
func (g *Governor) take(ctx context.Context, ch chan struct{}) error {
	select {
	case <-ch:
		return nil
	default:
	}
	timer := time.NewTimer(g.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return qerr.FromContext(ctx.Err())
	case <-timer.C:
		return errWaitExpired
	}
}

// errWaitExpired is take's timeout; callers replace it with a message
// naming the gate.
var errWaitExpired = errors.New("governor: wait expired")

// abandon undoes an acquisition that failed past the tenant gate: it hands
// back the shared slot when held and the tenant's gate token, and counts
// the shed against the tenant and, for a failed grant, the governor (the
// slot queue counts its own) — unless the caller's context ended, which is
// a cancellation, not a load-shedding decision. It returns err.
func (g *Governor) abandon(ts *tenantState, slotHeld bool, err error) error {
	if slotHeld {
		g.slots <- struct{}{}
	}
	if ts != nil && ts.gate != nil {
		ts.gate <- struct{}{}
	}
	if !qerr.Canceled(err) {
		g.mu.Lock()
		if slotHeld {
			g.shedTimeout++
		}
		if ts != nil {
			ts.shedTimeout++
		}
		g.mu.Unlock()
	}
	return err
}

// Release returns the ticket's grant and slot; it is idempotent.
func (t *Ticket) Release() {
	if t == nil {
		return
	}
	t.once.Do(func() {
		t.g.broker.Release(t.Pages)
		t.g.slots <- struct{}{}
		if t.ts != nil && t.ts.gate != nil {
			t.ts.gate <- struct{}{}
		}
		t.g.mu.Lock()
		t.g.inFlight--
		t.g.completed++
		if t.ts != nil {
			t.ts.inFlight--
			t.ts.completed++
			t.ts.outstanding -= t.Pages
		}
		t.g.mu.Unlock()
	})
}

// Broker exposes the grant broker (for invariant checks in tests and the
// chaos harness).
func (g *Governor) Broker() *Broker { return g.broker }

// Stats returns a snapshot of the governor's counters.
func (g *Governor) Stats() Stats {
	g.mu.Lock()
	s := Stats{
		Admitted:       g.admitted,
		Completed:      g.completed,
		ShedQueueFull:  g.shedQueueFull,
		ShedTimeout:    g.shedTimeout,
		InFlight:       g.inFlight,
		Queued:         g.queued,
		QueueHighWater: g.queueHighWater,
		QueueWaitTotal: g.queueWaitTotal,
	}
	if len(g.tenants) > 0 {
		s.Tenants = make(map[string]TenantStats, len(g.tenants))
		for name, ts := range g.tenants {
			s.Tenants[name] = TenantStats{
				Admitted:         ts.admitted,
				Completed:        ts.completed,
				ShedGate:         ts.shedGate,
				ShedTimeout:      ts.shedTimeout,
				InFlight:         ts.inFlight,
				OutstandingPages: ts.outstanding,
				QueueWaitTotal:   ts.queueWaitTotal,
			}
		}
	}
	g.mu.Unlock()
	s.Broker = g.broker.Stats()
	return s
}
