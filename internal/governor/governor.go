// Package governor is the concurrency-safe resource governor that sits
// between the database and the executor: a memory grant broker, admission
// control with a bounded queue and load shedding, per-query deadlines, and
// a per-relation circuit breaker.
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
	// QueueTimeout bounds the wait for an execution slot and, separately,
	// the wait for a memory grant; on expiry the query is shed with an
	// error wrapping qerr.ErrAdmission (default 1s).
	QueueTimeout time.Duration
	// Deadline, when positive, is the per-query execution deadline applied
	// to the context returned by Acquire; expiry surfaces as
	// qerr.ErrDeadlineExceeded through the usual context plumbing.
	Deadline time.Duration
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
	// Wait is the time spent queued before admission (slot plus grant).
	Wait time.Duration
	// Degraded reports Pages < Requested.
	Degraded bool

	g      *Governor
	ts     *tenantState
	cancel context.CancelFunc
	once   sync.Once
}

// Admission is a claimed execution slot awaiting its memory grant — the
// intermediate state between the governor's two gates. Call Grant exactly
// once; it consumes the admission (returning the slot on failure), so an
// abandoned Admission leaks its slot.
type Admission struct {
	g     *Governor
	ts    *tenantState
	began time.Time
}

// Admit claims an execution slot for an anonymous query; see AdmitTenant.
func (g *Governor) Admit(ctx context.Context) (*Admission, error) {
	return g.AdmitTenant(ctx, "")
}

// AdmitTenant claims an execution slot under a tenant identity. With a
// per-tenant slot cap configured (Config.TenantSlots) and a non-empty
// tenant, the tenant's own gate is passed first — bounded by
// QueueTimeout — so a tenant flooding arrivals queues against itself and
// never fills the shared admission queue; only gate holders compete for
// the global slots. Shedding at either gate fails with an error wrapping
// qerr.ErrAdmission; context cancellation surfaces through the qerr
// taxonomy. The returned Admission carries the claims into Grant, which
// completes the acquisition.
func (g *Governor) AdmitTenant(ctx context.Context, tenant string) (*Admission, error) {
	if err := qerr.FromContext(ctx.Err()); err != nil {
		return nil, err
	}
	began := time.Now()

	var ts *tenantState
	if tenant != "" {
		ts = g.tenantFor(tenant)
	}
	if ts != nil && ts.gate != nil {
		select {
		case <-ts.gate:
		default:
			timer := time.NewTimer(g.cfg.QueueTimeout)
			select {
			case <-ts.gate:
				timer.Stop()
			case <-timer.C:
				g.mu.Lock()
				ts.shedGate++
				g.shedTimeout++
				g.mu.Unlock()
				return nil, fmt.Errorf("governor: tenant %q gate wait exceeded %v (%d slots per tenant): %w",
					tenant, g.cfg.QueueTimeout, g.cfg.TenantSlots, qerr.ErrAdmission)
			case <-ctx.Done():
				timer.Stop()
				return nil, qerr.FromContext(ctx.Err())
			}
		}
	}
	adm, err := g.admit(ctx, began)
	if err != nil {
		if ts != nil {
			if ts.gate != nil {
				ts.gate <- struct{}{}
			}
			if !qerr.Canceled(err) {
				g.mu.Lock()
				ts.shedTimeout++
				g.mu.Unlock()
			}
		}
		return nil, err
	}
	adm.ts = ts
	return adm, nil
}

// admit claims a shared execution slot (the global gate behind the
// per-tenant ones); began anchors the ticket's total wait.
func (g *Governor) admit(ctx context.Context, began time.Time) (*Admission, error) {
	// Admission: try for a free slot; join the bounded queue otherwise.
	select {
	case <-g.slots:
	default:
		g.mu.Lock()
		if g.queued >= g.cfg.MaxQueued {
			g.shedQueueFull++
			g.mu.Unlock()
			return nil, fmt.Errorf("governor: admission queue full (%d waiting, %d running): %w",
				g.cfg.MaxQueued, g.cfg.MaxConcurrent, qerr.ErrAdmission)
		}
		g.queued++
		if g.queued > g.queueHighWater {
			g.queueHighWater = g.queued
		}
		g.mu.Unlock()

		timer := time.NewTimer(g.cfg.QueueTimeout)
		var err error
		select {
		case <-g.slots:
		case <-timer.C:
			err = fmt.Errorf("governor: queue wait exceeded %v: %w", g.cfg.QueueTimeout, qerr.ErrAdmission)
		case <-ctx.Done():
			err = qerr.FromContext(ctx.Err())
		}
		timer.Stop()
		g.mu.Lock()
		g.queued--
		if err != nil {
			if !qerr.Canceled(err) {
				g.shedTimeout++
			}
			g.mu.Unlock()
			return nil, err
		}
		g.mu.Unlock()
	}
	return &Admission{g: g, began: began}, nil
}

// Grant draws the admitted query's memory grant — up to wantPages, which
// the broker may degrade down to MinGrantPages under pressure — and
// returns the ticket plus a derived context carrying the per-query
// deadline, if the governor has one. On failure the slot is returned and
// the query counts as shed (unless the caller's context ended, which is a
// cancellation, not a load-shedding decision). The ticket's Wait spans
// both gates: slot wait plus grant wait. On success the caller must
// Release the ticket when the query finishes.
func (a *Admission) Grant(ctx context.Context, wantPages float64) (*Ticket, context.Context, error) {
	g := a.g
	// Memory grant, under its own wait budget: slot holders release pages
	// as they finish, so a bounded wait here cannot deadlock.
	want := wantPages
	if want <= 0 {
		want = g.cfg.MinGrantPages
	}
	requested := want
	if a.ts != nil && g.cfg.TenantPages > 0 {
		// The tenant quota clamps the request before the broker sees it: a
		// tenant holding most of its quota gets degraded grants, and one
		// whose remainder cannot fund the floor is shed — the shared pool
		// stays available to the other tenants.
		g.mu.Lock()
		avail := g.cfg.TenantPages - a.ts.outstanding
		g.mu.Unlock()
		floor := g.cfg.MinGrantPages
		if floor > want {
			floor = want
		}
		if avail < floor {
			a.release()
			g.mu.Lock()
			a.ts.shedTimeout++
			g.shedTimeout++
			g.mu.Unlock()
			return nil, nil, fmt.Errorf("governor: tenant grant quota exhausted (%.4g of %.4g pages outstanding): %w",
				g.cfg.TenantPages-avail, g.cfg.TenantPages, qerr.ErrAdmission)
		}
		if want > avail {
			want = avail
		}
	}
	grantCtx, grantCancel := context.WithTimeout(ctx, g.cfg.QueueTimeout)
	pages, err := g.broker.Acquire(grantCtx, want, g.cfg.MinGrantPages)
	grantCancel()
	if err != nil {
		a.release()
		if cerr := qerr.FromContext(ctx.Err()); cerr != nil {
			return nil, nil, cerr
		}
		g.mu.Lock()
		g.shedTimeout++
		if a.ts != nil {
			a.ts.shedTimeout++
		}
		g.mu.Unlock()
		return nil, nil, err
	}

	wait := time.Since(a.began)
	g.mu.Lock()
	g.inFlight++
	g.admitted++
	g.queueWaitTotal += wait
	if a.ts != nil {
		a.ts.inFlight++
		a.ts.admitted++
		a.ts.outstanding += pages
		a.ts.queueWaitTotal += wait
	}
	g.mu.Unlock()

	qctx := ctx
	var cancel context.CancelFunc
	if g.cfg.Deadline > 0 {
		qctx, cancel = context.WithTimeout(ctx, g.cfg.Deadline)
	}
	return &Ticket{
		Pages:     pages,
		Requested: requested,
		Wait:      wait,
		Degraded:  pages < requested,
		g:         g,
		ts:        a.ts,
		cancel:    cancel,
	}, qctx, nil
}

// release returns the admission's shared slot and tenant gate token — the
// failure path out of Grant.
func (a *Admission) release() {
	a.g.slots <- struct{}{}
	if a.ts != nil && a.ts.gate != nil {
		a.ts.gate <- struct{}{}
	}
}

// Acquire admits a query and grants it memory in one call — Admit then
// Grant. Rejections at either gate fail with an error wrapping
// qerr.ErrAdmission; context cancellation with the qerr context taxonomy.
// On success the caller must Release the ticket when the query finishes.
func (g *Governor) Acquire(ctx context.Context, wantPages float64) (*Ticket, context.Context, error) {
	adm, err := g.Admit(ctx)
	if err != nil {
		return nil, nil, err
	}
	return adm.Grant(ctx, wantPages)
}

// Release returns the ticket's grant and slot; it is idempotent.
func (t *Ticket) Release() {
	if t == nil {
		return
	}
	t.once.Do(func() {
		if t.cancel != nil {
			t.cancel()
		}
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
