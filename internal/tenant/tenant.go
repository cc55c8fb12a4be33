package tenant

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Errors returned by the quota subsystem.
var (
	// ErrQuota reports a hard-mode admission rejected because it would
	// push a tenant (or its group) past its budgeted share of the
	// reservable α-prefix. It is a sentinel: errors.Is(err, ErrQuota)
	// works through every wrapping layer, including across the wire
	// (reswire maps it onto the REJECTED_QUOTA code).
	ErrQuota = errors.New("tenant: quota exceeded")
	// ErrConfig reports an invalid quota specification (bad share, bad
	// mode, duplicate or dangling names).
	ErrConfig = errors.New("tenant: invalid quota config")
)

// DefaultTenant is the tenant every unattributed request is accounted to:
// an admission whose Request names no tenant lands here, in process and
// over the wire alike.
const DefaultTenant = "default"

// DefaultGroup is the group tenants belong to when their spec names none,
// and the group runtime-discovered tenants are created under.
const DefaultGroup = "default"

// MaxNameLen bounds tenant and group names; the wire protocol carries
// names with a one-byte length.
const MaxNameLen = 255

// MaxAccounts bounds how many distinct tenant accounts a registry will
// materialise. Declared tenants always fit (a Spec is operator-written);
// the cap exists for runtime discovery, where every Reserve or QuotaGet
// frame may name a fresh tenant: without it, an unauthenticated client
// cycling random names could grow the server's memory without limit.
// Past the cap, unknown names alias to the default tenant's account —
// admissions stay correct (they are bounded by the default budget and
// balanced by the same alias on Cancel), only per-name attribution
// degrades.
const MaxAccounts = 1 << 16

// Mode selects how budgets are enforced.
type Mode uint8

const (
	// Hard rejects an admission that would exceed the tenant's (or its
	// group's) budget with ErrQuota. Usage can never exceed budget.
	Hard Mode = iota
	// Soft never rejects on quota: budgets instead weight fair-share
	// ordering. When the α-prefix is contended — several Reserves ride
	// one shard batch — competing requests are served lowest
	// usage-to-budget ratio first, DRF-style, so tenants far under their
	// share overtake tenants far over it.
	Soft
)

// String names the mode as the config file spells it.
func (m Mode) String() string {
	switch m {
	case Hard:
		return "hard"
	case Soft:
		return "soft"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ParseMode parses "hard" or "soft".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "hard":
		return Hard, nil
	case "soft":
		return Soft, nil
	default:
		return 0, fmt.Errorf("%w: mode %q (want hard or soft)", ErrConfig, s)
	}
}

// account is one node of the budget hierarchy: a tenant or a group. All
// fields the admission path touches are atomics, so shard combiners on
// different goroutines acquire and release concurrently without locks.
type account struct {
	name  string
	share uint64       // math.Float64bits of the share of the parent budget
	budg  atomic.Int64 // resolved area budget (share × parent budget)
	used  atomic.Int64 // admitted area currently held

	inflight  atomic.Int64 // currently held reservations
	admitted  atomic.Uint64
	cancelled atomic.Uint64
	rejected  atomic.Uint64 // hard-mode quota rejections
}

func (a *account) shareVal() float64 { return math.Float64frombits(atomic.LoadUint64(&a.share)) }

// tryAcquire adds area to used unless that would exceed the budget. The
// CAS loop is the whole enforcement mechanism: because the add is
// conditional and atomic, used ≤ budget holds at every instant no matter
// how many shards race.
func (a *account) tryAcquire(area int64) bool {
	for {
		u := a.used.Load()
		if u+area > a.budg.Load() {
			return false
		}
		if a.used.CompareAndSwap(u, u+area) {
			return true
		}
	}
}

// ratio returns used/budget — the fair-share pressure soft mode sorts by.
func (a *account) ratio() float64 {
	b := a.budg.Load()
	if b <= 0 {
		return math.Inf(1)
	}
	return float64(a.used.Load()) / float64(b)
}

// tenantAcct is a tenant account plus its group link.
type tenantAcct struct {
	account
	group *account
}

// Usage is a point-in-time view of one tenant's quota state, as QuotaGet
// reports it over the wire.
type Usage struct {
	// Tenant and Group name the account and its parent.
	Tenant, Group string
	// Share is the tenant's fraction of its group's budget.
	Share float64
	// Budget is the resolved area budget (processor·ticks).
	Budget int64
	// Used is the admitted area currently held.
	Used int64
	// Inflight is the number of currently held reservations.
	Inflight int64
	// Admitted, Cancelled and Rejected count operations since start
	// (Rejected counts hard-mode quota rejections only).
	Admitted, Cancelled, Rejected uint64
}

// Registry is the quota and fair-share ledger the admission service
// consults: per-tenant α-budget shares resolved against a global
// reservable-area capacity, with lock-free accounting on the admission
// path. Construct with New; all methods are safe for concurrent use.
//
// The budget hierarchy has three levels. The global capacity is the area
// of the reservable α-prefix the service exposes (shards × (m−⌊α·m⌋) ×
// accounting horizon). Each group owns a share of that capacity, and each
// tenant a share of its group. An admission must fit under both its
// tenant's and its group's budget, so a group of many small tenants is
// collectively bounded even when each tenant is individually under its
// own share.
type Registry struct {
	mode     atomic.Uint32
	capacity int64

	defaultShare float64

	// groups is fixed at construction (specs may not invent groups at
	// runtime); tenants grows lazily, so lookups on the admission path use
	// sync.Map's lock-free read fast path. nAccounts (guarded by mkMu)
	// enforces MaxAccounts.
	groups    map[string]*account
	tenants   sync.Map // string → *tenantAcct
	mkMu      sync.Mutex
	nAccounts int
}

// New builds a registry enforcing spec against the given global capacity:
// the reservable α-prefix area, in processor·ticks, that all budgets are
// fractions of. The service computes it as shards × (m − ⌊α·m⌋) ×
// horizon for its accounting horizon.
func New(capacity int64, spec Spec) (*Registry, error) {
	spec, mode, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	if capacity < 1 {
		return nil, fmt.Errorf("%w: capacity %d, need >= 1", ErrConfig, capacity)
	}
	r := &Registry{capacity: capacity, defaultShare: spec.DefaultShare}
	r.mode.Store(uint32(mode))
	r.groups = make(map[string]*account)
	for _, g := range spec.Groups {
		acct := &account{name: g.Name}
		atomic.StoreUint64(&acct.share, math.Float64bits(g.Share))
		acct.budg.Store(scaleBudget(capacity, g.Share))
		r.groups[g.Name] = acct
	}
	if _, ok := r.groups[DefaultGroup]; !ok {
		acct := &account{name: DefaultGroup}
		atomic.StoreUint64(&acct.share, math.Float64bits(1))
		acct.budg.Store(capacity)
		r.groups[DefaultGroup] = acct
	}
	for _, t := range spec.Tenants {
		group := t.Group
		if group == "" {
			group = DefaultGroup
		}
		g, ok := r.groups[group]
		if !ok {
			return nil, fmt.Errorf("%w: tenant %q names undeclared group %q", ErrConfig, t.Name, t.Group)
		}
		acct := &tenantAcct{group: g}
		acct.name = t.Name
		atomic.StoreUint64(&acct.share, math.Float64bits(t.Share))
		acct.budg.Store(scaleBudget(g.budg.Load(), t.Share))
		r.tenants.Store(t.Name, acct)
		r.nAccounts++
	}
	return r, nil
}

// PrefixCapacity is the reservable α-prefix area budgets resolve
// against: shards × (m − ⌊α·m⌋) × horizon processor·ticks. The floor
// term is computed exactly as resd computes its per-shard α floor, and a
// cross-package test pins the two together — callers must use this
// helper rather than re-deriving the formula, or the budgets quotas
// enforce silently drift from the prefix the shards actually reserve. A
// non-positive result means α leaves no reservable prefix at all.
func PrefixCapacity(shards, m int, alpha float64, horizon int64) int64 {
	floor := int(alpha * float64(m))
	return int64(shards) * int64(m-floor) * horizon
}

// scaleBudget resolves share × parent without float overflow surprises.
func scaleBudget(parent int64, share float64) int64 {
	b := int64(share * float64(parent))
	if b < 0 {
		b = 0
	}
	if b > parent {
		b = parent
	}
	return b
}

// Mode returns the current enforcement mode.
func (r *Registry) Mode() Mode { return Mode(r.mode.Load()) }

// SetMode switches enforcement at runtime. Switching soft→hard does not
// evict tenants already over budget; their admissions fail until usage
// drains below their share.
func (r *Registry) SetMode(m Mode) { r.mode.Store(uint32(m)) }

// Capacity returns the global reservable-area capacity budgets are
// fractions of.
func (r *Registry) Capacity() int64 { return r.capacity }

// acct returns the tenant's account, creating it under DefaultGroup with
// the default share on first sight. The common case — an existing tenant
// — is one lock-free sync.Map read. Past MaxAccounts, unknown names
// alias to the default tenant's account instead of materialising a new
// one (see the MaxAccounts comment).
func (r *Registry) acct(name string) *tenantAcct {
	if name == "" {
		name = DefaultTenant
	}
	if v, ok := r.tenants.Load(name); ok {
		return v.(*tenantAcct)
	}
	r.mkMu.Lock()
	defer r.mkMu.Unlock()
	if v, ok := r.tenants.Load(name); ok {
		return v.(*tenantAcct)
	}
	if r.nAccounts >= MaxAccounts && name != DefaultTenant {
		return r.acctLocked(DefaultTenant)
	}
	return r.acctLocked(name)
}

// acctLocked creates (or returns) an account while holding mkMu.
func (r *Registry) acctLocked(name string) *tenantAcct {
	if v, ok := r.tenants.Load(name); ok {
		return v.(*tenantAcct)
	}
	g := r.groups[DefaultGroup]
	acct := &tenantAcct{group: g}
	acct.name = name
	atomic.StoreUint64(&acct.share, math.Float64bits(r.defaultShare))
	acct.budg.Store(scaleBudget(g.budg.Load(), r.defaultShare))
	r.tenants.Store(name, acct)
	r.nAccounts++
	return acct
}

// QuotaError is a hard-mode refusal as a value: whose budget said no and
// by how much. It matches ErrQuota under errors.Is; the text is rendered
// only when somebody asks for it.
type QuotaError struct {
	// Name is the tenant that asked.
	Name string
	// Group is the group whose budget was the binding one, "" when the
	// tenant's own was. Used and Budget are that budget's figures at the
	// refusal.
	Group        string
	Used, Budget int64
	// Area is what the request would have added.
	Area int64
}

func (e *QuotaError) Error() string {
	if e.Group != "" {
		return fmt.Sprintf("%v: group %q used %d of %d with request area %d (tenant %q)",
			ErrQuota, e.Group, e.Used, e.Budget, e.Area, e.Name)
	}
	return fmt.Sprintf("%v: tenant %q used %d of %d with request area %d",
		ErrQuota, e.Name, e.Used, e.Budget, e.Area)
}

// Unwrap makes errors.Is(err, ErrQuota) hold.
func (e *QuotaError) Unwrap() error { return ErrQuota }

// Acquire charges area (processor·ticks) to the tenant ahead of a commit.
// In Hard mode it fails with a *QuotaError — charging nothing — when the
// tenant or its group would exceed its budget; in Soft mode it always
// succeeds and only moves the fair-share ratio. Every successful Acquire
// must be balanced by exactly one Admit+Release pair or one Rollback.
func (r *Registry) Acquire(tenant string, area int64) error {
	var why QuotaError
	if r.TryAcquire(tenant, area, &why) {
		return nil
	}
	e := why // copied on this path only, so a successful Acquire allocates nothing
	return &e
}

// TryAcquire is Acquire for a caller that keeps refusals in storage of its
// own: on false, *why says whose budget refused.
func (r *Registry) TryAcquire(tenant string, area int64, why *QuotaError) bool {
	a := r.acct(tenant)
	if r.Mode() == Soft {
		a.used.Add(area)
		a.group.used.Add(area)
		return true
	}
	if !a.tryAcquire(area) {
		a.rejected.Add(1)
		*why = QuotaError{Name: a.name, Used: a.used.Load(), Budget: a.budg.Load(), Area: area}
		return false
	}
	if !a.group.tryAcquire(area) {
		a.used.Add(-area)
		a.rejected.Add(1)
		a.group.rejected.Add(1) // the group budget was the binding constraint
		*why = QuotaError{Name: a.name, Group: a.group.name, Used: a.group.used.Load(), Budget: a.group.budg.Load(), Area: area}
		return false
	}
	return true
}

// Rollback returns an Acquire that never became an admission (the commit
// failed or the service rejected downstream of the quota check).
func (r *Registry) Rollback(tenant string, area int64) {
	a := r.acct(tenant)
	a.used.Add(-area)
	a.group.used.Add(-area)
}

// Admit records that an Acquire became a held reservation.
func (r *Registry) Admit(tenant string) {
	a := r.acct(tenant)
	a.inflight.Add(1)
	a.group.inflight.Add(1)
	a.admitted.Add(1)
	a.group.admitted.Add(1)
}

// Release returns a held reservation's area on Cancel.
func (r *Registry) Release(tenant string, area int64) {
	a := r.acct(tenant)
	a.used.Add(-area)
	a.inflight.Add(-1)
	a.cancelled.Add(1)
	a.group.used.Add(-area)
	a.group.inflight.Add(-1)
	a.group.cancelled.Add(1)
}

// Ratio returns the tenant's fair-share pressure: the larger of its own
// and its group's usage-to-budget ratio. Soft mode serves contending
// Reserves lowest ratio first.
func (r *Registry) Ratio(tenant string) float64 {
	a := r.acct(tenant)
	return math.Max(a.ratio(), a.group.ratio())
}

// Usage reports the tenant's current quota state, creating the account if
// the tenant is new (mirroring what its first admission would do).
func (r *Registry) Usage(tenant string) Usage {
	return r.acct(tenant).usage()
}

func (a *tenantAcct) usage() Usage {
	return Usage{
		Tenant:    a.name,
		Group:     a.group.name,
		Share:     a.shareVal(),
		Budget:    a.budg.Load(),
		Used:      a.used.Load(),
		Inflight:  a.inflight.Load(),
		Admitted:  a.admitted.Load(),
		Cancelled: a.cancelled.Load(),
		Rejected:  a.rejected.Load(),
	}
}

// SetShare re-budgets a tenant at runtime (the QuotaSet wire op): its
// share of its group's budget becomes share ∈ (0,1]. A share below the
// tenant's current usage is allowed — nothing is evicted, but hard-mode
// admissions fail until usage drains under the new budget.
func (r *Registry) SetShare(tenant string, share float64) error {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if err := validName("tenant", tenant); err != nil {
		return err
	}
	if err := validShare("tenant "+tenant, share); err != nil {
		return err
	}
	a := r.acct(tenant)
	atomic.StoreUint64(&a.share, math.Float64bits(share))
	a.budg.Store(scaleBudget(a.group.budg.Load(), share))
	return nil
}

// Tenants returns every known tenant's usage, sorted by name — the
// operator's ledger view.
func (r *Registry) Tenants() []Usage {
	var out []Usage
	r.tenants.Range(func(_, v any) bool {
		out = append(out, v.(*tenantAcct).usage())
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Groups returns every group's usage (Group field empty, Tenant holding
// the group name), sorted by name.
func (r *Registry) Groups() []Usage {
	out := make([]Usage, 0, len(r.groups))
	for _, g := range r.groups {
		out = append(out, Usage{
			Tenant:    g.name,
			Share:     g.shareVal(),
			Budget:    g.budg.Load(),
			Used:      g.used.Load(),
			Inflight:  g.inflight.Load(),
			Admitted:  g.admitted.Load(),
			Cancelled: g.cancelled.Load(),
			Rejected:  g.rejected.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
