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
	// ErrQuota reports an admission refused because it would push a
	// tenant past its budgeted share of the reservable α-prefix. It is a
	// sentinel: errors.Is(err, ErrQuota) works through every wrapping
	// layer, including across the wire (reswire maps it onto the
	// REJECTED_QUOTA code).
	ErrQuota = errors.New("tenant: quota exceeded")
	// ErrConfig reports an invalid quota specification or re-budget (bad
	// share, bad mode, duplicate names, a name with no account).
	ErrConfig = errors.New("tenant: invalid quota config")
)

// DefaultTenant is the tenant every unattributed request is accounted to:
// an admission whose Request names no tenant lands here, in process and
// over the wire alike.
const DefaultTenant = "default"

// MaxNameLen bounds tenant names; the wire protocol carries names with a
// one-byte length.
const MaxNameLen = 255

// MaxAccounts bounds how many distinct tenant accounts a registry will
// materialise. Declared tenants always fit (a Spec is operator-written);
// the cap exists for runtime discovery, where every Reserve or QuotaSet
// frame may name a fresh tenant: without it, an unauthenticated client
// cycling random names could grow the server's memory without limit.
// Past the cap, unknown names alias to the default tenant's account —
// admissions stay correct (they are bounded by the default budget and
// balanced by the same alias on Cancel), only per-name attribution
// degrades. SetShare never aliases: it refuses such a name.
const MaxAccounts = 1 << 16

// Account is one tenant's budget and books: the handle Registry.Account
// resolves a name to, so that a caller who charges, admits and releases
// looks the name up once. All fields the admission path touches are
// atomics, so shard combiners on different goroutines acquire and release
// concurrently without locks.
type Account struct {
	name  string
	share uint64       // math.Float64bits of the share of the capacity
	budg  atomic.Int64 // resolved area budget (share × capacity)
	used  atomic.Int64 // admitted area currently held

	inflight  atomic.Int64 // currently held reservations
	admitted  atomic.Uint64
	cancelled atomic.Uint64
	rejected  atomic.Uint64 // quota refusals
}

// Usage is a point-in-time view of one tenant's quota state, as QuotaGet
// reports it over the wire.
type Usage struct {
	// Tenant names the account.
	Tenant string
	// Share is the tenant's fraction of the registry's capacity.
	Share float64
	// Budget is the resolved area budget (processor·ticks).
	Budget int64
	// Used is the admitted area currently held.
	Used int64
	// Inflight is the number of currently held reservations.
	Inflight int64
	// Admitted, Cancelled and Rejected count operations since start
	// (Rejected counts quota refusals only).
	Admitted, Cancelled, Rejected uint64
}

// Registry is the quota ledger the admission service consults:
// per-tenant shares of a global reservable-area capacity, with lock-free
// accounting on the admission path. Construct with New; all methods are
// safe for concurrent use.
//
// The capacity is the area of the reservable α-prefix the service
// exposes (shards × (m−⌊α·m⌋) × accounting horizon), and a tenant's
// budget is its share of it. An admission that would take a tenant past
// its budget is refused.
type Registry struct {
	capacity     int64
	defaultShare float64

	// tenants grows lazily, so lookups on the admission path use
	// sync.Map's lock-free read fast path. nAccounts (guarded by mkMu)
	// enforces MaxAccounts.
	tenants   sync.Map // string → *Account
	mkMu      sync.Mutex
	nAccounts int
}

// New builds a registry enforcing spec against the given global capacity:
// the reservable α-prefix area, in processor·ticks, that all budgets are
// fractions of. The service computes it as shards × (m − ⌊α·m⌋) ×
// horizon for its accounting horizon.
func New(capacity int64, spec Spec) (*Registry, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	if capacity < 1 {
		return nil, fmt.Errorf("%w: capacity %d, need >= 1", ErrConfig, capacity)
	}
	r := &Registry{capacity: capacity, defaultShare: spec.DefaultShare}
	for _, t := range spec.Tenants {
		r.open(t.Name, t.Share)
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

// Capacity returns the global reservable-area capacity budgets are
// fractions of.
func (r *Registry) Capacity() int64 { return r.capacity }

// setShare stores share and the budget it resolves to.
func (a *Account) setShare(share float64, capacity int64) {
	atomic.StoreUint64(&a.share, math.Float64bits(share))
	a.budg.Store(min(max(int64(share*float64(capacity)), 0), capacity))
}

// open creates the tenant's account at share. The caller holds mkMu, or
// is New before the registry is shared.
func (r *Registry) open(name string, share float64) *Account {
	a := &Account{name: name}
	a.setShare(share, r.capacity)
	r.tenants.Store(name, a)
	r.nAccounts++
	return a
}

// own returns the tenant's own account, creating it with the default
// share on first sight. The common case — an existing tenant — is one
// lock-free sync.Map read. It returns false for a name that has no
// account when MaxAccounts are already open.
func (r *Registry) own(name string) (*Account, bool) {
	if v, ok := r.tenants.Load(name); ok {
		return v.(*Account), true
	}
	r.mkMu.Lock()
	defer r.mkMu.Unlock()
	if v, ok := r.tenants.Load(name); ok {
		return v.(*Account), true
	}
	if r.nAccounts >= MaxAccounts && name != DefaultTenant {
		return nil, false
	}
	return r.open(name, r.defaultShare), true
}

// Account returns the account the tenant is charged to: its own (created
// with the default share on first sight), or past MaxAccounts the default
// tenant's (see the MaxAccounts comment). The answer for a name never
// changes, since accounts are never removed, so a caller may keep the
// handle for as long as it likes.
func (r *Registry) Account(name string) *Account {
	if name == "" {
		name = DefaultTenant
	}
	if a, ok := r.own(name); ok {
		return a
	}
	a, _ := r.own(DefaultTenant)
	return a
}

// QuotaError is a refusal as a value: whose budget said no and by how
// much. It matches ErrQuota under errors.Is; the text is rendered only
// when somebody asks for it.
type QuotaError struct {
	// Name is the tenant that asked.
	Name string
	// Used and Budget are the tenant's figures at the refusal.
	Used, Budget int64
	// Area is what the request would have added.
	Area int64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("%v: tenant %q used %d of %d with request area %d",
		ErrQuota, e.Name, e.Used, e.Budget, e.Area)
}

// Unwrap makes errors.Is(err, ErrQuota) hold.
func (e *QuotaError) Unwrap() error { return ErrQuota }

// Area is the area, in processor·ticks, of q processors held for d
// ticks: the unit budgets are counted in. It saturates at math.MaxInt64
// rather than wrapping, so an endless reservation costs more than any
// budget can hold instead of crediting one.
func Area(q int, d int64) int64 {
	if q > 0 && d > math.MaxInt64/int64(q) {
		return math.MaxInt64
	}
	return int64(q) * d
}

// refuse counts a refusal and fills *why with the figures that made it.
func (a *Account) refuse(used, budget, area int64, why *QuotaError) {
	a.rejected.Add(1)
	*why = QuotaError{Name: a.name, Used: used, Budget: budget, Area: area}
}

// Check reports whether area would fit the budget now, charging nothing:
// the read-only question a caller asks before it spends work on a request
// the budget already refuses. On false it counts the refusal and *why
// holds the figures. A true answer promises nothing — only TryAcquire
// charges, and another caller may spend the room first.
func (a *Account) Check(area int64, why *QuotaError) bool {
	u, b := a.used.Load(), a.budg.Load()
	if area > b-u {
		a.refuse(u, b, area, why)
		return false
	}
	return true
}

// TryAcquire charges area (processor·ticks) to the account ahead of a
// commit. On false it charges nothing, counts the refusal and *why holds
// the figures. The CAS loop is the whole enforcement mechanism: because
// the add is conditional and atomic, used ≤ budget holds at every instant
// no matter how many shards race. The room is compared as area >
// budget − used, which cannot overflow where used + area could. Every
// true must be balanced by exactly one Admit+Release pair or one
// Rollback.
func (a *Account) TryAcquire(area int64, why *QuotaError) bool {
	for {
		u, b := a.used.Load(), a.budg.Load()
		if area > b-u {
			a.refuse(u, b, area, why)
			return false
		}
		if a.used.CompareAndSwap(u, u+area) {
			return true
		}
	}
}

// Rollback returns a TryAcquire that never became an admission (the
// commit failed downstream of the charge).
func (a *Account) Rollback(area int64) { a.used.Add(-area) }

// Admit records that a TryAcquire became a held reservation.
func (a *Account) Admit() {
	a.inflight.Add(1)
	a.admitted.Add(1)
}

// Release returns a held reservation's area on Cancel.
func (a *Account) Release(area int64) {
	a.used.Add(-area)
	a.inflight.Add(-1)
	a.cancelled.Add(1)
}

// Acquire is the tenant's TryAcquire by name, the refusal as an error: a
// *QuotaError, which matches ErrQuota.
func (r *Registry) Acquire(tenant string, area int64) error {
	var why QuotaError
	if r.Account(tenant).TryAcquire(area, &why) {
		return nil
	}
	e := why // copied on this path only, so a successful Acquire allocates nothing
	return &e
}

// Admit is the tenant's Admit by name.
func (r *Registry) Admit(tenant string) { r.Account(tenant).Admit() }

// Release is the tenant's Release by name.
func (r *Registry) Release(tenant string, area int64) { r.Account(tenant).Release(area) }

// Usage reports the tenant's current quota state. It opens no account: a
// name without one reads as the fresh account its first admission would
// open, or past MaxAccounts as the default tenant it would alias to
// (Account).
func (r *Registry) Usage(tenant string) Usage {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if v, ok := r.tenants.Load(tenant); ok {
		return v.(*Account).usage()
	}
	r.mkMu.Lock()
	full := r.nAccounts >= MaxAccounts
	r.mkMu.Unlock()
	if full && tenant != DefaultTenant {
		return r.Usage(DefaultTenant)
	}
	a := Account{name: tenant}
	a.setShare(r.defaultShare, r.capacity)
	return a.usage()
}

func (a *Account) usage() Usage {
	return Usage{
		Tenant:    a.name,
		Share:     math.Float64frombits(atomic.LoadUint64(&a.share)),
		Budget:    a.budg.Load(),
		Used:      a.used.Load(),
		Inflight:  a.inflight.Load(),
		Admitted:  a.admitted.Load(),
		Cancelled: a.cancelled.Load(),
		Rejected:  a.rejected.Load(),
	}
}

// SetShare re-budgets a tenant at runtime (the QuotaSet wire op): its
// share of the capacity becomes share ∈ (0,1]. A share below the
// tenant's current usage is allowed — nothing is evicted, but admissions
// fail until usage drains under the new budget. A name that has no
// account once MaxAccounts are open is refused with ErrConfig, so that
// re-budgeting it cannot touch the default tenant it would alias to.
func (r *Registry) SetShare(tenant string, share float64) error {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if err := validName(tenant); err != nil {
		return err
	}
	if err := validShare("tenant "+tenant, share); err != nil {
		return err
	}
	a, ok := r.own(tenant)
	if !ok {
		return fmt.Errorf("%w: tenant %q has no account and the registry holds its maximum of %d", ErrConfig, tenant, MaxAccounts)
	}
	a.setShare(share, r.capacity)
	return nil
}

// Tenants returns every known tenant's usage, sorted by name — the
// operator's ledger view.
func (r *Registry) Tenants() []Usage {
	var out []Usage
	r.tenants.Range(func(_, v any) bool {
		out = append(out, v.(*Account).usage())
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
