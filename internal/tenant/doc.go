// Package tenant is the multi-tenant quota ledger that sits in front of
// shard admission in internal/resd: per-tenant budgets denominated in
// area of the reservable α-prefix, with lock-free accounting on the
// admission path.
//
// # Why budgets, and what they are fractions of
//
// The paper's α rule bounds how much of the machine prefix reservations
// may occupy — every shard keeps ⌊α·m⌋ processors free of reservations at
// all times — but it is a single global knob: one aggressive caller can
// fill the entire reservable prefix and starve everyone else while
// staying perfectly α-legal. Production reservation schedulers therefore
// partition the reservable capacity per tenant (Volcano's queue/quota
// model, per-task reservation budgets in federated real-time scheduling),
// and this package does the same for resd.
//
// The unit of account is area: processors × ticks, exactly what a
// reservation of q processors for d ticks consumes. The global capacity
// is the area of the α-prefix over the service's accounting horizon,
//
//	capacity = shards × (m − ⌊α·m⌋) × horizon,
//
// and a tenant's budget is its share of it. The budget composes with —
// never replaces — the paper's α rule: the shard still finds slots for
// q+⌊α·m⌋ processors, so the job-stream guarantee of §4.2 is intact;
// quotas only decide which tenant gets to spend the prefix the α rule
// left reservable.
//
// # Enforcement
//
// Budgets are one level deep: every tenant owns a share of the capacity.
// Tenants not named in the Spec are created on first sight with the
// spec's DefaultShare — in particular the DefaultTenant, where every
// unattributed request (a tenantless API call or wire frame) is
// accounted.
//
// A caller resolves a name once, with Registry.Account, and works on the
// *Account it gets back: the tenant's own account, or past MaxAccounts the
// default tenant's. The handle answers two questions. Check is read-only:
// does the area fit what is left of the budget now? resd asks it at the
// door, before any shard is asked, so a request the budget already
// refuses costs no shard turn. TryAcquire charges: because the charge is
// a CAS that checks before it adds, used ≤ budget holds at every instant
// no matter how many shards' combiners race — the conservation property
// the stress tests pin under -race — and a request that passed Check can
// still lose the room to a concurrent one here. Both compare area >
// budget − used, which cannot overflow, and both count a refusal in
// Usage.Rejected, so each refused request is counted once. Admit,
// Release and Rollback balance a successful charge. Area computes the
// charge for q processors over d ticks, saturating at math.MaxInt64, so
// an endless reservation never wraps into a credit. Registry.Acquire,
// Admit and Release are the same operations by name. Admissions within
// budget are served in arrival order; the ledger never reorders a
// shard's turn.
//
// Accounting is lock-free on the admission path: tenant lookup is a
// sync.Map read and every counter is an atomic, mirroring how the shards
// publish their load summaries. Creating an account is the only
// operation that takes a lock.
package tenant
