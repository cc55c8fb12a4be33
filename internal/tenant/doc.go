// Package tenant is the multi-tenant quota and fair-share subsystem that
// sits in front of shard admission in internal/resd: a ledger of
// per-tenant budgets denominated in area of the reservable α-prefix, with
// lock-free accounting on the admission path and two enforcement modes.
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
// and every budget is a fraction of it. The per-tenant budget composes
// with — never replaces — the paper's α rule: the shard still finds slots
// for q+⌊α·m⌋ processors, so the job-stream guarantee of §4.2 is intact;
// quotas only decide which tenant gets to spend the prefix the α rule
// left reservable.
//
// # The hierarchy
//
// Budgets form three levels: global capacity → group → tenant. A group
// owns a share of the capacity, a tenant a share of its group, and an
// admission must fit under both its tenant's and its group's budget, so a
// group of many individually-under-budget tenants is still collectively
// bounded. Tenants not named in the Spec are created on first sight under
// the default group with the spec's DefaultShare — in particular the
// DefaultTenant, where every unattributed request (tenantless API calls,
// version-1 wire frames) is accounted.
//
// # Enforcement modes
//
//   - Hard: Acquire fails with ErrQuota when the admission would push the
//     tenant or its group past its budget. Because the charge is a CAS
//     that checks before it adds, used ≤ budget holds at every instant no
//     matter how many shards' combiners race — the conservation property
//     the stress tests pin under -race.
//   - Soft: nothing is rejected; budgets instead weight fair-share
//     ordering. When the prefix is contended — several Reserve requests
//     ride one shard group-commit batch — the shard serves them lowest
//     usage-to-budget ratio first (the larger of the tenant's and its
//     group's ratio), DRF-style, so a tenant far under its share overtakes
//     one far over it, and earlier (cheaper) start times flow to the
//     underserved tenant.
//
// Accounting is lock-free on the admission path: tenant lookup is a
// sync.Map read and every counter is an atomic, mirroring how the shards
// publish their load summaries. Registry construction and SetShare (the
// wire QuotaSet op) are the only synchronised operations.
package tenant
