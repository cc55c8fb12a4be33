// Package slo turns the service's cumulative observability counters
// into windowed service-level objectives with error-budget burn-rate
// alerting — the measurement layer that answers "what fraction of
// tenant X's admissions met their deadline over the last 5 minutes,
// and are we burning budget fast enough to page?"
//
// # Windowed aggregation without touching the hot path
//
// Everything resd publishes is cumulative: lock-free counters and
// exponential-histogram buckets bumped by the shards' turns and read by
// scrapes. The engine never asks for more, and never asks at all: the
// service fills a Sample — the request-level decision counts, each
// tenant-scoped objective's deadline pair, the merged slack and
// turn-latency bucket vectors — and hands it to Attach once and to Tick
// every Period with the instant. resd does both from the one sampler
// goroutine that also hands the flight recorder's Judge its probes, and
// the engine holds no source, goroutine or clock of its own. At each
// Tick the engine snapshots every objective's (good, total) pair of the
// Sample into a stats.SnapRing; the difference
// between two retained snapshots is the exact event count for the span
// between them, so "the last 5 minutes" is pure arithmetic over copies
// — the same no-request-to-a-shard contract as a /metrics scrape. The
// same ring, at histogram-bucket width, fixes the process-lifetime-only
// caveat on the slack and turn-latency summaries: Attach exposes
// restart-free windowed percentiles as the <name>_window summary family.
//
// # Ring size
//
// A ring keeps only the history asked of it: longest window ÷
// period + 2 snapshots (see stats.SnapRing), each an 8-byte timestamp
// plus 8 bytes per value, in two flat arrays. An objective's ring covers
// its own rules' long windows and the budget window; a tracked
// histogram's covers the budget window, the only span the <name>_window
// family asks of it. Under the defaults (10s period, 1h
// budget window, DefaultRules' 6h warn window) an objective holds
// 2 162 × 24 B ≈ 52 KB and a histogram 362 × 528 B ≈ 191 KB: a
// three-objective engine tracking resd's two histograms holds ≈ 0.51 MiB
// of rings. A ring past 4 MiB is refused with ErrConfig — when the spec
// is validated for an objective, by Attach for a histogram.
//
// # Objectives
//
// Every objective reduces to a (good, total) event pair per window,
// read out of the Sample beside the Signal definitions, with Target the
// promised good fraction and 1−Target the error budget:
//
//   - deadline_attainment — good = deadline-carrying admissions,
//     total = those plus deadline rejections. Admission is the decision
//     being judged: the service promises a start time at Admit, so a
//     deadline rejection is the broken promise, counted the moment it
//     happens. Scopable per tenant.
//   - slack — good = admissions whose start-time slack stayed at or
//     under Bound (evaluated on the exponential bucket geometry, so the
//     effective bound rounds down to 2^k−1); Target is the percentile
//     the bound must hold at. Service-wide only.
//   - error_rate — good = admissions, total = admissions plus every
//     rejection. The coarse "is admission working at all" objective.
//
// # Multi-window multi-burn-rate rules
//
// Burn rate is the error fraction over a window divided by the error
// budget: burning at 1× spends exactly the budget over the budget
// window; at 14.4× a 30-day budget is gone in two days. A rule
//
//	{"severity": "page", "burn": 14.4, "short": "5m", "long": "1h"}
//
// fires only when the burn rate is at or above the threshold over BOTH
// windows — the long window proves the burn is sustained (no paging on
// a blip), the short window proves it is still happening (the alert
// clears quickly once the bleeding stops, instead of paging for the
// rest of the long window). An objective's alert state is the highest
// severity among its firing rules: ok → warn → page, exported as
// resd_slo_alert_state (0/1/2). Objectives that declare no rules get
// DefaultRules, the Google SRE workbook pair (14.4× over 5m∧1h pages,
// 3× over 30m∧6h warns).
//
// A window with no traffic has burned nothing: its error fraction is
// defined as 0, so an idle service never divides by zero and never
// pages — and an alert whose traffic stops clears as its windows
// drain.
//
// Every state transition is journaled into the flight recorder
// (subsys "slo", severity mapped warn→Warn, page→Error, clear→Info),
// raised as a /healthz warning while any objective is non-OK
// (Engine.Warning), and handed to Config.OnAlert — which resdsrv wires
// to the flight recorder's AutoCapture, under the rate limit the
// watchdog's captures share, so a page leaves a diagnostic snapshot
// behind even when nobody is watching.
//
// # Exposition
//
// With a registry, the engine exports (labels objective, plus tenant
// when scoped):
//
//	resd_slo_attainment                     gauge    good fraction over the budget window
//	resd_slo_error_budget_remaining         gauge    unburned budget fraction (negative = overspent)
//	resd_slo_burn_rate{window}              gauge    burn per distinct rule window
//	resd_slo_alert_state                    gauge    0 ok / 1 warn / 2 page
//	resd_slo_alert_transitions_total        counter  state changes since start
//	<hist>_window{quantile}                 summary  windowed percentiles per tracked histogram
//
// The same evaluated states stream over the wire protocol in every Watch
// frame (see internal/reswire), and obscheck -slo
// asserts the families and the alert state from the outside.
package slo
