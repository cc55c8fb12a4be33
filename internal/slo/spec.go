package slo

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/stats"
)

// ErrConfig reports an invalid SLO specification.
var ErrConfig = errors.New("slo: invalid config")

// MaxNameLen bounds objective names: they travel as metric label values
// and over the wire with a one-byte length prefix.
const MaxNameLen = 255

// maxRingBytes bounds the bytes one snapshot ring may hold
// (stats.SnapRing: 8·slots·(1+width), slots = longest window ÷ period
// + 2). At the defaults an objective's ring holds 52 KB and a tracked
// histogram's 191 KB; the cap exists so a typo ("period": "1ms" against a
// 6h window) fails at load, not as a surprise allocation.
const maxRingBytes = 4 << 20

// Signal names what an objective measures. Every signal reduces to a
// (good, total) event pair per window; the differences are only where
// the events come from and what "good" means.
type Signal uint8

const (
	// DeadlineAttainment measures the fraction of deadline-carrying
	// admission decisions that admitted (good) versus rejecting on the
	// deadline. Admission is the decision here — the service promises a
	// start time at admission — so attainment is decided at Admit, not
	// at job completion.
	DeadlineAttainment Signal = iota
	// Slack measures the fraction of admissions whose start-time slack
	// (admitted start − ready time) stayed at or under the objective's
	// Bound. Target is the percentile: "slack ≤ Bound at p99" is
	// Target 0.99.
	Slack
	// ErrorRate measures the admission success rate: good = admissions,
	// total = admissions plus every rejection (capacity, deadline,
	// quota). Target 0.999 tolerates one rejection per thousand
	// requests.
	ErrorRate
)

// String renders the signal as the spec file spells it.
func (s Signal) String() string {
	switch s {
	case DeadlineAttainment:
		return "deadline_attainment"
	case Slack:
		return "slack"
	case ErrorRate:
		return "error_rate"
	}
	return fmt.Sprintf("Signal(%d)", uint8(s))
}

// ParseSignal parses a spec-file signal name.
func ParseSignal(s string) (Signal, error) {
	switch s {
	case "deadline_attainment":
		return DeadlineAttainment, nil
	case "slack":
		return Slack, nil
	case "error_rate":
		return ErrorRate, nil
	default:
		return 0, fmt.Errorf("%w: signal %q (want deadline_attainment, slack or error_rate)", ErrConfig, s)
	}
}

// Sample is one reading of the service the engine judges: cumulative
// counts and bucket vectors, read from published atomics without a
// request to a shard. The service fills one and hands it to Attach and
// to every Tick; the engine keeps none of it past the call.
type Sample struct {
	// Request-level admission decisions, each counted once: admissions
	// and rejections of every kind, then the deadline-carrying
	// admissions and the deadline rejections among them.
	Admitted, Rejected                 uint64
	DeadlineAdmitted, DeadlineRejected uint64
	// TenantDeadline maps each tenant a deadline_attainment objective is
	// scoped to onto its [deadline-admitted, deadline-rejected] counts.
	TenantDeadline map[string][2]uint64
	// Slack is the service-wide start-time slack histogram
	// (obs.Histogram.Snapshot shape), summed over shards.
	Slack [stats.ExpBuckets]uint64
	// LoopTurn is the service-wide turn-latency histogram, meaningful
	// only when TurnsTimed: a service that does not time its turns
	// leaves both zero, and the engine then tracks no turn latency.
	LoopTurn   [stats.ExpBuckets]uint64
	TurnsTimed bool
}

// pair reads an objective's cumulative (good, total) events out of a
// sample: the one place a signal becomes numbers.
func (o Objective) pair(s *Sample) (good, total uint64) {
	switch o.Signal {
	case DeadlineAttainment:
		if o.Tenant != "" {
			c := s.TenantDeadline[o.Tenant]
			return c[0], c[0] + c[1]
		}
		return s.DeadlineAdmitted, s.DeadlineAdmitted + s.DeadlineRejected
	case Slack:
		for _, n := range s.Slack {
			total += n
		}
		return goodUnderBound(&s.Slack, o.Bound), total
	case ErrorRate:
		return s.Admitted, s.Admitted + s.Rejected
	}
	return 0, 0
}

// goodUnderBound counts the samples in an exponential-histogram bucket
// snapshot that are certainly ≤ bound: the buckets whose upper bound
// fits under it. Conservative on the bucket geometry (the effective
// bound is bound rounded down to 2^k−1), it errs toward counting
// borderline samples as bad, never as good.
func goodUnderBound(snap *[stats.ExpBuckets]uint64, bound int64) uint64 {
	var good uint64
	for b := 0; b < stats.ExpBuckets; b++ {
		if stats.ExpBucketUpper(b) > bound {
			break
		}
		good += snap[b]
	}
	return good
}

// Severity is an alert level. The zero value is OK.
type Severity uint8

const (
	OK Severity = iota
	SevWarn
	SevPage
)

// String renders the severity as the spec file and the
// resd_slo_alert_state gauge label it.
func (s Severity) String() string {
	switch s {
	case OK:
		return "ok"
	case SevWarn:
		return "warn"
	case SevPage:
		return "page"
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// ParseSeverity parses "warn" or "page" ("ok" is not a rule severity —
// clearing is the absence of firing rules, not a rule).
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "warn":
		return SevWarn, nil
	case "page":
		return SevPage, nil
	default:
		return 0, fmt.Errorf("%w: severity %q (want warn or page)", ErrConfig, s)
	}
}

// Spec is the declarative SLO configuration — what cmd/resdsrv loads
// from its -slo file.
type Spec struct {
	// Period is the snapshot-and-evaluate cadence ("" = 10s). Every
	// window is answered from snapshots taken at this cadence, so it is
	// also the alerting resolution.
	Period string `json:"period,omitempty"`
	// BudgetWindow is the span the error budget and attainment are
	// reported over ("" = 1h).
	BudgetWindow string `json:"budget_window,omitempty"`
	// Objectives declare what is promised to whom.
	Objectives []ObjectiveSpec `json:"objectives"`
}

// ObjectiveSpec is one declared objective.
type ObjectiveSpec struct {
	// Name identifies the objective in metrics, journal events and
	// telemetry. Required, unique.
	Name string `json:"name"`
	// Signal is "deadline_attainment", "slack" or "error_rate".
	Signal string `json:"signal"`
	// Tenant scopes the objective to one tenant ("" = service-wide).
	// Only deadline_attainment supports tenant scoping; the slack and
	// rejection books per tenant are combiner-owned, not published atomics.
	Tenant string `json:"tenant,omitempty"`
	// Target is the good-event fraction promised, in (0,1): attainment
	// ≥ Target, or for slack the percentile at which the bound must
	// hold. 1−Target is the error budget.
	Target float64 `json:"target"`
	// Bound (slack only) is the slack value, in ticks, that counts as
	// good. Evaluated on the exponential-histogram bucket geometry: a
	// sample is good when its whole bucket is ≤ Bound, so the effective
	// bound is Bound rounded down to the nearest 2^k−1.
	Bound int64 `json:"bound,omitempty"`
	// Rules are the burn-rate alert rules; empty selects DefaultRules.
	Rules []RuleSpec `json:"rules,omitempty"`
}

// RuleSpec is one multi-window burn-rate rule: fire at Severity when
// the burn rate is at least Burn over BOTH the Short and the Long
// window. The long window makes the alert meaningful (sustained burn),
// the short window makes it reset fast once the burn stops.
type RuleSpec struct {
	Severity string  `json:"severity"`
	Burn     float64 `json:"burn"`
	Short    string  `json:"short"`
	Long     string  `json:"long"`
}

// DefaultRules is the Google-SRE-workbook pair used when an objective
// declares none: burning a 30-day budget in under ~2 days pages
// (14.4× sustained over 5m and 1h), burning it in under ~10 days warns
// (3× over 30m and 6h).
var DefaultRules = []RuleSpec{
	{Severity: "page", Burn: 14.4, Short: "5m", Long: "1h"},
	{Severity: "warn", Burn: 3, Short: "30m", Long: "6h"},
}

// Objective is a validated, resolved objective.
type Objective struct {
	Name   string
	Signal Signal
	Tenant string
	Target float64
	Bound  int64
	Rules  []Rule
}

// Rule is a validated, resolved burn-rate rule.
type Rule struct {
	Severity Severity
	Burn     float64
	Short    time.Duration
	Long     time.Duration
}

// resolved is the validated runtime form of a Spec.
type resolved struct {
	period       time.Duration
	budgetWindow time.Duration
	objectives   []Objective
}

func parseSpecDuration(what, s string, def time.Duration) (time.Duration, error) {
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %s %q: %v", ErrConfig, what, s, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("%w: %s %v, need > 0", ErrConfig, what, d)
	}
	return d, nil
}

// normalize validates the spec and resolves durations, signals and
// severities.
func (s Spec) normalize() (resolved, error) {
	var r resolved
	var err error
	if r.period, err = parseSpecDuration("period", s.Period, 10*time.Second); err != nil {
		return r, err
	}
	if r.budgetWindow, err = parseSpecDuration("budget_window", s.BudgetWindow, time.Hour); err != nil {
		return r, err
	}
	if r.budgetWindow < r.period {
		return r, fmt.Errorf("%w: budget_window %v shorter than period %v", ErrConfig, r.budgetWindow, r.period)
	}
	if len(s.Objectives) == 0 {
		return r, fmt.Errorf("%w: no objectives declared", ErrConfig)
	}
	seen := map[string]bool{}
	for _, os := range s.Objectives {
		o, err := os.normalize(r.period)
		if err != nil {
			return r, err
		}
		if seen[o.Name] {
			return r, fmt.Errorf("%w: objective %q declared twice", ErrConfig, o.Name)
		}
		seen[o.Name] = true
		if _, err := r.ringSlots(fmt.Sprintf("objective %q", o.Name), r.longestWindow(o), 2); err != nil {
			return r, err
		}
		r.objectives = append(r.objectives, o)
	}
	return r, nil
}

func (os ObjectiveSpec) normalize(period time.Duration) (Objective, error) {
	var o Objective
	if os.Name == "" {
		return o, fmt.Errorf("%w: objective with empty name", ErrConfig)
	}
	if len(os.Name) > MaxNameLen {
		return o, fmt.Errorf("%w: objective name %q is %d bytes long (max %d)", ErrConfig, os.Name[:16]+"…", len(os.Name), MaxNameLen)
	}
	o.Name = os.Name
	var err error
	if o.Signal, err = ParseSignal(os.Signal); err != nil {
		return o, fmt.Errorf("objective %q: %w", o.Name, err)
	}
	if len(os.Tenant) > MaxNameLen {
		return o, fmt.Errorf("%w: objective %q tenant name %d bytes long (max %d)", ErrConfig, o.Name, len(os.Tenant), MaxNameLen)
	}
	o.Tenant = os.Tenant
	if os.Target <= 0 || os.Target >= 1 || math.IsNaN(os.Target) {
		return o, fmt.Errorf("%w: objective %q target %v outside (0,1)", ErrConfig, o.Name, os.Target)
	}
	o.Target = os.Target
	switch o.Signal {
	case Slack:
		if o.Tenant != "" {
			return o, fmt.Errorf("%w: objective %q: slack objectives are service-wide only (per-tenant slack books are not published atomics)", ErrConfig, o.Name)
		}
		if os.Bound <= 0 {
			return o, fmt.Errorf("%w: objective %q: slack needs bound > 0 (got %d)", ErrConfig, o.Name, os.Bound)
		}
		o.Bound = os.Bound
	default:
		if os.Bound != 0 {
			return o, fmt.Errorf("%w: objective %q: bound is only meaningful for the slack signal", ErrConfig, o.Name)
		}
		if o.Signal == ErrorRate && o.Tenant != "" {
			return o, fmt.Errorf("%w: objective %q: error_rate objectives are service-wide only", ErrConfig, o.Name)
		}
	}
	rules := os.Rules
	if len(rules) == 0 {
		rules = DefaultRules
	}
	for _, rs := range rules {
		rule, err := rs.normalize(o.Name, period)
		if err != nil {
			return o, err
		}
		o.Rules = append(o.Rules, rule)
	}
	return o, nil
}

func (rs RuleSpec) normalize(objective string, period time.Duration) (Rule, error) {
	var rule Rule
	var err error
	if rule.Severity, err = ParseSeverity(rs.Severity); err != nil {
		return rule, fmt.Errorf("objective %q: %w", objective, err)
	}
	if rs.Burn <= 0 || math.IsNaN(rs.Burn) || math.IsInf(rs.Burn, 0) {
		return rule, fmt.Errorf("%w: objective %q rule burn %v, need > 0 and finite", ErrConfig, objective, rs.Burn)
	}
	rule.Burn = rs.Burn
	if rule.Short, err = parseSpecDuration("short window", rs.Short, 0); err != nil || rule.Short == 0 {
		if err == nil {
			err = fmt.Errorf("%w: objective %q rule missing short window", ErrConfig, objective)
		}
		return rule, err
	}
	if rule.Long, err = parseSpecDuration("long window", rs.Long, 0); err != nil || rule.Long == 0 {
		if err == nil {
			err = fmt.Errorf("%w: objective %q rule missing long window", ErrConfig, objective)
		}
		return rule, err
	}
	if rule.Short >= rule.Long {
		return rule, fmt.Errorf("%w: objective %q rule short window %v not shorter than long %v", ErrConfig, objective, rule.Short, rule.Long)
	}
	if rule.Short < period {
		return rule, fmt.Errorf("%w: objective %q rule short window %v shorter than period %v", ErrConfig, objective, rule.Short, period)
	}
	return rule, nil
}

// longestWindow is the longest span asked of o's ring: its rules' long
// windows and the budget window.
func (r resolved) longestWindow(o Objective) time.Duration {
	max := r.budgetWindow
	for _, rule := range o.Rules {
		if rule.Long > max {
			max = rule.Long
		}
	}
	return max
}

// ringSlots sizes a ring of the given width that must answer windows up
// to longest: longest/period + 2 slots (see stats.SnapRing), refused with
// ErrConfig past maxRingBytes.
func (r resolved) ringSlots(what string, longest time.Duration, width int) (int, error) {
	slots := int64(longest/r.period) + 2
	if bytes := float64(slots) * float64(8*(1+width)); bytes > maxRingBytes {
		return 0, fmt.Errorf("%w: %s: window %v at period %v needs %d ring slots of %d values, %.0f bytes (max %d) — raise the period",
			ErrConfig, what, longest, r.period, slots, width, bytes, maxRingBytes)
	}
	return int(slots), nil
}

// ParseSpec decodes a JSON SLO spec, rejecting unknown fields so a
// typo'd key fails loudly instead of silently disabling an alert.
func ParseSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if _, err := s.normalize(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads an SLO spec file (the -slo flag).
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	s, err := ParseSpec(f)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
