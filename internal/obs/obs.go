package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Kind is the exposition type of a metric family.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindSummary
)

// String renders the kind as its Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindSummary:
		return "summary"
	}
	return "untyped"
}

// Label is one name="value" pair attached to a sample.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Sample is one exposition line: a metric name (the family name, or the
// family name with a _count/_sum suffix under a summary), its labels and
// the value at scrape time.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// family groups every collector publishing under one metric name.
type family struct {
	name, help string
	kind       Kind
	collectors []func(emit func(Sample))
	seen       map[string]struct{} // static label sets, duplicate-registration guard
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration takes a lock; the instruments handed
// back are lock-free atomics, so instrumented hot paths never contend
// with each other or with scrapes. Dynamic label sets (e.g. one gauge
// per live tenant) register a collector callback instead, sampled once
// per scrape.
//
// A nil *Registry is a valid no-op sink: every New* method returns a
// usable instrument that is simply never scraped, and collector
// registration does nothing. This is what "instrumentation off" means —
// callers write the same code and pass nil.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns the family for name, creating it on first use, and
// panics on a name/kind/help conflict — conflicting registrations are
// programmer errors, caught at startup, not at scrape.
func (r *Registry) family(name, help string, kind Kind) *family {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + name)
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, seen: make(map[string]struct{})}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic("obs: metric " + name + " re-registered with a different kind")
	}
	if f.help != help {
		panic("obs: metric " + name + " re-registered with different help")
	}
	return f
}

// checkLabels validates a static label set and guards against the same
// family+labels being registered twice.
func (f *family) checkLabels(labels []Label) {
	key := renderLabels(labels)
	for _, l := range labels {
		if !validLabelName(l.Name) {
			panic("obs: invalid label name " + l.Name + " on " + f.name)
		}
	}
	if _, dup := f.seen[key]; dup {
		panic("obs: duplicate series " + f.name + key)
	}
	f.seen[key] = struct{}{}
}

// Counter is a monotonically increasing lock-free counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// NewCounter registers and returns a counter with fixed labels.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	if r == nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindCounter)
	f.checkLabels(labels)
	f.collectors = append(f.collectors, func(emit func(Sample)) {
		emit(Sample{Name: name, Labels: labels, Value: float64(c.Value())})
	})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the snapshot-on-scrape shape used to surface counters a
// single-writer loop already publishes through its own atomics.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindCounter)
	f.checkLabels(labels)
	f.collectors = append(f.collectors, func(emit func(Sample)) {
		emit(Sample{Name: name, Labels: labels, Value: float64(fn())})
	})
}

// Gauge is a lock-free gauge over int64 values.
type Gauge struct{ v atomic.Int64 }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NewGauge registers and returns a gauge with fixed labels.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	if r == nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindGauge)
	f.checkLabels(labels)
	f.collectors = append(f.collectors, func(emit func(Sample)) {
		emit(Sample{Name: name, Labels: labels, Value: float64(g.Value())})
	})
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindGauge)
	f.checkLabels(labels)
	f.collectors = append(f.collectors, func(emit func(Sample)) {
		emit(Sample{Name: name, Labels: labels, Value: fn()})
	})
}

// Histogram is a multi-writer exponential histogram: it shares stats'
// bucket geometry (stats.ExpBuckets), each bucket an atomic counter, so any
// number of goroutines may Observe concurrently without locks. It is
// exposed as a Prometheus summary with quantile labels 0.5/0.9/0.99 plus
// _count and _sum, computed from a bucket snapshot at scrape time.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [stats.ExpBuckets]atomic.Uint64
}

// Observe records one sample (negative samples clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[stats.ExpBucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count reads the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot copies the current bucket counters into dst and returns their
// total — the raw material for windowed aggregation: two snapshots taken
// over a stats.SnapRing delta to the exact observation counts between
// them. Like Quantile it is a point-in-time read of the atomics, safe
// against any number of concurrent Observes.
func (h *Histogram) Snapshot(dst *[stats.ExpBuckets]uint64) (total uint64) {
	for b := range h.buckets {
		n := h.buckets[b].Load()
		dst[b] = n
		total += n
	}
	return total
}

// Quantile answers q from a point-in-time snapshot of the buckets; the
// answer is a bucket upper bound, at least the true quantile and less
// than twice it.
func (h *Histogram) Quantile(q float64) int64 {
	var snap [stats.ExpBuckets]uint64
	total := h.Snapshot(&snap)
	return stats.ExpQuantileFromBuckets(&snap, total, q)
}

// histQuantiles are the quantile labels a Histogram exposes.
var histQuantiles = []struct {
	q     float64
	label string
}{{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}}

// NewHistogram registers and returns a histogram with fixed labels,
// exposed as a summary family.
func (r *Registry) NewHistogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{}
	if r == nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindSummary)
	f.checkLabels(labels)
	f.collectors = append(f.collectors, func(emit func(Sample)) {
		var snap [stats.ExpBuckets]uint64
		total := h.Snapshot(&snap)
		for _, hq := range histQuantiles {
			ql := append(append([]Label(nil), labels...), L("quantile", hq.label))
			emit(Sample{Name: name, Labels: ql, Value: float64(stats.ExpQuantileFromBuckets(&snap, total, hq.q))})
		}
		emit(Sample{Name: name + "_count", Labels: labels, Value: float64(total)})
		emit(Sample{Name: name + "_sum", Labels: labels, Value: float64(h.sum.Load())})
	})
	return h
}

// Emitter hands samples out of a Collect callback. Emit publishes under
// the family name; EmitSuffix publishes under name+suffix (for a summary
// family's _count/_sum series).
type Emitter struct {
	fam     string
	samples *[]Sample
}

// Emit appends one sample under the family name.
func (e Emitter) Emit(v float64, labels ...Label) {
	*e.samples = append(*e.samples, Sample{Name: e.fam, Labels: labels, Value: v})
}

// EmitSuffix appends one sample under the family name plus suffix
// (which must be "_count" or "_sum").
func (e Emitter) EmitSuffix(suffix string, v float64, labels ...Label) {
	*e.samples = append(*e.samples, Sample{Name: e.fam + suffix, Labels: labels, Value: v})
}

// Collect registers a dynamic collector for one family: collect is
// invoked on every scrape and may emit any number of samples with
// whatever labels exist at that moment (per-tenant series, per-shard
// quantiles). Collectors must be fast and must not block on the paths
// they observe.
func (r *Registry) Collect(kind Kind, name, help string, collect func(e Emitter)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kind)
	f.collectors = append(f.collectors, func(emit func(Sample)) {
		var buf []Sample
		collect(Emitter{fam: name, samples: &buf})
		for _, s := range buf {
			emit(s)
		}
	})
}

// Gather snapshots every family: collectors run, samples sort into the
// deterministic exposition order (family name, then rendered labels).
// The result is what WritePrometheus renders.
func (r *Registry) Gather() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var out []Sample
	for _, f := range fams {
		start := len(out)
		for _, c := range f.collectors {
			c(func(s Sample) { out = append(out, s) })
		}
		sub := out[start:]
		sort.SliceStable(sub, func(i, j int) bool {
			if sub[i].Name != sub[j].Name {
				return sub[i].Name < sub[j].Name
			}
			return renderLabels(sub[i].Labels) < renderLabels(sub[j].Labels)
		})
	}
	return out
}

// renderLabels renders a label set as {a="x",b="y"} with escaping, or ""
// when empty.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "__name__" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// sampleKey is the duplicate-detection identity of a sample.
func sampleKey(s Sample) string {
	return s.Name + renderLabels(s.Labels)
}
