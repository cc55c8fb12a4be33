package flight

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Health is the node health state the watchdog drives:
// healthy → degraded → stalled, and back as conditions clear.
type Health int32

const (
	// Healthy: every budget holds.
	Healthy Health = iota
	// Degraded: a soft budget is blown (queue runaway, fsync p99 over
	// budget, frame-error burst) but the shards make progress.
	Degraded
	// Stalled: a shard has stopped making progress — the
	// α-rule guarantees no longer hold because nothing is admitting.
	Stalled
)

// String renders the state the way /debug/flight and the journal do.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Stalled:
		return "stalled"
	}
	return "unknown"
}

// MarshalJSON encodes the state as its string.
func (h Health) MarshalJSON() ([]byte, error) {
	return []byte(`"` + h.String() + `"`), nil
}

// UnmarshalJSON decodes the state string back.
func (h *Health) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"healthy"`:
		*h = Healthy
	case `"degraded"`:
		*h = Degraded
	default:
		*h = Stalled
	}
	return nil
}

// Budgets are the watchdog's configurable thresholds. Zero fields
// select the defaults; a negative duration or count disables that rule.
type Budgets struct {
	// CheckEvery is the period at which the service calls Judge
	// (default 250ms). It is a period, not a rule: negative is refused.
	CheckEvery time.Duration
	// StallAfter marks a shard stalled when it has been inside one
	// batch turn — or has left requests queued without a heartbeat —
	// for this long (default 2s).
	StallAfter time.Duration
	// QueueFullFor marks the node degraded when a shard's request queue
	// has stayed at >= 3/4 capacity for this long (default 1s): the
	// queue-depth-runaway rule.
	QueueFullFor time.Duration
	// FsyncP99 marks the node degraded when a shard's WAL fsync p99
	// exceeds it (default 100ms).
	FsyncP99 time.Duration
	// FrameErrorBurst marks the node degraded when the reswire
	// subsystem journals more than this many warn/error events inside
	// one check period (default 64).
	FrameErrorBurst int
}

// Watchdog budget defaults.
const (
	DefaultCheckEvery      = 250 * time.Millisecond
	DefaultStallAfter      = 2 * time.Second
	DefaultQueueFullFor    = time.Second
	DefaultFsyncP99        = 100 * time.Millisecond
	DefaultFrameErrorBurst = 64
)

func (b Budgets) normalize() Budgets {
	if b.CheckEvery == 0 {
		b.CheckEvery = DefaultCheckEvery
	}
	if b.StallAfter == 0 {
		b.StallAfter = DefaultStallAfter
	}
	if b.QueueFullFor == 0 {
		b.QueueFullFor = DefaultQueueFullFor
	}
	if b.FsyncP99 == 0 {
		b.FsyncP99 = DefaultFsyncP99
	}
	if b.FrameErrorBurst == 0 {
		b.FrameErrorBurst = DefaultFrameErrorBurst
	}
	return b
}

// ShardProbe is one shard's heartbeat as the watchdog samples it: the
// service publishes LastTurn/BusySince from its batch turns (two
// atomic stores per turn) and the probe reads them lock-free.
type ShardProbe struct {
	Shard int
	// LastTurn is when the shard last completed a batch turn (its
	// creation instant before the first turn; zero = unknown).
	LastTurn time.Time
	// BusySince is when the shard entered the turn it is currently
	// inside (zero = idle between turns).
	BusySince time.Time
	// QueueLen is how many requests wait in the shard's queue; QueueCap
	// is the depth the queue-full budget is judged against (one batch).
	QueueLen, QueueCap int
	// FsyncP99 is the shard WAL's observed p99 fsync latency (0 = no
	// WAL or no fsync yet).
	FsyncP99 time.Duration
}

// Sources are the service-side callbacks Judge reads and the bundler
// snapshots. All may be nil; Shards nil disables the per-shard
// rules (the frame-burst rule still runs off the journal).
type Sources struct {
	// Shards returns every shard's heartbeat probe.
	Shards func() []ShardProbe
	// Traces returns the newest n records of the admission trace ring
	// (n <= 0: all of it) for /debug/flight and bundles.
	Traces func(n int) any
	// Node returns the service's node snapshot (with what WAL replay
	// found) for bundles.
	Node func() any
}

// Config parameterises a Recorder.
type Config struct {
	// Registry receives the recorder's metric families
	// (flight_events_total, resd_health_state, flight_bundles_total).
	// Nil disables metrics.
	Registry *obs.Registry
	// JournalSize is the event ring capacity (0 = DefaultJournalSize).
	JournalSize int
	// Dir is where diagnostic bundles are written ("" disables bundle
	// capture; the journal and watchdog still run).
	Dir string
	// BundleMinInterval rate-limits automatic bundles, the watchdog's
	// and AutoCapture's alike: after one fires, further automatic
	// captures are suppressed for this long (0 =
	// DefaultBundleMinInterval). On-demand captures are never
	// rate-limited.
	BundleMinInterval time.Duration
	// BundleKeep caps how many bundles Dir retains; the oldest are
	// deleted past it (0 = DefaultBundleKeep).
	BundleKeep int
	// Budgets are the watchdog thresholds.
	Budgets Budgets
}

// Bundle retention defaults.
const (
	DefaultBundleMinInterval = time.Minute
	DefaultBundleKeep        = 8
)

// Recorder is the node's black box: the event journal, the health
// watchdog, and the diagnostic bundler behind one handle. Create it
// with New, hand it to the service (resd.ObsConfig.Flight — the
// service attaches its probes, journals through it and calls Judge),
// and mount Handler on the observability mux.
type Recorder struct {
	cfg     Config
	journal *Journal

	state   atomic.Int32
	warnMu  sync.Mutex
	warnMsg string

	src atomic.Pointer[Sources]
	// What Judge carries from one call to the next (Attach resets it):
	// when it last ran, how long each shard's queue has been >= 3/4
	// full, and the frame-error count it last saw.
	lastJudge time.Time
	queueHot  map[int]time.Duration
	frameBase uint64

	// cfgInfo is the effective-config blob bundles embed (SetConfigInfo).
	cfgInfo atomic.Value // any

	bundleMu    sync.Mutex
	bundleSeq   uint64
	lastAuto    time.Time
	written     atomic.Uint64
	rateLimited atomic.Uint64
	failed      atomic.Uint64
}

// New builds the recorder, creates Config.Dir when bundling is
// enabled, and registers the flight metric families.
func New(cfg Config) (*Recorder, error) {
	if cfg.Budgets.CheckEvery < 0 {
		return nil, fmt.Errorf("flight: Budgets.CheckEvery %v is negative", cfg.Budgets.CheckEvery)
	}
	cfg.Budgets = cfg.Budgets.normalize()
	if cfg.BundleMinInterval == 0 {
		cfg.BundleMinInterval = DefaultBundleMinInterval
	}
	if cfg.BundleKeep <= 0 {
		cfg.BundleKeep = DefaultBundleKeep
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("flight: %w", err)
		}
	}
	r := &Recorder{
		cfg:     cfg,
		journal: NewJournal(cfg.JournalSize, cfg.Registry),
	}
	if reg := cfg.Registry; reg != nil {
		reg.GaugeFunc("resd_health_state",
			"Watchdog node health: 0 healthy, 1 degraded, 2 stalled.",
			func() float64 { return float64(r.state.Load()) })
		reg.CounterFunc("flight_bundles_total",
			"Diagnostic bundle captures, by result.",
			r.written.Load, obs.L("result", "written"))
		reg.CounterFunc("flight_bundles_total",
			"Diagnostic bundle captures, by result.",
			r.rateLimited.Load, obs.L("result", "ratelimited"))
		reg.CounterFunc("flight_bundles_total",
			"Diagnostic bundle captures, by result.",
			r.failed.Load, obs.L("result", "failed"))
	}
	return r, nil
}

// Journal returns the recorder's event journal (never nil).
func (r *Recorder) Journal() *Journal {
	if r == nil {
		return nil
	}
	return r.journal
}

// State returns the watchdog's current health judgment.
func (r *Recorder) State() Health {
	if r == nil {
		return Healthy
	}
	return Health(r.state.Load())
}

// Warning returns the human-readable reason the node is not healthy,
// "" when it is — the string /healthz's warn path serves.
func (r *Recorder) Warning() string {
	if r == nil {
		return ""
	}
	r.warnMu.Lock()
	defer r.warnMu.Unlock()
	return r.warnMsg
}

// SetConfigInfo attaches the effective service configuration so
// bundles can embed it (config.json). Any JSON-marshalable value.
func (r *Recorder) SetConfigInfo(v any) {
	if r != nil {
		r.cfgInfo.Store(v)
	}
}

// Attach stores the service's probes for Judge and the bundler and
// returns the period at which the service should call Judge
// (Budgets.CheckEvery). One service per recorder: a second Attach
// replaces the first, and Judge's accumulations start over.
func (r *Recorder) Attach(src Sources) time.Duration {
	if r == nil {
		return 0
	}
	r.src.Store(&src)
	r.lastJudge, r.queueHot, r.frameBase = time.Time{}, map[int]time.Duration{}, r.frameErrors()
	return r.cfg.Budgets.CheckEvery
}

// Detach clears the probes and resets the health state: with no service
// to observe there is nothing to judge. The caller stops calling Judge
// first.
func (r *Recorder) Detach() {
	if r == nil {
		return
	}
	r.src.Store(nil)
	r.setState(Healthy, "")
}

func (r *Recorder) setState(h Health, why string) {
	r.warnMu.Lock()
	r.warnMsg = why
	r.warnMu.Unlock()
	r.state.Store(int32(h))
}

// frameErrors counts the reswire subsystem's warn and error events, the
// frame-error burst rule's input.
func (r *Recorder) frameErrors() uint64 {
	return r.journal.SubsysCount("reswire", Warn) + r.journal.SubsysCount("reswire", Error)
}

// Judge is one pass of the watchdog at now: it reads the attached shard
// probes and the journal's frame-error count, judges the node against
// the budgets, journals a transition, captures a bundle when the state
// worsens, and only then publishes the new state. A queue's time at
// >= 3/4 capacity is the time measured between the Judge calls that saw
// it there. One goroutine calls Judge at a time — resd's sampler, every
// CheckEvery, or a test at explicit instants; without attached probes it
// does nothing.
func (r *Recorder) Judge(now time.Time) {
	src := r.src.Load()
	if src == nil {
		return
	}
	b := r.cfg.Budgets
	var elapsed time.Duration
	if !r.lastJudge.IsZero() && now.After(r.lastJudge) {
		elapsed = now.Sub(r.lastJudge)
	}
	r.lastJudge = now

	worst := Healthy
	var reasons []string
	note := func(h Health, format string, args ...any) {
		if h > worst {
			worst = h
		}
		reasons = append(reasons, fmt.Sprintf(format, args...))
	}
	if src.Shards != nil {
		for _, p := range src.Shards() {
			if !p.BusySince.IsZero() {
				if d := now.Sub(p.BusySince); d > b.StallAfter && b.StallAfter > 0 {
					note(Stalled, "shard %d stuck inside one batch turn for %v", p.Shard, d.Round(time.Millisecond))
				}
			} else if p.QueueLen > 0 && !p.LastTurn.IsZero() && b.StallAfter > 0 {
				if d := now.Sub(p.LastTurn); d > b.StallAfter {
					note(Stalled, "shard %d has %d queued requests and no turn for %v", p.Shard, p.QueueLen, d.Round(time.Millisecond))
				}
			}
			if b.QueueFullFor > 0 && p.QueueCap > 0 && p.QueueLen*4 >= p.QueueCap*3 {
				r.queueHot[p.Shard] += elapsed
				if r.queueHot[p.Shard] >= b.QueueFullFor {
					note(Degraded, "shard %d queue at %d/%d for %v", p.Shard, p.QueueLen, p.QueueCap, r.queueHot[p.Shard])
				}
			} else {
				r.queueHot[p.Shard] = 0
			}
			if b.FsyncP99 > 0 && p.FsyncP99 > b.FsyncP99 {
				note(Degraded, "shard %d wal fsync p99 %v over budget %v", p.Shard, p.FsyncP99.Round(time.Millisecond), b.FsyncP99)
			}
		}
	}
	if b.FrameErrorBurst > 0 {
		cur := r.frameErrors()
		if burst := cur - r.frameBase; burst > uint64(b.FrameErrorBurst) {
			note(Degraded, "%d wire frame errors inside one %v window", burst, b.CheckEvery)
		}
		r.frameBase = cur
	}

	// Only Judge writes the state while attached, so the transition is
	// judged here and published last: a reader that sees a worsened state
	// finds its journal entry and its bundle already written.
	old := r.State()
	why := strings.Join(reasons, "; ")
	if worst != old {
		sev := Info
		if worst > Healthy {
			sev = Warn
		}
		msg := "health state changed"
		if worst == Healthy {
			msg = "health recovered"
		}
		r.journal.Record(sev, "flight", -1, msg,
			KV{"from", old.String()}, KV{"to", worst.String()}, KV{"why", why})
		if worst > old {
			r.autoCapture("watchdog:"+worst.String(), worst, why)
		}
	}
	r.setState(worst, why)
}
