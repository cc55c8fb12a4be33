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

// The watchdog's budgets. They are fixed: a test drives Judge at
// explicit instants rather than shrinking them.
const (
	// CheckEvery is the period at which resd's sampler calls Judge.
	CheckEvery = 250 * time.Millisecond
	// StallAfter marks a shard stalled when it has been inside one
	// batch turn — or has left requests queued without a heartbeat —
	// for longer than this.
	StallAfter = 2 * time.Second
	// QueueFullFor marks the node degraded when a shard's request queue
	// has stayed at >= 3/4 capacity for this long: the
	// queue-depth-runaway rule.
	QueueFullFor = time.Second
	// FsyncP99 marks the node degraded when a shard's WAL fsync p99
	// exceeds it.
	FsyncP99 = 100 * time.Millisecond
	// FrameErrorBurst marks the node degraded when the reswire
	// subsystem journals more than this many warn/error events per
	// CheckEvery, averaged over the interval between two Judge calls.
	FrameErrorBurst = 64
)

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

// Sources are the service-side callbacks the bundler and /debug/flight
// read. Either may be nil.
type Sources struct {
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
	// Dir is where diagnostic bundles are written ("" disables bundle
	// capture; the journal and watchdog still run).
	Dir string
}

// Bundle limits: automatic captures, the watchdog's and AutoCapture's
// alike, are suppressed for BundleMinInterval after one fires
// (on-demand captures never are), and Dir keeps the newest BundleKeep
// bundles.
const (
	BundleMinInterval = time.Minute
	BundleKeep        = 8
)

// Recorder is the node's black box: the event journal, the health
// watchdog, and the diagnostic bundler behind one handle. Create it
// with New, hand it to the service (resd.ObsConfig.Flight — the
// service attaches its sources, journals through it and hands Judge its
// shard probes), and mount Handler on the observability mux.
type Recorder struct {
	cfg     Config
	journal *Journal

	state   atomic.Int32
	warnMu  sync.Mutex
	warnMsg string

	src atomic.Pointer[Sources]
	// What Judge carries from one call to the next (Attach resets it):
	// when it last ran, how long each shard's queue has been >= 3/4
	// full, and the frame-error count it last saw. Only Judge's caller
	// touches them.
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
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("flight: %w", err)
		}
	}
	r := &Recorder{
		cfg:      cfg,
		journal:  NewJournal(JournalSize, cfg.Registry),
		queueHot: map[int]time.Duration{},
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

// Attach stores the service's sources for the bundler and
// /debug/flight, and starts Judge's accumulations over. One service per
// recorder: a second Attach replaces the first.
func (r *Recorder) Attach(src Sources) {
	if r == nil {
		return
	}
	r.src.Store(&src)
	r.lastJudge, r.queueHot, r.frameBase = time.Time{}, map[int]time.Duration{}, r.frameErrors()
}

// Detach clears the sources and resets the health state: with no
// service to observe there is nothing to judge. The caller stops
// calling Judge first.
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

// Judge is one pass of the watchdog at now over the shard probes it is
// handed: it judges the node against the budgets, journals a transition,
// captures a bundle when the state worsens, and only then publishes the
// new state. Its inputs are the instant, the probes, the journal's
// frame-error count and what earlier calls left: the time a queue spent
// at >= 3/4 capacity and the frame-error rate are both measured over the
// interval since the previous call, a call with none (the first, or one
// at the same instant) counting as one CheckEvery. One goroutine calls
// Judge at a time — resd's sampler, every CheckEvery, or a test at
// explicit instants.
func (r *Recorder) Judge(now time.Time, probes []ShardProbe) {
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
	for _, p := range probes {
		if !p.BusySince.IsZero() {
			if d := now.Sub(p.BusySince); d > StallAfter {
				note(Stalled, "shard %d stuck inside one batch turn for %v", p.Shard, d.Round(time.Millisecond))
			}
		} else if p.QueueLen > 0 && !p.LastTurn.IsZero() {
			if d := now.Sub(p.LastTurn); d > StallAfter {
				note(Stalled, "shard %d has %d queued requests and no turn for %v", p.Shard, p.QueueLen, d.Round(time.Millisecond))
			}
		}
		if p.QueueCap > 0 && p.QueueLen*4 >= p.QueueCap*3 {
			r.queueHot[p.Shard] += elapsed
			if r.queueHot[p.Shard] >= QueueFullFor {
				note(Degraded, "shard %d queue at %d/%d for %v", p.Shard, p.QueueLen, p.QueueCap, r.queueHot[p.Shard])
			}
		} else {
			r.queueHot[p.Shard] = 0
		}
		if p.FsyncP99 > FsyncP99 {
			note(Degraded, "shard %d wal fsync p99 %v over budget %v", p.Shard, p.FsyncP99.Round(time.Millisecond), FsyncP99)
		}
	}
	window := elapsed
	if window == 0 {
		window = CheckEvery
	}
	cur := r.frameErrors()
	if burst := cur - r.frameBase; burst*uint64(CheckEvery) > FrameErrorBurst*uint64(window) {
		note(Degraded, "%d wire frame errors in %v, over %d per %v", burst, window.Round(time.Millisecond), FrameErrorBurst, CheckEvery)
	}
	r.frameBase = cur

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
			r.autoCapture(now, "watchdog:"+worst.String(), worst, why)
		}
	}
	r.setState(worst, why)
}
