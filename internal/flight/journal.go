package flight

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Severity classifies a journal event.
type Severity uint8

const (
	// Info records normal-but-notable lifecycle moments (replay
	// verdicts, snapshot rotations).
	Info Severity = iota
	// Warn records conditions the service absorbed but an operator
	// should know about (torn WAL tails, slow consumers).
	Warn
	// Error records damage: a shard degraded to non-durable, corrupt
	// records dropped, a snapshot write that failed.
	Error

	sevCount = 3
)

// String renders the severity the way the exposition labels it.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return "unknown"
}

// MarshalJSON encodes the severity as its label string, so journal
// dumps (bundles, /debug/flight) read without a decoder table.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// KV is one structured key/value pair attached to an event.
type KV struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Event is one journal record. Wall is the wall-clock stamp (for
// humans correlating with external logs); Mono is the offset from the
// journal's creation on the monotonic clock (for ordering and
// intervals that survive wall-clock jumps). Shard is -1 for node-wide
// events; Tenant is empty unless the event concerns one tenant.
type Event struct {
	Seq    uint64        `json:"seq"`
	Wall   time.Time     `json:"wall"`
	Mono   time.Duration `json:"mono_ns"`
	Sev    Severity      `json:"sev"`
	Subsys string        `json:"subsys"`
	Shard  int           `json:"shard"`
	Tenant string        `json:"tenant,omitempty"`
	Msg    string        `json:"msg"`
	KV     []KV          `json:"kv,omitempty"`
}

// Journal is the bounded structured event journal: a mutex-protected
// ring of typed records plus lock-free per-severity counters, mirrored
// into an obs registry as flight_events_total{severity}. Event rates
// are operational (replays, rotations, damage), not per-request, so
// one short critical section per event is cheap; readers (Tail, the
// HTTP surface, bundles) copy out under the same mutex.
//
// Every method is safe on a nil *Journal and from any goroutine, so
// hook sites record unconditionally.
type Journal struct {
	start time.Time // creation instant; carries the monotonic reading

	seq    atomic.Uint64
	counts [sevCount]atomic.Uint64
	// perSub counts events per (subsystem, severity) — the watchdog's
	// frame-error-burst rule reads reswire's cells as deltas.
	perSub sync.Map // string → *[sevCount]atomic.Uint64

	mu   sync.Mutex
	ring []Event
	next int
	full bool
}

// JournalSize is the ring capacity of a Recorder's journal.
const JournalSize = 1024

// NewJournal builds a journal with the given ring capacity (<= 0
// selects JournalSize). With a non-nil registry the per-severity
// totals are registered as flight_events_total{severity}.
func NewJournal(size int, reg *obs.Registry) *Journal {
	if size <= 0 {
		size = JournalSize
	}
	j := &Journal{start: time.Now(), ring: make([]Event, size)}
	if reg != nil {
		for sev := Severity(0); sev < sevCount; sev++ {
			sev := sev
			reg.CounterFunc("flight_events_total",
				"Flight-journal events recorded, by severity.",
				j.counts[sev].Load, obs.L("severity", sev.String()))
		}
	}
	return j
}

// Record appends one event. kv values are retained as passed — callers
// hand over ownership of the slice.
func (j *Journal) Record(sev Severity, subsys string, shard int, msg string, kv ...KV) {
	j.RecordEvent(Event{Sev: sev, Subsys: subsys, Shard: shard, Msg: msg, KV: kv})
}

// RecordEvent appends ev, filling Seq, Wall and Mono. Use it over
// Record when the event carries a tenant.
func (j *Journal) RecordEvent(ev Event) {
	if j == nil {
		return
	}
	if ev.Sev >= sevCount {
		ev.Sev = Error
	}
	now := time.Now()
	ev.Seq = j.seq.Add(1)
	ev.Wall = now
	ev.Mono = now.Sub(j.start)
	j.counts[ev.Sev].Add(1)
	j.subCell(ev.Subsys)[ev.Sev].Add(1)
	j.mu.Lock()
	j.ring[j.next] = ev
	j.next++
	if j.next == len(j.ring) {
		j.next, j.full = 0, true
	}
	j.mu.Unlock()
}

func (j *Journal) subCell(subsys string) *[sevCount]atomic.Uint64 {
	if v, ok := j.perSub.Load(subsys); ok {
		return v.(*[sevCount]atomic.Uint64)
	}
	v, _ := j.perSub.LoadOrStore(subsys, new([sevCount]atomic.Uint64))
	return v.(*[sevCount]atomic.Uint64)
}

// Count reports how many events of one severity have ever been
// recorded (including ones the ring has since overwritten).
func (j *Journal) Count(sev Severity) uint64 {
	if j == nil || sev >= sevCount {
		return 0
	}
	return j.counts[sev].Load()
}

// SubsysCount reports the per-subsystem total for one severity.
func (j *Journal) SubsysCount(subsys string, sev Severity) uint64 {
	if j == nil || sev >= sevCount {
		return 0
	}
	if v, ok := j.perSub.Load(subsys); ok {
		return v.(*[sevCount]atomic.Uint64)[sev].Load()
	}
	return 0
}

// Tail copies out the newest events, oldest first, up to max (<= 0
// returns the whole ring). Nil journal returns nil.
func (j *Journal) Tail(max int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.next
	if j.full {
		n = len(j.ring)
	}
	out := make([]Event, 0, n)
	if j.full {
		out = append(out, j.ring[j.next:]...)
	}
	out = append(out, j.ring[:j.next]...)
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Queue is a bounded non-blocking dispatcher: callers offer callbacks
// with Dispatch, a single consumer goroutine runs them in order, and a
// full queue drops the callback (counted) instead of blocking the
// caller. It exists so hot-path hooks — the resd SlowLog callback in
// particular — can hand work to arbitrary user code without that code
// ever being able to stall an admission.
type Queue struct {
	mu      sync.RWMutex
	closed  bool
	ch      chan func()
	dropped atomic.Uint64
}

// DefaultQueueDepth is the buffer size when NewQueue is given <= 0.
const DefaultQueueDepth = 256

// NewQueue starts the consumer goroutine and returns the queue.
func NewQueue(depth int) *Queue {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	q := &Queue{ch: make(chan func(), depth)}
	go func() {
		for fn := range q.ch {
			fn()
		}
	}()
	return q
}

// Dispatch offers fn to the consumer without blocking. It reports
// whether fn was accepted; a full or closed queue drops it and counts
// the drop. Safe on a nil queue (always a drop).
func (q *Queue) Dispatch(fn func()) bool {
	if q == nil {
		return false
	}
	q.mu.RLock()
	defer q.mu.RUnlock()
	if !q.closed {
		select {
		case q.ch <- fn:
			return true
		default:
		}
	}
	q.dropped.Add(1)
	return false
}

// Dropped reports how many callbacks were dropped (queue full or
// closed).
func (q *Queue) Dropped() uint64 {
	if q == nil {
		return 0
	}
	return q.dropped.Load()
}

// Close stops accepting callbacks. Already-queued callbacks still run;
// Close does not wait for them (a consumer wedged inside a slow
// callback must not be able to wedge shutdown — the same contract that
// motivates the queue).
func (q *Queue) Close() {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.ch)
}
