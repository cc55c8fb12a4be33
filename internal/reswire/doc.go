// Package reswire puts the resd reservation-admission service on the
// network: a length-prefixed binary protocol, a TCP server
// that decodes frames straight into the shards' queues, and a
// pipelining client that multiplexes concurrent callers over a handful of
// connections. Against a service whose admissions wait for no fsync a
// round trip crosses one goroutine boundary, client reader to caller: the
// server's reader finds the shard idle and runs the admission itself, as
// an in-process caller would (two more, to the shard's combiner and back,
// when it does not). With a log that fsyncs there is a second, server
// reader to handler, so that one connection's requests can share an fsync.
//
// # Protocol
//
// Every message is one frame: a uint32 payload length, then a fixed
// header (magic "RW", version, op, uint64 request id) and an op-specific
// body of fixed-width big-endian fields. Responses echo the request id and
// carry a status Code; every non-OK code maps onto one of resd's typed
// errors — REJECTED_DEADLINE arrives as resd.ErrDeadline,
// REJECTED_NEVER_FITS as resd.ErrNeverFits, REJECTED_QUOTA as
// tenant.ErrQuota — so remote callers branch with errors.Is exactly as
// in-process callers do. Each message's layout is written once, in
// wire.go's coder: one walk over the frame's fields in order, which
// appends them when encoding and reads them when decoding, so every rule
// on a field's value (int32 range, name length, share in (0,1], known op
// and code, vector counts, SLO ranges) is stated once and holds both ways —
// the encoder refuses what the decoder refuses. The decoder validates
// magic, version, op, frame bounds (MaxFrame) and vector lengths before
// allocating, never panics on hostile bytes, and requires each frame to be
// consumed exactly; FuzzWireCodec enforces all of that plus canonical
// round-tripping.
//
// There is one revision of the layout, Version (6), and nothing is
// negotiated: a frame with any other version byte fails with ErrVersion,
// the server drops the connection (framing cannot be trusted past a
// frame it could not parse), journals one Warn naming the remote address
// and the byte, and counts it in reswire_frame_errors_total.
// TestGoldenFrames holds the bytes of every op in both directions;
// changing one of them is changing the protocol, and takes a new version
// byte.
//
// The ops:
//
//   - Reserve carries one resd.Request: ready time, width, duration,
//     deadline, a length-prefixed tenant name ("" is the default tenant),
//     the client's send stamp in unix nanoseconds (0 for none) and a flag
//     that forces the admission into the server's trace ring. The reply
//     is the resd.Reservation.
//   - Cancel, Query, Snapshot and Ping are their resd.Service namesakes;
//     a Snapshot reply is the shard's capacity step function as
//     (start, free) segments.
//   - Stats answers one 80-byte entry per shard: the ten fields of
//     resd.ShardStats, p99 slack among them.
//   - QuotaGet and QuotaSet read and re-budget one tenant's share of the
//     server's quota registry at runtime (BAD_REQUEST when the server
//     runs without one).
//   - Watch turns a request into a subscription: the body names a push
//     interval (clamped into [MinWatchInterval, MaxWatchInterval]), and
//     the server answers with an open-ended stream of Telemetry frames.
//
// A Telemetry frame is Seq and Dropped, then one whole resd.NodeSnapshot:
//
//	uint64  Seq, Dropped
//	int32   M, Floor
//	uint32  shard count, then per shard: int32 queue depth + Stats entry
//	uint32  tenant count, then per tenant: name, budget, used, inflight
//	uint32  WAL count, then per log: shard, gen, bytes, records,
//	        fsyncs, snapshots, fsync p99, failures
//	uint64  traces sampled, traces slow
//	uint32  SLO count, then per objective: name, tenant, signal, target,
//	        attainment, budget remaining, peak burn rate, alert state
//
// A family the server runs without — quotas, a log, an SLO engine (see
// internal/slo) — is a zero count, and decodes as nil exactly as
// Service.Node returns it, so a decoded frame equals Node field for
// field. The admission trace ring has no op: its remote reader is the
// observability listener's /debug/flight (internal/flight), which serves
// the newest sampled records beside the journal tail.
//
// The server takes one Service.Node per push, the snapshot /metrics,
// the Stats op and flight bundles render, so a subscriber never waits
// on a shard and sees what a scrape at that instant would; a slow
// subscriber (full push queue, stalled socket) has frames dropped and
// marked — Seq stays monotone and the next delivered frame's Dropped
// field counts the gap — rather than ever back-pressuring the server.
// Subscriptions are capped per connection (CodeBadRequest past the
// limit).
//
// Client.Watch is the subscription's client face: it runs each
// subscription on its own dedicated connection (pushed frames never
// contend with the request/response window) and, when the transport
// fails, redials and resubscribes transparently until its context is
// cancelled or the client closes. Frame Seq restarts after a
// resubscribe, so a consumer that must distinguish "my stream bounced"
// from "the counters moved" watches for the restart — cmd/obscheck's
// -watch mode treats it as a failed check.
//
// # Instrumentation
//
// Both sides can carry obs instrumentation: NewMetrics builds the
// reswire_* families (per-op latency summaries, in-flight gauge, socket
// byte and write counters, frame-error and response-code counters)
// against an obs.Registry, attached via Server.SetMetrics (a client's,
// only in this package's tests); bytes and frames per write are ratios
// of them. The two sides share family names and are kept apart by the
// side label. A nil Metrics — the default — leaves the hot path
// uninstrumented.
//
// # Writing
//
// A connection has one write path, the same type on both sides, and no
// writer goroutine: the goroutine that produced a frame — a client caller,
// a server reader or handler — encodes it onto the connection's pending buffer under
// a mutex, and the first one to ask for a flush becomes the flusher. The
// flusher yields the processor once, so every appender that is runnable
// gets its frame in, swaps the pending buffer for the spare one, writes it
// outside the lock, and repeats while anything more was asked for; frames
// appended during a write leave with the next. Coalescing is therefore a
// property of the structure, not of a queue-draining loop, and a frame
// crosses no goroutine boundary between being produced and being written.
// The writer also keeps an atomic pending flag, set when a frame lands
// in an empty buffer and cleared when the flusher swaps the buffer out:
// frames are waiting for a write that has not started, and a frame
// appended now leaves with them. The client reads it without the lock
// to route calls (see "Client"); nothing else does.
// The two buffers start empty and grow by append; one that a burst pushed
// past 64 KiB is not kept. At 64 KiB pending, appenders wait for the
// write in progress, so a peer that stops reading stalls the reader —
// with an fsyncing log the handlers first, then the reader through the in-flight
// cap — then TCP, while memory stays put. After a write error every later append is a no-op and the
// connection is closed.
//
// The read side grows by need too. Each connection's read buffer starts at
// 4 KiB and doubles, up to 64 KiB, whenever one read of the socket fills
// it; a frame up to 64 KiB grows it to fit and is decoded in place, and
// only a larger one is copied out. A connection that carries a few small
// frames at a time keeps 4 KiB a side.
//
// # Server
//
// The server runs one reader per connection. It decodes frames in place
// from its read buffer and, unless the service keeps a log that fsyncs
// (resd.WALInfo.Syncs), executes each request against the
// resd.Service itself and appends the reply: nothing such a request can
// wait for — a shard another caller is serving this instant — lasts as
// long as handing it to another goroutine and getting the processor back,
// and the requests of one read run back to back on one processor instead
// of being stolen apart. One connection is then served in order by one
// goroutine; a client that wants its requests served in parallel uses
// more connections (Options.Conns), and a slow request (a Snapshot of a
// large shard) is kept out of the way of the rest by a client of its own,
// since the client's calls join whichever connection's write is forming
// (see "Client").
//
// When the service's log fsyncs a request waits for one, and requests
// that wait together share it (a log that never fsyncs, wal.SyncNone,
// costs a turn nothing: nothing worth a goroutine per request). The
// reader then hands each request to a
// handler goroutine that executes it and writes the reply itself.
// Handlers are kept for the life of the connection and reused — as many
// as requests were ever in flight at once, at most 1024; past that the
// reader stops pulling frames — so concurrent requests from one client
// land in the shards' group-commit batches exactly like
// in-process traffic, on stacks that are already grown.
//
// Replies are corked per socket read. The contract: the replies to
// requests that were decoded from the same read of the socket leave in
// one write, when the last of them has answered; a reply waits for
// nothing else — never for a request from a later read, never for a size
// threshold, never for the connection to go idle. (The one exception is
// the 64 KiB bound above, which flushes early, not late.) One read holds
// what the read buffer has room for, so a burst larger than the buffer
// has grown to is answered in as many writes as it took reads, and the
// read that it fills doubles the buffer: growing to 64 KiB costs a
// connection four extra writes at most. What arrived
// together is answered together, which under pipelining makes the reply
// stream as coarse as the request stream, and a request that arrived
// alone is answered alone and at once. With an fsyncing log the head-of-line cost
// is bounded by the slowest request of one read: a client that wants a
// fast op not to wait for a slow one sends them in different writes or on
// different connections; without one, on different connections (with
// this package's Client, different clients). The bookkeeping is one
// counter per read that delivered two or more requests. A reader that
// serves inline has answered every request of a read before it reads
// again, so one counter serves the connection and its wire path allocates
// nothing in steady state; with handlers a read's replies may still be
// owed when the next read arrives, and each such read takes a counter of
// its own.
//
// Watch pushes are not corked and not written by their producers: a
// connection's subscriptions queue them (256 deep) for one goroutine that
// writes them, so a subscriber that stops reading blocks that goroutine
// only, the queue fills, and the subscriptions drop and mark.
//
// # Client
//
// The client spreads callers over Options.Conns connections.
// With Options.Pipeline, each connection allows 256 requests in flight
// (its window); without it, one — the classic write-wait RPC shape, kept
// as the benchmark baseline. bench/'s wire-small measures the gap
// (reswire.pipeline_gain, in its traced run): pipelining is the
// difference between paying one round trip per admission and amortising
// the wire across everything in flight.
//
// A call goes to the first connection whose writer is pending and has a
// free slot in its window, so that it leaves in the write already
// forming there: one read of responses wakes several callers at once,
// and their next calls share one socket write instead of starting one on
// each connection. Failing that, calls go round-robin, to the first
// connection from the one whose turn it is that has a free slot, and only
// when every window is full does a call wait, on the connection whose
// turn it was. The slot is taken as part of the choice, so a call never
// waits on a full window while another connection has room, and a
// connection without pipelining (window 1) is never joined: its one
// request holds its one slot.
//
// The price is head-of-line blocking across callers. A call that joins a
// connection is served after everything ahead of it on that connection —
// by one goroutine, in order, unless the server's log fsyncs — so it can
// land behind a slow request another caller sent there, a Snapshot of a
// large shard say, where round-robin would have sent only its share of
// calls there. Slow requests that fast calls must not wait behind go
// through a client of their own.
//
// The window is a table of slots. A caller takes an idle slot (the table
// grows on demand up to the window, then callers wait), sends its request
// under the id generation<<32 | slot index, and parks on the slot's
// wake-up; the connection's reader decodes each response in place, finds
// the slot by the id's low half and, if the generation in the high half
// is the one parked there, hands the response over and wakes the caller.
// The generation moves on with every call, so ids are never reused while
// an answer could still be on its way, and responses may come back in any
// order. A call allocates nothing, arms no timer and waits on nothing but
// its slot's wake-up: the slot, the wake-up, the response it is handed
// and the write buffers are all reused.
//
// Client.Admit mirrors resd.Service.Admit field for field: the one
// resd.Request struct is the admission vocabulary on both sides of the
// socket. The client stamps each Reserve frame with its send instant, so
// a sampled admission's breakdown starts at the caller, not at the
// server's accept; Request.Trace forces the sample.
//
// Options.CallTimeout T bounds every call end to end: waiting for a slot
// (the one wait that arms a timer, as it is rare), the socket write if the
// caller is the one flushing, and waiting for the response. A parked call
// is due T after it started; one sweeper per connection looks every T/8
// (at least 1 ms) and fails each call past its due with ErrTimeout, so a
// call times out between T and T + T/8. It frees its slot at once; when
// the late response does arrive the reader recognises it by the old
// generation and drops it, so one slow request costs one failed call, not
// a poisoned connection. A socket write is a different matter — a partly
// written frame cannot be taken back — so a write the sweeper finds in
// progress for longer than T fails the connection: every call on it
// returns ErrClientClosed wrapping a "timeout" cause. Zero means no
// timeout and no sweeper. After Close every call fails with
// ErrClientClosed: close wakes every parked call, and a call that starts
// after it never parks.
package reswire
