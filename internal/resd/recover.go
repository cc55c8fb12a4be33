package resd

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// WALInfo summarises what recovery found and did. Zero-valued (Enabled
// false) when the service runs without a WAL.
type WALInfo struct {
	// Enabled reports whether the service writes a WAL; Dir is where.
	Enabled bool
	Dir     string
	// Records is how many log records replay applied across all shards;
	// Snapshots counts shards whose replay was anchored by a snapshot.
	Records   int
	Snapshots int
	// Torn counts shards whose newest log ended in a truncated frame
	// (the normal crash signature); Corrupt counts shards with an
	// invalid frame before the tail (real damage — the suffix was
	// dropped). DroppedBytes totals both kinds of discarded bytes.
	Torn         int
	Corrupt      int
	DroppedBytes int64
	// MovesCommitted and MovesAborted count two-phase migrations that
	// were mid-flight at the crash and were resolved by recovery.
	MovesCommitted, MovesAborted int
	// Replay is how long recovery took, start of scan to shards seeded.
	Replay time.Duration
}

// seq extracts the shard-local sequence number an ID was minted with.
func (id ID) seq() uint64 { return uint64(id) & (1<<(64-shardBits) - 1) }

// shardSeed is one shard's recovered pre-crash state, handed to
// newShard to rebuild the capacity index, books and counters before
// the first request.
type shardSeed struct {
	log     *wal.Log
	nextSeq uint64

	admitted, cancelled, migratedIn, migratedOut uint64

	books    map[string]TenantStats
	live     map[ID]active
	openOuts map[ID]int
	// fixups are records recovery decided but the crash lost (move
	// commits/aborts, open-out acks): appended to the fresh boot
	// generation so the resolution is durable even without snapshots.
	fixups []wal.Record
}

func newShardSeed() *shardSeed {
	return &shardSeed{
		books:    make(map[string]TenantStats),
		live:     make(map[ID]active),
		openOuts: make(map[ID]int),
	}
}

// statKey mirrors shard.tstatKey against the seed's books: replay must
// land every admission in the same (possibly overflow-bounded) book the
// original run used, and both sides resolve names the same way because
// the book set itself is rebuilt in the original order.
func (sd *shardSeed) statKey(name string) string {
	if _, ok := sd.books[name]; ok {
		return name
	}
	if len(sd.books) >= tenant.MaxAccounts {
		return OverflowTenant
	}
	return name
}

// corruptState reports replay arriving at an impossible transition —
// the log itself was CRC-clean, so the records contradict each other.
func corruptState(shard int, format string, args ...any) error {
	return fmt.Errorf("resd: wal replay shard %d: %w: %s", shard, wal.ErrCorrupt, fmt.Sprintf(format, args...))
}

// replayShard rebuilds one shard's state from its snapshot and the
// records after it. Pure bookkeeping: the capacity index is rebuilt
// later, from the surviving live set.
func replayShard(shard int, snap *wal.Snapshot, recs []wal.Record) (*shardSeed, error) {
	sd := newShardSeed()
	if snap != nil {
		sd.nextSeq = snap.NextSeq
		sd.admitted, sd.cancelled = snap.Admitted, snap.Cancelled
		sd.migratedIn, sd.migratedOut = snap.MigratedIn, snap.MigratedOut
		for _, bk := range snap.Books {
			sd.books[bk.Tenant] = TenantStats{
				Active: int(bk.Active), CommittedArea: bk.Area,
				Admitted: bk.Admitted, Cancelled: bk.Cancelled, RejectedQuota: bk.RejectedQuota,
				MigratedIn: bk.MigratedIn, MigratedOut: bk.MigratedOut,
			}
		}
		for _, lv := range snap.Live {
			sd.live[ID(lv.ID)] = active{
				start: core.Time(lv.Start), dur: core.Time(lv.Dur), q: lv.Procs,
				tenant: lv.Tenant, statKey: sd.statKey(lv.Tenant),
				pending: lv.Pending, from: int(lv.From),
			}
		}
		for _, oo := range snap.OpenOuts {
			sd.openOuts[ID(oo.ID)] = int(oo.To)
		}
	}
	for _, rec := range recs {
		if err := sd.apply(shard, rec); err != nil {
			return nil, err
		}
	}
	return sd, nil
}

// apply replays one record, mirroring the shard's apply transitions
// exactly (books, counters, live set — everything but the index).
func (sd *shardSeed) apply(shard int, rec wal.Record) error {
	id := ID(rec.ID)
	switch rec.Type {
	case wal.TAdmit:
		if _, dup := sd.live[id]; dup {
			return corruptState(shard, "admit of live id %#x", rec.ID)
		}
		key := sd.statKey(rec.Tenant)
		a := active{
			start: core.Time(rec.Start), dur: core.Time(rec.Dur), q: rec.Procs,
			tenant: rec.Tenant, statKey: key,
		}
		sd.live[id] = a
		area := int64(a.dur) * int64(a.q)
		bk := sd.books[key]
		bk.Active++
		bk.CommittedArea += area
		bk.Admitted++
		sd.books[key] = bk
		sd.admitted++
		if s := id.seq(); s >= sd.nextSeq {
			sd.nextSeq = s + 1
		}
	case wal.TCancel:
		a, ok := sd.live[id]
		if !ok || a.pending {
			return corruptState(shard, "cancel of unknown id %#x", rec.ID)
		}
		delete(sd.live, id)
		area := int64(a.dur) * int64(a.q)
		bk := sd.books[a.statKey]
		bk.Active--
		bk.CommittedArea -= area
		bk.Cancelled++
		sd.books[a.statKey] = bk
		sd.cancelled++
	case wal.TMigrateIn:
		if _, dup := sd.live[id]; dup {
			return corruptState(shard, "migrate-in of live id %#x", rec.ID)
		}
		sd.live[id] = active{
			start: core.Time(rec.Start), dur: core.Time(rec.Dur), q: rec.Procs,
			tenant: rec.Tenant, statKey: sd.statKey(rec.Tenant),
			pending: true, from: int(rec.Peer),
		}
	case wal.TMigrateOut:
		a, ok := sd.live[id]
		if !ok || a.pending {
			return corruptState(shard, "migrate-out of unknown id %#x", rec.ID)
		}
		delete(sd.live, id)
		area := int64(a.dur) * int64(a.q)
		bk := sd.books[a.statKey]
		bk.Active--
		bk.CommittedArea -= area
		bk.MigratedOut++
		sd.books[a.statKey] = bk
		sd.migratedOut++
		sd.openOuts[id] = int(rec.Peer)
	case wal.TMigrateCommit:
		a, ok := sd.live[id]
		if !ok || !a.pending {
			return corruptState(shard, "migrate-commit without pending id %#x", rec.ID)
		}
		sd.commitPending(id, a)
	case wal.TMigrateAbort:
		a, ok := sd.live[id]
		if !ok || !a.pending {
			return corruptState(shard, "migrate-abort without pending id %#x", rec.ID)
		}
		delete(sd.live, id)
	case wal.TMigrateOutAck:
		delete(sd.openOuts, id)
	default:
		return corruptState(shard, "unknown record type %d", rec.Type)
	}
	return nil
}

// commitPending finalises a pending migrated-in copy in the seed,
// mirroring shard.migrateCommit.
func (sd *shardSeed) commitPending(id ID, a active) {
	a.pending = false
	a.from = 0
	sd.live[id] = a
	area := int64(a.dur) * int64(a.q)
	bk := sd.books[a.statKey]
	bk.Active++
	bk.CommittedArea += area
	bk.MigratedIn++
	sd.books[a.statKey] = bk
	sd.migratedIn++
}

// resolvePending settles every two-phase move the crash left mid-
// flight. A pending migrated-in copy on shard t commits exactly when
// its source shard's open-out names t — proof the source durably
// released the reservation toward t — and aborts otherwise (the source
// either still holds the copy or durably cancelled it). The fsync
// ordering of the move protocol (in durable before out is sent, out
// durable before commit is sent) makes the open-out test sound: the
// answer a crash-free executor would have reached is the one recovery
// reaches. Every resolution (and every stale open-out left by a lost
// ack) is queued as a fixup record so the judgment is durable.
func resolvePending(seeds []*shardSeed) (committed, aborted int) {
	for t, sd := range seeds {
		// Deterministic order, so fixup logs are reproducible.
		ids := make([]ID, 0)
		for id, a := range sd.live {
			if a.pending {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			a := sd.live[id]
			src := a.from
			if src >= 0 && src < len(seeds) {
				if to, open := seeds[src].openOuts[id]; open && to == t {
					sd.commitPending(id, a)
					sd.fixups = append(sd.fixups, wal.Record{Type: wal.TMigrateCommit, ID: uint64(id)})
					delete(seeds[src].openOuts, id)
					seeds[src].fixups = append(seeds[src].fixups, wal.Record{Type: wal.TMigrateOutAck, ID: uint64(id)})
					committed++
					continue
				}
			}
			delete(sd.live, id)
			sd.fixups = append(sd.fixups, wal.Record{Type: wal.TMigrateAbort, ID: uint64(id)})
			aborted++
		}
	}
	// Any open-out still unconsumed is a move whose target committed
	// durably but whose ack was lost (or whose migrated copy has since
	// been cancelled on the target): close it so no future recovery can
	// misread it as an in-flight move.
	for _, sd := range seeds {
		ids := make([]ID, 0, len(sd.openOuts))
		for id := range sd.openOuts {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			delete(sd.openOuts, id)
			sd.fixups = append(sd.fixups, wal.Record{Type: wal.TMigrateOutAck, ID: uint64(id)})
		}
	}
	return committed, aborted
}

// recoverShards runs the whole recovery pipeline: scan each shard's
// durable files, replay, resolve cross-shard moves, open the boot
// generation (appending the resolution fixups), and re-charge the
// quota registry. Returns nil seeds when cfg.WAL is nil.
func recoverShards(cfg Config) ([]*shardSeed, WALInfo, error) {
	var info WALInfo
	if cfg.WAL == nil {
		return nil, info, nil
	}
	begin := time.Now()
	info.Enabled = true
	info.Dir = cfg.WAL.Dir
	journal := cfg.WAL.Journal
	seeds := make([]*shardSeed, cfg.Shards)
	for i := range seeds {
		snap, recs, ri, err := wal.Recover(cfg.WAL.Dir, i)
		if err != nil {
			return nil, info, fmt.Errorf("resd: shard %d: %w", i, err)
		}
		info.Records += ri.Records
		if ri.HasSnapshot {
			info.Snapshots++
		}
		if ri.Torn {
			info.Torn++
			info.DroppedBytes += ri.TornBytes
			// The normal crash signature: an fsync interrupted mid-frame.
			journal.Record(flight.Warn, "resd", i, "wal replay: torn tail dropped",
				flight.KV{K: "bytes", V: fmt.Sprint(ri.TornBytes)})
		}
		if ri.Corrupt {
			info.Corrupt++
			info.DroppedBytes += ri.DroppedBytes
			journal.Record(flight.Error, "resd", i, "wal replay: corrupt frame, suffix dropped",
				flight.KV{K: "bytes", V: fmt.Sprint(ri.DroppedBytes)})
		}
		seeds[i], err = replayShard(i, snap, recs)
		if err != nil {
			return nil, info, err
		}
	}
	info.MovesCommitted, info.MovesAborted = resolvePending(seeds)
	journal.Record(flight.Info, "resd", -1, "wal replay complete",
		flight.KV{K: "records", V: fmt.Sprint(info.Records)},
		flight.KV{K: "snapshots", V: fmt.Sprint(info.Snapshots)},
		flight.KV{K: "torn", V: fmt.Sprint(info.Torn)},
		flight.KV{K: "corrupt", V: fmt.Sprint(info.Corrupt)},
		flight.KV{K: "moves_committed", V: fmt.Sprint(info.MovesCommitted)},
		flight.KV{K: "moves_aborted", V: fmt.Sprint(info.MovesAborted)})
	closeAll := func() {
		for _, sd := range seeds {
			if sd.log != nil {
				sd.log.Close()
			}
		}
	}
	for i, sd := range seeds {
		l, err := wal.Open(i, *cfg.WAL)
		if err != nil {
			closeAll()
			return nil, info, fmt.Errorf("resd: shard %d: %w", i, err)
		}
		sd.log = l
		for _, rec := range sd.fixups {
			if err := l.Append(rec); err != nil {
				closeAll()
				return nil, info, fmt.Errorf("resd: shard %d: %w", i, err)
			}
		}
		if err := l.Commit(); err != nil {
			closeAll()
			return nil, info, fmt.Errorf("resd: shard %d: %w", i, err)
		}
	}
	// Re-charge the quota registry: every surviving reservation holds
	// exactly the budget its original admission acquired. The pre-crash
	// state was legal, so a failure here means the spec shrank under the
	// recovered load — surfaced, not silently dropped.
	if cfg.Quotas != nil {
		for i, sd := range seeds {
			ids := make([]ID, 0, len(sd.live))
			for id := range sd.live {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			for _, id := range ids {
				a := sd.live[id]
				area := int64(a.dur) * int64(a.q)
				if err := cfg.Quotas.Acquire(a.tenant, area); err != nil {
					closeAll()
					return nil, info, fmt.Errorf("resd: shard %d: recovered reservation %#x no longer fits tenant %q's quota: %w",
						i, uint64(id), a.tenant, err)
				}
				cfg.Quotas.Admit(a.tenant)
			}
		}
	}
	info.Replay = time.Since(begin)
	return seeds, info, nil
}

// bootSnapshot captures a seed's state as the snapshot anchoring the
// freshly opened boot generation.
func (sd *shardSeed) bootSnapshot(shard int, gen uint64) *wal.Snapshot {
	return buildSnapshot(shard, gen, sd.nextSeq,
		sd.admitted, sd.cancelled, sd.migratedIn, sd.migratedOut,
		sd.books, sd.live, sd.openOuts)
}

// buildSnapshot assembles a wal.Snapshot from shard-shaped state (used
// both for the boot snapshot and the periodic captures between turns).
func buildSnapshot(shard int, gen, nextSeq uint64,
	admitted, cancelled, migratedIn, migratedOut uint64,
	books map[string]TenantStats, live map[ID]active, openOuts map[ID]int) *wal.Snapshot {
	s := &wal.Snapshot{
		Shard: shard, Gen: gen, NextSeq: nextSeq,
		Admitted: admitted, Cancelled: cancelled,
		MigratedIn: migratedIn, MigratedOut: migratedOut,
	}
	for name, ts := range books {
		s.Books = append(s.Books, wal.TenantBook{
			Tenant: name, Active: int64(ts.Active), Area: ts.CommittedArea,
			Admitted: ts.Admitted, Cancelled: ts.Cancelled, RejectedQuota: ts.RejectedQuota,
			MigratedIn: ts.MigratedIn, MigratedOut: ts.MigratedOut,
		})
	}
	for id, a := range live {
		s.Live = append(s.Live, wal.Live{
			ID: uint64(id), Start: int64(a.start), Dur: int64(a.dur), Procs: a.q,
			Tenant: a.tenant, Pending: a.pending, From: uint32(a.from),
		})
	}
	for id, to := range openOuts {
		s.OpenOuts = append(s.OpenOuts, wal.OpenOut{ID: uint64(id), To: uint32(to)})
	}
	return s
}
