package resd

import (
	"errors"
	"fmt"
	"slices"
	"time"

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
	// Syncs reports whether a turn's log commit fsyncs (wal.SyncBatch),
	// as the shards' logs say of themselves: the case in which requests
	// gain by sharing a turn, and a server by keeping several in flight.
	Syncs bool
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
	// Replay is how long recovery took, start of scan to shards seeded.
	Replay time.Duration
}

// seq extracts the shard-local sequence number an ID was minted with.
func (id ID) seq() uint64 { return uint64(id) & (1<<(64-shardBits) - 1) }

// shardSeed is one shard's recovered pre-crash state, handed to
// newShard to rebuild the capacity index, books and counters before
// the first request. Replay keeps it in plain maps; adoptSeed lays it
// out as the shard's table and cells once the final counts are known.
// The books keep no area: a book's area is the sum of its live records',
// which adoptSeed adds up as it enters them (the snapshot's is saturated,
// so it cannot be trusted to subtract from).
type shardSeed struct {
	log     *wal.Log
	nextSeq uint64

	admitted, cancelled uint64

	books map[string]TenantStats
	live  map[ID]wal.Live
}

// sortedIDs lists the live ids in ascending order: the order recovery
// re-commits and re-charges in, so a failure names the same reservation
// on every run.
func (sd *shardSeed) sortedIDs() []ID {
	ids := make([]ID, 0, len(sd.live))
	for id := range sd.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// shardErr wraps a recovery failure with its shard. For wal.ErrRetired
// the error already names the file (hence the generation) and what it
// holds; what is added is why this build will not read it.
func shardErr(shard int, err error) error {
	if errors.Is(err, wal.ErrRetired) {
		return fmt.Errorf("resd: shard %d: %w — written with the rebalancer, removed in this build; the directory is left as found", shard, err)
	}
	return fmt.Errorf("resd: shard %d: %w", shard, err)
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
	sd := &shardSeed{books: make(map[string]TenantStats), live: make(map[ID]wal.Live)}
	if snap != nil {
		sd.nextSeq = snap.NextSeq
		sd.admitted, sd.cancelled = snap.Admitted, snap.Cancelled
		for _, bk := range snap.Books {
			sd.books[bk.Tenant] = TenantStats{
				Active: int(bk.Active), Admitted: bk.Admitted, Cancelled: bk.Cancelled,
			}
		}
		for _, lv := range snap.Live {
			// An id's shard bits are its home for life, and where Cancel
			// looks. One living elsewhere was migrated there.
			id := ID(lv.ID)
			if id.Shard() != shard {
				return nil, shardErr(shard, fmt.Errorf("generation %d snapshot: %w: live id %#x was admitted by shard %d",
					snap.Gen, wal.ErrRetired, lv.ID, id.Shard()))
			}
			sd.live[id] = lv
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
		sd.live[id] = wal.Live{ID: rec.ID, Start: rec.Start, Dur: rec.Dur, Procs: rec.Procs, Tenant: rec.Tenant}
		key := bookName(sd.books, rec.Tenant)
		bk := sd.books[key]
		bk.Active++
		bk.Admitted++
		sd.books[key] = bk
		sd.admitted++
		if s := id.seq(); s >= sd.nextSeq {
			sd.nextSeq = s + 1
		}
	case wal.TCancel:
		a, ok := sd.live[id]
		if !ok {
			return corruptState(shard, "cancel of unknown id %#x", rec.ID)
		}
		delete(sd.live, id)
		key := bookName(sd.books, a.Tenant)
		bk := sd.books[key]
		bk.Active--
		bk.Cancelled++
		sd.books[key] = bk
		sd.cancelled++
	default:
		return corruptState(shard, "unknown record type %d", rec.Type)
	}
	return nil
}

// recoverShards runs the whole recovery pipeline: scan each shard's
// durable files, replay, open the boot generation, and re-charge the
// quota registry. Every shard is read before any log is opened, so a
// directory refused for its migration state (wal.ErrRetired) gains no
// boot generation. Returns nil seeds when cfg.WAL is nil.
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
			return nil, info, shardErr(i, err)
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
	journal.Record(flight.Info, "resd", -1, "wal replay complete",
		flight.KV{K: "records", V: fmt.Sprint(info.Records)},
		flight.KV{K: "snapshots", V: fmt.Sprint(info.Snapshots)},
		flight.KV{K: "torn", V: fmt.Sprint(info.Torn)},
		flight.KV{K: "corrupt", V: fmt.Sprint(info.Corrupt)})
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
		info.Syncs = l.Syncs()
	}
	// Re-charge the quota registry: every surviving reservation holds
	// exactly the budget its original admission acquired. The pre-crash
	// state was legal, so a failure here means the spec shrank under the
	// recovered load — surfaced, not silently dropped.
	if cfg.Quotas != nil {
		for i, sd := range seeds {
			for _, id := range sd.sortedIDs() {
				a := sd.live[id]
				acct := cfg.Quotas.Account(a.Tenant)
				var why tenant.QuotaError
				if !acct.TryAcquire(tenant.Area(a.Procs, a.Dur), &why) {
					closeAll()
					return nil, info, fmt.Errorf("resd: shard %d: recovered reservation %#x no longer fits tenant %q's quota: %w",
						i, uint64(id), a.Tenant, &why)
				}
				acct.Admit()
			}
		}
	}
	info.Replay = time.Since(begin)
	return seeds, info, nil
}
