// Package wal is the durability layer under internal/resd: an
// append-only, CRC-framed, per-shard log of admission-affecting
// decisions, group-committed with the shard's batch turn so one fsync
// covers a whole batch, plus periodic snapshots that truncate the log
// and a recovery scanner that rebuilds the pre-crash record stream.
//
// The package is deliberately mechanism, not policy: it knows how to
// frame, sync, rotate, snapshot and re-read records, while the meaning
// of each record — how an admit changes a capacity index, which book
// a cancel credits — lives with the service that owns the state
// (internal/resd). That keeps the format free of resd types and
// testable in isolation.
//
// # File layout
//
// Every shard owns a generation-numbered family of files in the WAL
// directory:
//
//	shard-<shard>.<gen>.wal    log segment (append-only records)
//	shard-<shard>.<gen>.snap   snapshot of the state at gen's start
//
// Generations increase monotonically. A snapshot at generation G
// captures the effect of every record in generations < G, so recovery
// is: load the newest valid snapshot (gen G), then replay every log
// segment with gen >= G in ascending order. Segments older than a
// durable snapshot are deleted by the snapshot writer. So a snapshot
// that fails validation is skipped for an older anchor (an older
// snapshot, or the empty state before generation 0) only while every
// segment from that anchor to it is still there, as after a crash
// between the rename and the deletion (ReplayInfo.BadSnapshots);
// otherwise what it held is nowhere else, and Recover fails with
// ErrCorrupt, naming the file.
//
// A segment is written through a shared file mapping, one preallocated
// chunk at a time: Append copies each frame into the page cache, where it
// survives a process crash, mapping the next chunk when one fills (a
// frame may straddle two), and an fsync under SyncBatch writes the
// dirtied pages back. A log's first chunk is 64 KiB and each next one
// doubles, up to 4 MiB; a segment that Rotate opens starts at the size its
// predecessor reached. So an idle log holds 64 KiB a shard, and a busy
// one maps 4 MiB at a time. The blocks are allocated for real, so a full
// disk is an error from Append, never a SIGBUS. Sealing a segment
// (Close, Rotate) unmaps it and truncates it to its framed length. Until
// then it ends in zeros — the unwritten rest of its chunk — and that is
// what a crashed process leaves behind, so recovery reads the final
// segment by two rules:
//
//   - Unwritten space: an all-zero suffix starting at a frame boundary
//     was never written. It is dropped and reported nowhere.
//   - Cut frame: a frame that fails to decode and whose declared length
//     reaches into the zero suffix (or whose header is short) was cut
//     mid-copy: ReplayInfo.Torn, with TornBytes its written bytes.
//
// Rotation order makes non-final segments complete by construction: the
// current segment is sealed — and fsynced, under SyncBatch — before the
// next generation's file is created. An invalid frame in the final
// segment is therefore a torn tail and the valid prefix is kept; an
// invalid frame in an earlier segment, zeros included, is real
// corruption (ReplayInfo.Corrupt) and replay stops there rather than
// guessing at the suffix.
//
// Recover reads, Repair writes. Recover changes nothing on disk: it
// reports in ReplayInfo where the read stopped and what it dropped, and
// Repair writes that verdict — it quarantines the segments past a
// corrupt frame under a ".corrupt" suffix and cuts the segment the read
// stopped in to its whole frames. So a caller can read every shard and
// refuse a directory as found. Repair runs before Open: a torn tail left
// on disk would stop being "the final segment's tail" once the reopened
// log appends a newer generation, and the next recovery would misread it
// as mid-log corruption and drop the acknowledged records that followed
// it. The package journals nothing; its caller reports what it returns.
//
// What each platform gets: on Linux a chunk is allocated with fallocate
// and mapped MAP_SHARED, which is what CI, the drills and bench/ run. On
// other unix systems (darwin, the BSDs) the chunk's zeros are written once
// with WriteAt before it is mapped the same way: one more write of the
// chunk's size (64 KiB doubling to 4 MiB) per chunk, the same format and
// the same recovery. Elsewhere (windows)
// there is no shared mapping, and Open fails with an error naming the
// platform that wraps errors.ErrUnsupported; Recover and the record and
// snapshot codecs still work there.
//
// # Record framing
//
// Each record is one length-prefixed, checksummed frame:
//
//	uint32  payload length (little endian)
//	uint32  CRC-32 (IEEE) of the payload (little endian)
//	payload
//
// The payload starts with a one-byte record type and the reservation
// ID as a uvarint, followed by type-specific fields (varint/uvarint
// encoded, strings length-prefixed):
//
//	admit   (1)  tenant, ready, procs, dur, deadline, start
//	cancel  (2)  —
//
// The admit payload's tenant/ready/procs/dur/deadline fields are the
// canonical serialization of resd.Request — the unified admission
// argument — followed by the decision (the assigned start time).
//
// Types 3–7 are retired: they were the legs of a two-phase move between
// shards, written only while a rebalancer that no longer exists was
// switched on. The numbers are never reused. An intact frame carrying
// one is not damage, so recovery does not drop it as a corrupt suffix:
// Recover fails with ErrRetired, naming the file, and there is nothing
// for Repair to do — the directory stays readable by the build that
// wrote it.
// Any other unknown type (0, 8 and up) is ErrCorrupt.
//
// # Snapshot format
//
// A snapshot file is a single checksummed blob:
//
//	uint32  magic "RSNP" (0x504e5352 little endian)
//	uint8   version (1)
//	uvarint shard, gen, nextSeq
//	uvarint admitted, cancelled, reserved, reserved (counters)
//	books:    uvarint count, then per book: tenant, active, area,
//	          admitted, cancelled, reserved, reserved, reserved
//	live:     uvarint count, then per entry: id, start, dur, procs,
//	          reserved byte, reserved uvarint, tenant
//	reserved: uvarint count, always 0
//	uint32  CRC-32 (IEEE) of everything above (little endian)
//
// The reserved slots held migration state — counters of finished moves,
// a pending flag and source shard per live entry, a list of open outs —
// and, in the first of a book's three, its quota refusals, which the
// registry counts now that most are made before a shard is asked.
// They are written zero and there is one decoder: a non-zero counter is
// read and ignored, a set pending flag or a non-empty list is a move
// that never resolved and is refused with ErrRetired like the records.
//
// Snapshots are written to a temporary file, fsynced, renamed into
// place and the directory fsynced, so a crash mid-snapshot leaves
// either the previous snapshot or a complete new one — never a
// half-written file that recovery could mistake for state.
package wal
