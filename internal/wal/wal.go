// Package wal is the durability substrate behind the graph store and the
// batch ledger: a checksummed, length-prefixed append-only log with segment
// rotation and periodic snapshots, written so that a crash at ANY point —
// power cut mid-record, SIGKILL between write and rename — recovers to a
// consistent prefix of the appended records.
//
// On-disk layout (one directory per log):
//
//	wal-00000001.seg   sealed segment (records only)
//	wal-00000002.seg   active segment (appends go here)
//	snap-00000002.snap snapshot covering every record in segments < 2
//
// A record is [len uint32][crc32c uint32][type byte][payload], all
// little-endian; len counts the type byte plus the payload, and the CRC
// (Castagnoli) covers the same bytes. Replay walks segments in order and
// stops a segment at the first record whose length is implausible or whose
// CRC fails — a torn tail from a crash mid-write — then continues with the
// next segment, because any later segment was written by a process that
// itself recovered from exactly that prefix. A snapshot is the records that
// rebuild the consumer's state, framed like a segment behind the magic
// "RWS2" and a record count; it is valid only if exactly those records
// decode, and MaxRecordBytes bounds each record, not the snapshot. It is
// written temp-file + fsync + rename (the same discipline as
// graph.WriteDisk), so it is either entirely present or entirely absent;
// replay loads the newest valid snapshot and replays only the segments at
// or after its sequence number. Open refuses a snapshot in the retired
// single-payload format (magic "RWS1") with ErrOldSnapshot, naming the
// file: the segments it superseded are gone.
//
// Layer (DESIGN.md §2, §8): wal sits at the bottom, beside internal/graph;
// it is imported by internal/store (graph registrations) and
// internal/service (the batch ledger) and knows nothing about either — the
// record types are opaque bytes.
//
// Concurrency and ownership: a Log is safe for concurrent use (one mutex
// serializes appends, syncs and snapshots). Appends are buffered; Sync
// flushes and fsyncs. TestHooks is the build-tag-free seam the crash-point
// harness uses to simulate the process image dying at every sync/rename
// boundary; production code passes nil hooks and pays nothing.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Crash points: every sync/rename boundary at which the TestHooks seam can
// simulate the process image dying. CrashPoints lists them all so the
// crash-point harness can enumerate coverage.
const (
	// PointAppendPre dies before any byte of the record is written: the
	// record is lost entirely.
	PointAppendPre = "append.pre"
	// PointAppendTorn dies mid-record: a prefix of the record's bytes
	// reaches the file, producing the torn tail replay must tolerate.
	PointAppendTorn = "append.torn"
	// PointAppendPost dies after the record's bytes reached the file (a
	// SIGKILL after write(2) returns): the record is durable.
	PointAppendPost = "append.post"
	// PointSyncPre dies before fsync with the user-space buffer still
	// unflushed: buffered bytes are lost, previously flushed bytes survive.
	PointSyncPre = "sync.pre"
	// PointSyncPost dies immediately after a completed fsync.
	PointSyncPost = "sync.post"
	// PointRotatePre dies before the new segment file is created.
	PointRotatePre = "rotate.pre"
	// PointRotatePost dies after the new segment exists but before any
	// record lands in it.
	PointRotatePost = "rotate.post"
	// PointSnapTemp dies with the snapshot temp file fully written and
	// synced but not yet renamed: the snapshot is invisible to replay.
	PointSnapTemp = "snapshot.temp_written"
	// PointSnapPreRename dies between the temp sync and the rename.
	PointSnapPreRename = "snapshot.pre_rename"
	// PointSnapPostRename dies after the rename: the snapshot is durable,
	// superseded segments still present.
	PointSnapPostRename = "snapshot.post_rename"
	// PointSnapGC dies before superseded segments are deleted: replay must
	// prefer the newest snapshot over the stale segments left behind.
	PointSnapGC = "snapshot.gc"
)

// CrashPoints returns every crash point name, in the order the write path
// reaches them. The crash-point harness iterates this list so a new
// boundary added here is automatically covered (or loudly uncovered).
func CrashPoints() []string {
	return []string{
		PointAppendPre, PointAppendTorn, PointAppendPost,
		PointSyncPre, PointSyncPost,
		PointRotatePre, PointRotatePost,
		PointSnapTemp, PointSnapPreRename, PointSnapPostRename, PointSnapGC,
	}
}

// TestHooks is the crash-injection seam. It is consulted inline on the
// write path (nil-checked, so production logs pay one pointer compare) and
// needs no build tags: tests construct a Log with hooks, everything else
// passes none.
type TestHooks struct {
	// CrashAt, when non-nil, is consulted at every crash point; returning
	// true simulates the process dying there: the prescribed partial effect
	// (nothing, a torn prefix, a temp file without its rename, …) is left
	// on disk, the Log transitions to the crashed state, and every later
	// operation fails with ErrCrashed without touching the directory again.
	CrashAt func(point string) bool
	// OnOpen, when non-nil, observes every Log the hooks are installed on
	// right after Open succeeds — the handle tests use to Kill a log that
	// a store or service constructed internally.
	OnOpen func(*Log)
}

// Log errors.
var (
	// ErrCrashed marks a log whose simulated process death (TestHooks or
	// Kill) already happened: the in-memory owner may keep running, but
	// nothing it does reaches disk anymore — exactly a dead process image.
	ErrCrashed = errors.New("wal: log crashed (simulated process death)")
	// ErrClosed marks a cleanly closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrFailed marks a log poisoned by a write error: a failed or partial
	// flush may have left a torn record in the MIDDLE of the active segment,
	// and replay stops a segment at the first tear — so any record accepted
	// after that point would be acked yet silently dropped on recovery. The
	// log refuses all further appends and syncs instead.
	ErrFailed = errors.New("wal: log failed (prior write error)")
	// ErrTooLarge rejects records beyond MaxRecordBytes.
	ErrTooLarge = errors.New("wal: record exceeds MaxRecordBytes")
)

// MaxRecordBytes bounds one record's type+payload length, in a segment and
// in a snapshot alike. Replay treats any length field beyond it as a
// torn/corrupt tail, so the bound doubles as the plausibility check that
// keeps a flipped length byte from allocating gigabytes.
const MaxRecordBytes = 64 << 20

const (
	headerBytes        = 9 // len(4) + crc(4) + type(1)
	defaultSegmentSize = 8 << 20
	segPrefix          = "wal-"
	segSuffix          = ".seg"
	snapPrefix         = "snap-"
	snapSuffix         = ".snap"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open. Zero values select defaults.
type Options struct {
	// SegmentBytes is the rotation threshold for the active segment
	// (default 8 MiB). Tests set it tiny to exercise rotation.
	SegmentBytes int64
	// Hooks installs the crash-injection seam; nil for production.
	Hooks *TestHooks
}

// Record is one replayed log entry. Type is opaque to the wal layer;
// consumers switch on it and MUST skip types they do not recognize (the
// forward-compatibility half of the replay idempotence contract).
type Record struct {
	Type byte
	Data []byte
}

// Recovery is what Open found on disk: the newest valid snapshot (nil if
// none) and every valid record appended after it, in order. A consumer
// replays Snapshot then Records through one apply function: a snapshot is
// the records that rebuild the state it captured.
type Recovery struct {
	// Snapshot holds the records of the newest valid snapshot, nil when the
	// log has none (empty but non-nil for a snapshot of no records).
	Snapshot []Record
	// Records are the records after the snapshot, in append order, ending
	// at the first torn/corrupt record of the final relevant segment.
	Records []Record
	// TornTail reports whether replay dropped a torn or corrupt tail.
	TornTail bool
	// Segments counts the segment files replay visited.
	Segments int
}

// Metrics is a point-in-time snapshot of a log's counters, surfaced as the
// repro_wal_* Prometheus families.
type Metrics struct {
	AppendsTotal      uint64 // records appended this process
	AppendedBytes     uint64 // record bytes appended (header included)
	SyncsTotal        uint64 // fsyncs issued
	SnapshotsTotal    uint64 // snapshots written this process
	SegmentsCreated   uint64 // segment files created this process
	ReplayedRecords   uint64 // records recovered at Open
	ReplayedSnapshots uint64 // 1 if Open loaded a snapshot
	ReplayTornTails   uint64 // torn/corrupt tails dropped at Open
	SinceSnapshot     uint64 // records appended since the last snapshot
}

// Log is an open write-ahead log. Create with Open.
type Log struct {
	dir   string
	opts  Options
	hooks *TestHooks

	mu      sync.Mutex
	f       *os.File
	buf     []byte // user-space append buffer (lost on crash before flush)
	seq     uint64 // active segment sequence number
	written int64  // bytes in the active segment (flushed + buffered)
	crashed bool
	closed  bool
	failed  error // non-nil once a flush error poisoned the log

	appends       atomic.Uint64
	appendedBytes atomic.Uint64
	syncs         atomic.Uint64
	snapshots     atomic.Uint64
	segsCreated   atomic.Uint64
	replayRecords uint64
	replaySnaps   uint64
	replayTorn    uint64
	sinceSnap     atomic.Uint64
}

// Open creates dir if needed, replays whatever a previous incarnation left
// there, and returns the log positioned to append into a fresh segment —
// appends never extend a pre-crash segment, so a torn tail is sealed in
// place rather than overwritten.
func Open(dir string, opts Options) (*Log, Recovery, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: %w", err)
	}
	rec, maxSeq, err := replayDir(dir)
	if err != nil {
		return nil, Recovery{}, err
	}
	l := &Log{dir: dir, opts: opts, hooks: opts.Hooks, seq: maxSeq}
	l.replayRecords = uint64(len(rec.Records))
	if rec.Snapshot != nil {
		l.replaySnaps = 1
	}
	if rec.TornTail {
		l.replayTorn = 1
	}
	if err := l.openSegmentLocked(maxSeq + 1); err != nil {
		return nil, Recovery{}, err
	}
	if opts.Hooks != nil && opts.Hooks.OnOpen != nil {
		opts.Hooks.OnOpen(l)
	}
	return l, rec, nil
}

// crash consults the hook at the named point. It must be called with l.mu
// held; returning true means the caller must stop without touching disk
// further (the log is now crashed).
func (l *Log) crash(point string) bool {
	if l.hooks == nil || l.hooks.CrashAt == nil {
		return false
	}
	if !l.hooks.CrashAt(point) {
		return false
	}
	l.crashed = true
	return true
}

// openSegmentLocked creates segment seq and makes it active. Must be called
// with l.mu held (or before the log escapes Open).
func (l *Log) openSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(segPath(l.dir, seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f = f
	l.seq = seq
	l.written = 0
	l.segsCreated.Add(1)
	return nil
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix))
}

// encodeRecord appends the wire encoding of (typ, payload) to dst.
func encodeRecord(dst []byte, typ byte, payload []byte) []byte {
	return append(recordHeader(dst, typ, payload), payload...)
}

// recordHeader appends the header of record (typ, payload) to dst: its
// encoding up to, not including, the payload.
func recordHeader(dst []byte, typ byte, payload []byte) []byte {
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(1+len(payload)))
	crc := crc32.Update(0, castagnoli, []byte{typ})
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	hdr[8] = typ
	return append(dst, hdr[:]...)
}

// Append buffers one record. The record is durable against SIGKILL once a
// later flush writes it through (Sync, rotation, snapshot or Close all
// flush); call Sync for a commit point that also survives power loss.
func (l *Log) Append(typ byte, payload []byte) error {
	if len(payload) > MaxRecordBytes-1 {
		return ErrTooLarge
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	recLen := int64(headerBytes + len(payload))
	if l.written+recLen > l.opts.SegmentBytes && l.written > 0 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if l.crash(PointAppendPre) {
		return ErrCrashed
	}
	if l.hooks != nil && l.hooks.CrashAt != nil {
		// Probe the torn point before committing the bytes: on a hit, write
		// a strict prefix of the record through to the file so the torn
		// tail is really on disk for the restarted incarnation to trip on.
		rec := encodeRecord(nil, typ, payload)
		if l.crash(PointAppendTorn) {
			l.flushLocked()
			l.f.Write(rec[:len(rec)/2])
			return ErrCrashed
		}
		l.buf = append(l.buf, rec...)
	} else {
		l.buf = encodeRecord(l.buf, typ, payload)
	}
	l.written += recLen
	l.appends.Add(1)
	l.appendedBytes.Add(uint64(recLen))
	l.sinceSnap.Add(1)
	if l.crash(PointAppendPost) {
		// Process dies after write(2) returned: the bytes survive.
		l.flushLocked()
		return ErrCrashed
	}
	return nil
}

// AppendSync appends one record and syncs: the commit-point primitive.
func (l *Log) AppendSync(typ byte, payload []byte) error {
	if err := l.Append(typ, payload); err != nil {
		return err
	}
	return l.Sync()
}

// flushLocked writes the user-space buffer through to the active segment.
// Must be called with l.mu held. A write error poisons the log (ErrFailed),
// the failing write included: the write may have landed a torn record
// mid-segment, and replay would silently drop anything appended after it —
// so nothing may be acked after it. The unwritten suffix stays buffered;
// Close retries it once, which on a transient error mends the tear exactly
// where it was left.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	n, err := l.f.Write(l.buf)
	if err != nil {
		l.buf = l.buf[n:]
		if l.failed == nil {
			l.failed = fmt.Errorf("%w: %v", ErrFailed, err)
		}
		return l.failed
	}
	l.buf = l.buf[:0]
	return nil
}

// Sync flushes buffered records and fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.usableLocked(); err != nil {
		return err
	}
	if l.crash(PointSyncPre) {
		// Power-cut model: the user-space buffer never reached the file.
		l.buf = l.buf[:0]
		return ErrCrashed
	}
	if err := l.flushLocked(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncs.Add(1)
	if l.crash(PointSyncPost) {
		return ErrCrashed
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one. Must be
// called with l.mu held.
func (l *Log) rotateLocked() error {
	if err := l.flushLocked(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncs.Add(1)
	if l.crash(PointRotatePre) {
		return ErrCrashed
	}
	if err := l.openSegmentLocked(l.seq + 1); err != nil {
		return err
	}
	if l.crash(PointRotatePost) {
		return ErrCrashed
	}
	return nil
}

func (l *Log) usableLocked() error {
	switch {
	case l.crashed:
		return ErrCrashed
	case l.closed:
		return ErrClosed
	case l.failed != nil:
		return l.failed
	}
	return nil
}

// Kill simulates the process image dying right now: buffered-but-unflushed
// records are discarded (they lived in user space) and every later
// operation fails with ErrCrashed without touching the directory. The
// restart-equivalence tests use it to SIGKILL an in-process server stack;
// a fresh Open on the same directory then recovers exactly what a real
// kill -9 would have left.
func (l *Log) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.crashed = true
	l.buf = l.buf[:0]
}

// RecordsSinceSnapshot reports how many records were appended since the
// last successful snapshot (or Open) — the cadence input for callers that
// snapshot every N records.
func (l *Log) RecordsSinceSnapshot() uint64 { return l.sinceSnap.Load() }

// Metrics returns a snapshot of the log's counters.
func (l *Log) Metrics() Metrics {
	return Metrics{
		AppendsTotal:      l.appends.Load(),
		AppendedBytes:     l.appendedBytes.Load(),
		SyncsTotal:        l.syncs.Load(),
		SnapshotsTotal:    l.snapshots.Load(),
		SegmentsCreated:   l.segsCreated.Load(),
		ReplayedRecords:   l.replayRecords,
		ReplayedSnapshots: l.replaySnaps,
		ReplayTornTails:   l.replayTorn,
		SinceSnapshot:     l.sinceSnap.Load(),
	}
}

// Close flushes, syncs and closes the log. A crashed log closes without
// touching disk (the simulated dead process cannot).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.crashed {
		if l.f != nil {
			l.f.Close()
		}
		return nil
	}
	var err error
	if ferr := l.flushLocked(); ferr != nil {
		err = ferr
	}
	if serr := l.f.Sync(); serr != nil && err == nil {
		err = serr
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
