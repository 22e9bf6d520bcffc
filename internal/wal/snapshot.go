package wal

// Snapshots: a snapshot is the records that rebuild the consumer's state,
// laid out as [magic "RWS2"][count uint32 LE] followed by exactly count
// records in the segment framing, and written temp-file + fsync + rename so
// replay sees either all of it or none. A snapshot with sequence number S
// supersedes every record in segments numbered below S; those segments are
// deleted once the rename is durable (and tolerated if a crash leaves them
// behind — replay prefers the snapshot).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

const (
	snapMagic       = "RWS2" // guards against loading a foreign file as a snapshot
	oldSnapMagic    = "RWS1" // the retired single-payload snapshot format
	snapHeaderBytes = 8      // magic + record count
)

// ErrOldSnapshot refuses a log directory whose snapshot was written in the
// retired RWS1 format: replaying the segments alone would silently drop the
// state that snapshot held.
var ErrOldSnapshot = errors.New("wal: snapshot in the retired RWS1 format")

// WriteSnapshot atomically persists records as the log's new snapshot: the
// active segment is sealed and a fresh one opened, the snapshot is written
// beside it temp-file-first, and segments the snapshot supersedes are
// removed. On success RecordsSinceSnapshot resets to zero.
func (l *Log) WriteSnapshot(records []Record) error {
	for _, r := range records {
		if len(r.Data) > MaxRecordBytes-1 {
			return ErrTooLarge
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	// Seal the records the snapshot covers, then move appends to a fresh
	// segment: the snapshot's sequence number is the new segment's, so
	// "records ≥ seq" and "snapshot" partition history exactly.
	if err := l.rotateLocked(); err != nil {
		return err
	}
	seq := l.seq

	tmp := snapPath(l.dir, seq) + ".tmp"
	if err := writeSnapshotFile(tmp, records); err != nil {
		os.Remove(tmp)
		return err
	}
	if l.crash(PointSnapTemp) {
		return ErrCrashed
	}
	if l.crash(PointSnapPreRename) {
		return ErrCrashed
	}
	if err := os.Rename(tmp, snapPath(l.dir, seq)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	syncDir(l.dir)
	l.snapshots.Add(1)
	l.sinceSnap.Store(0)
	if l.crash(PointSnapPostRename) {
		return ErrCrashed
	}
	if l.crash(PointSnapGC) {
		return ErrCrashed
	}
	// GC superseded files; best effort — replay prefers the newest
	// snapshot, so leftovers cost disk, not correctness.
	if entries, err := os.ReadDir(l.dir); err == nil {
		for _, e := range entries {
			name := e.Name()
			if s, ok := parseSeq(name, segPrefix, segSuffix); ok && s < seq {
				os.Remove(segPath(l.dir, s))
			} else if s, ok := parseSeq(name, snapPrefix, snapSuffix); ok && s < seq {
				os.Remove(snapPath(l.dir, s))
			}
		}
	}
	return nil
}

func writeSnapshotFile(path string, records []Record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot temp: %w", err)
	}
	// Stream each record's header and payload rather than assembling the
	// snapshot in memory: the records are already the consumer's copy.
	w := bufio.NewWriterSize(f, 64<<10)
	var hdr [headerBytes]byte
	w.WriteString(snapMagic)
	w.Write(binary.LittleEndian.AppendUint32(hdr[:0], uint32(len(records))))
	for _, r := range records {
		w.Write(recordHeader(hdr[:0], r.Type, r.Data))
		w.Write(r.Data)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot sync: %w", err)
	}
	return f.Close()
}

// readSnapshot loads and validates one snapshot file: nil for any torn,
// truncated or corrupt content, empty but non-nil for a valid snapshot of no
// records. The error is non-nil only for a snapshot in the retired RWS1
// format.
func readSnapshot(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil
	}
	if bytes.HasPrefix(data, []byte(oldSnapMagic)) {
		return nil, fmt.Errorf("%w: %s (the segments it superseded are gone)", ErrOldSnapshot, path)
	}
	if len(data) < snapHeaderBytes || string(data[:4]) != snapMagic {
		return nil, nil
	}
	records, torn := decodeSegment(data[snapHeaderBytes:], []Record{})
	if torn || uint64(len(records)) != uint64(binary.LittleEndian.Uint32(data[4:8])) {
		return nil, nil
	}
	return records, nil
}

// syncDir fsyncs a directory so a rename is durable; best effort on
// platforms where directories cannot be fsynced.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
