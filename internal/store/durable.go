package store

// Durability (DESIGN.md §8): when Config.WALDir is set the store journals
// every name binding to an internal/wal log so a restart recovers the full
// registry. The discipline is write-ahead with spill-at-put: Put first
// ensures the graph's content-addressed RGD1 spill file exists (the bytes),
// then appends a put record (the binding), then mutates memory; Delete
// appends its record before unbinding. On boot every recovered name is
// indexed as spilled — nothing is eagerly loaded — and the first Acquire
// revives it by mmapping the spill file, so recovery cost is O(names), not
// O(bytes).
//
// A snapshot is one put record per durable name, resident or spilled, so
// Open replays the snapshot and the tail through one apply function. Replay
// is idempotent: put records overwrite any previous binding of the same name
// (last write wins), delete records of unknown names are no-ops, and records
// of unknown types are skipped, so a prefix interrupted anywhere re-applies
// cleanly.

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"slices"
	"time"

	"repro/internal/wal"
)

// Store WAL record types. Payloads are JSON so records stay debuggable with
// od/jq and new fields are backward compatible.
const (
	recPut    = 1 // putPayload: bind a name to a fingerprint
	recDelete = 2 // deletePayload: unbind a name
)

type putPayload struct {
	Name    string    `json:"name"`
	FP      string    `json:"fp"`
	Gen     string    `json:"gen,omitempty"`
	Nodes   int       `json:"n"`
	Edges   int       `json:"m"`
	Created time.Time `json:"created"`
}

type deletePayload struct {
	Name string `json:"name"`
}

// Open is New plus durability: when cfg.WALDir is set it replays the
// directory's log into the spilled index (graphs revive lazily from
// cfg.SpillDir on first Acquire) and journals every subsequent Put and
// Delete. SpillDir defaults to <WALDir>/spill when unset, because the spill
// files ARE the durable graph bytes the log's bindings point at.
func Open(cfg Config) (*Store, error) {
	if cfg.WALDir != "" && cfg.SpillDir == "" {
		cfg.SpillDir = cfg.WALDir + "/spill"
	}
	s := New(cfg)
	if cfg.WALDir == "" {
		return s, nil
	}
	l, rec, err := wal.Open(cfg.WALDir, wal.Options{
		SegmentBytes: cfg.WALSegmentBytes,
		Hooks:        cfg.WALHooks,
	})
	if err != nil {
		return nil, err
	}
	s.wal = l
	for _, r := range slices.Concat(rec.Snapshot, rec.Records) {
		s.apply(r)
	}
	if s.logger() != nil && (len(s.spilled) > 0 || rec.TornTail) {
		s.logger().Info("wal_replay",
			"component", "store",
			"names", len(s.spilled),
			"records", len(rec.Records),
			"segments", rec.Segments,
			"torn_tail", rec.TornTail,
			"had_snapshot", rec.Snapshot != nil)
	}
	return s, nil
}

func (s *Store) logger() *slog.Logger { return s.cfg.Logger }

// apply replays one record into the spilled index. A put indexes its
// binding (last write wins, so a put after a delete of the same name
// rebinds it), a delete unbinds, and a malformed but CRC-valid record or
// one of an unknown type — from a newer store version — is skipped: that is
// the compatibility contract.
func (s *Store) apply(r wal.Record) {
	switch r.Type {
	case recPut:
		var p putPayload
		if json.Unmarshal(r.Data, &p) != nil || ValidName(p.Name) != nil || p.FP == "" {
			return
		}
		s.spilled[p.Name] = spillRec{fp: p.FP, gen: p.Gen, n: p.Nodes, m: p.Edges, created: p.Created}
	case recDelete:
		var p deletePayload
		if json.Unmarshal(r.Data, &p) == nil {
			delete(s.spilled, p.Name)
		}
	}
}

// journalPutLocked makes a new binding durable before it lands in memory:
// spill file first (content), then a synced put record (binding). A failed
// spill write degrades the name to non-durable — in-memory registration
// still succeeds, matching the spill-on-evict best-effort contract — while a
// failed log append (crashed or closed log) fails the Put, because the
// caller was promised durability. Must be called with s.mu held.
func (s *Store) journalPutLocked(name string, pl *payload, gen string, created time.Time) error {
	if s.wal == nil {
		return nil
	}
	if err := s.spillFileLocked(pl); err != nil {
		if s.logger() != nil {
			s.logger().Warn("wal_spill_failed", "name", name, "err", err)
		}
		return nil
	}
	sp := spillRec{fp: pl.fp, gen: gen, n: pl.g.N(), m: pl.g.M(), created: created}
	if err := s.wal.AppendSync(recPut, putData(name, sp)); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	// No snapshot here: the binding is not in the maps yet, and a snapshot
	// supersedes the segment holding the record just appended — compacting
	// now would drop an acknowledged put. The caller snapshots after the
	// mutation (the crash-point harness caught exactly this ordering).
	return nil
}

// journalDeleteLocked appends the unbinding before it happens (write-ahead:
// a crash between append and map mutation replays the delete). Must be
// called with s.mu held.
func (s *Store) journalDeleteLocked(name string) error {
	if s.wal == nil {
		return nil
	}
	data, _ := json.Marshal(deletePayload{Name: name})
	if err := s.wal.AppendSync(recDelete, data); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	return nil
}

// maybeSnapshotLocked compacts the log once SnapshotEvery records have
// accumulated. It must run only AFTER the journaled mutation is applied to
// the maps — a snapshot serializes the maps and supersedes the segments, so
// snapshotting between append and apply loses the acknowledged record.
// Failure is logged and retried after the next record: the log is longer
// than ideal, never wrong. Must be called with s.mu held.
func (s *Store) maybeSnapshotLocked() {
	if s.wal == nil || s.cfg.SnapshotEvery <= 0 || s.wal.RecordsSinceSnapshot() < uint64(s.cfg.SnapshotEvery) {
		return
	}
	if err := s.snapshotLocked(); err != nil && s.logger() != nil {
		s.logger().Warn("wal_snapshot_failed", "component", "store", "err", err)
	}
}

// snapshotLocked compacts the log into one put record per durable name,
// resident or spilled. Must be called with s.mu held.
func (s *Store) snapshotLocked() error {
	records := make([]wal.Record, 0, len(s.names)+len(s.spilled))
	for name, rec := range s.names {
		// A resident name without a spill file (spill failed at Put) was
		// never durable; keep it out of the snapshot too.
		if err := s.spillFileLocked(rec.pl); err != nil {
			continue
		}
		records = append(records, wal.Record{Type: recPut, Data: putData(name, rec.spillRec())})
	}
	for name, sp := range s.spilled {
		records = append(records, wal.Record{Type: recPut, Data: putData(name, sp)})
	}
	return s.wal.WriteSnapshot(records)
}

// putData renders the put record that binds name as sp describes. The
// payload holds strings, integers and a wall-clock time, so it always
// marshals.
func putData(name string, sp spillRec) []byte {
	data, _ := json.Marshal(putPayload{
		Name: name, FP: sp.fp, Gen: sp.gen,
		Nodes: sp.n, Edges: sp.m, Created: sp.created,
	})
	return data
}

// Close flushes a final snapshot (so the next Open replays one record-free
// snapshot instead of the whole log) and closes the WAL; from then on Put
// and Delete fail with ErrClosed, while reads keep answering. Stores opened
// without a WALDir close trivially and stay writable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	snapErr := s.snapshotLocked()
	closeErr := s.wal.Close()
	s.wal = nil
	s.closed = true
	if snapErr != nil && snapErr != wal.ErrCrashed {
		return snapErr
	}
	return closeErr
}

// WALMetrics returns the underlying log's counters; ok is false when the
// store was opened without durability.
func (s *Store) WALMetrics() (wal.Metrics, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return wal.Metrics{}, false
	}
	return s.wal.Metrics(), true
}
