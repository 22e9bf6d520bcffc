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
// Replay idempotence: put records overwrite any previous binding of the same
// name (last write wins), delete records of unknown names are no-ops, and
// records of unknown types are skipped, so a prefix interrupted anywhere
// re-applies cleanly.

import (
	"encoding/json"
	"fmt"
	"log/slog"
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

// snapshotPayload is the full registry state: one entry per live name. A
// snapshot with N entries replaces replaying the records that built them.
type snapshotPayload struct {
	Entries []putPayload `json:"entries"`
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
	if rec.Snapshot != nil {
		var snap snapshotPayload
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			l.Close()
			return nil, fmt.Errorf("store: corrupt wal snapshot: %w", err)
		}
		for _, e := range snap.Entries {
			s.applyPut(e)
		}
	}
	for _, r := range rec.Records {
		switch r.Type {
		case recPut:
			var p putPayload
			if err := json.Unmarshal(r.Data, &p); err != nil {
				continue // malformed but CRC-valid: skip, keep the rest
			}
			s.applyPut(p)
		case recDelete:
			var p deletePayload
			if err := json.Unmarshal(r.Data, &p); err != nil {
				continue
			}
			delete(s.spilled, p.Name)
		default:
			// A record from a newer store version: skipping is the
			// compatibility contract.
		}
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

// applyPut indexes one recovered binding as spilled. Last write wins so a
// put record after a delete of the same name rebinds it.
func (s *Store) applyPut(p putPayload) {
	if ValidName(p.Name) != nil || p.FP == "" {
		return
	}
	s.spilled[p.Name] = spillRec{fp: p.FP, gen: p.Gen, n: p.Nodes, m: p.Edges, created: p.Created}
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
	data, err := json.Marshal(putPayload{
		Name: name, FP: pl.fp, Gen: gen,
		Nodes: pl.g.N(), Edges: pl.g.M(), Created: created,
	})
	if err != nil {
		return err
	}
	if err := s.wal.AppendSync(recPut, data); err != nil {
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

func (s *Store) snapshotLocked() error {
	snap := snapshotPayload{Entries: make([]putPayload, 0, len(s.names)+len(s.spilled))}
	for name, rec := range s.names {
		// A resident name without a spill file (spill failed at Put) was
		// never durable; keep it out of the snapshot too.
		if err := s.spillFileLocked(rec.pl); err != nil {
			continue
		}
		snap.Entries = append(snap.Entries, putPayload{
			Name: name, FP: rec.pl.fp, Gen: rec.gen,
			Nodes: rec.pl.g.N(), Edges: rec.pl.g.M(), Created: rec.created,
		})
	}
	for name, sp := range s.spilled {
		snap.Entries = append(snap.Entries, putPayload{
			Name: name, FP: sp.fp, Gen: sp.gen,
			Nodes: sp.n, Edges: sp.m, Created: sp.created,
		})
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	return s.wal.WriteSnapshot(data)
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
