package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/wal"
)

// FuzzWALReplay feeds arbitrary bytes to the replay path as a lone segment
// file and asserts the invariants corruption must never break: no panic, no
// error (a segment is always some consistent prefix), every decoded record
// round-trips through a fresh log, and replay is deterministic.
func FuzzWALReplay(f *testing.F) {
	table := crc32.MakeTable(crc32.Castagnoli)
	rec := func(typ byte, payload []byte) []byte {
		body := append([]byte{typ}, payload...)
		b := make([]byte, 8, 8+len(body))
		binary.LittleEndian.PutUint32(b[0:4], uint32(len(body)))
		binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(body, table))
		return append(b, body...)
	}

	// Seeds: valid log, truncated tail, flipped CRC byte, duplicated record,
	// unknown record type, zero length, implausible length, empty file.
	valid := append(rec(1, []byte(`{"name":"g1"}`)), rec(2, []byte(`{"id":"b000001"}`))...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := bytes.Clone(valid)
	flipped[5] ^= 0x40
	f.Add(flipped)
	f.Add(append(bytes.Clone(valid), valid...))
	f.Add(rec(0xEE, []byte("unknown type must survive or stop, never panic")))
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec1, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatalf("replay errored on arbitrary segment bytes: %v", err)
		}
		l.Close()

		// Determinism: a second replay of the same directory decodes the
		// same prefix.
		l2, rec2, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		l2.Close()
		if len(rec1.Records) != len(rec2.Records) || rec1.TornTail != rec2.TornTail {
			t.Fatalf("replay not deterministic: %d/%v vs %d/%v",
				len(rec1.Records), rec1.TornTail, len(rec2.Records), rec2.TornTail)
		}

		// Round-trip: re-appending the decoded prefix into a fresh log and
		// replaying it must reproduce it exactly.
		dir2 := t.TempDir()
		l3, _, err := wal.Open(dir2, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rec1.Records {
			if err := l3.Append(r.Type, r.Data); err != nil {
				t.Fatalf("decoded record does not re-append: %v", err)
			}
		}
		if err := l3.Sync(); err != nil {
			t.Fatal(err)
		}
		l3.Close()
		l4, rec3, err := wal.Open(dir2, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		l4.Close()
		if len(rec3.Records) != len(rec1.Records) {
			t.Fatalf("round-trip lost records: %d vs %d", len(rec3.Records), len(rec1.Records))
		}
		for i := range rec3.Records {
			if rec3.Records[i].Type != rec1.Records[i].Type || !bytes.Equal(rec3.Records[i].Data, rec1.Records[i].Data) {
				t.Fatalf("round-trip record %d differs", i)
			}
		}
	})
}

// rewriteSnapshot writes records as the snapshot of a fresh log and returns
// the snapshot file's bytes and what a replay of that directory recovers.
func rewriteSnapshot(tb testing.TB, records []wal.Record) ([]byte, wal.Recovery) {
	tb.Helper()
	dir := tb.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := l.WriteSnapshot(records); err != nil {
		tb.Fatalf("loaded snapshot does not write again: %v", err)
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "snap-00000002.snap"))
	if err != nil {
		tb.Fatal(err)
	}
	l2, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	l2.Close()
	return data, rec
}

// FuzzWALSnapshot writes arbitrary bytes as snap-00000001.snap beside a
// valid segment and asserts what replay may do with them: never panic, and
// either load the snapshot whole, ignore it as corrupt, or refuse a
// retired-format (RWS1) snapshot with ErrOldSnapshot naming the file — the
// segment's records replay the same either way. A loaded snapshot, written
// again into a fresh directory, replays to the same records, and its file
// holds exactly the bytes it was loaded from: the format is canonical.
func FuzzWALSnapshot(f *testing.F) {
	segDir := f.TempDir()
	l, _, err := wal.Open(segDir, wal.Options{})
	if err != nil {
		f.Fatal(err)
	}
	for typ := byte(1); typ <= 2; typ++ {
		if err := l.AppendSync(typ, []byte(`{"name":"tail"}`)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(segDir, "wal-00000001.seg"))
	if err != nil {
		f.Fatal(err)
	}
	tail := []string{`1:{"name":"tail"}`, `2:{"name":"tail"}`}

	// Seeds beyond the committed corpus: what WriteSnapshot produces.
	valid, _ := rewriteSnapshot(f, []wal.Record{{Type: 5, Data: []byte(`{"next":7}`)}, {Type: 1, Data: []byte(`{"id":"b000007"}`)}})
	empty, _ := rewriteSnapshot(f, nil)
	f.Add(valid)
	f.Add(empty)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "snap-00000001.snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		old := bytes.HasPrefix(data, []byte("RWS1"))
		l, rec, err := wal.Open(dir, wal.Options{})
		if err != nil {
			if !old || !errors.Is(err, wal.ErrOldSnapshot) || !strings.Contains(err.Error(), "snap-00000001.snap") {
				t.Fatalf("Open over arbitrary snapshot bytes: %v", err)
			}
			return
		}
		l.Close()
		if old {
			t.Fatal("retired-format snapshot was not refused")
		}
		if got := payloads(rec.Records); !slices.Equal(got, tail) {
			t.Fatalf("segment beside the snapshot replayed as %v, want %v", got, tail)
		}
		if rec.Snapshot == nil {
			return // ignored as corrupt
		}
		again, rec2 := rewriteSnapshot(t, rec.Snapshot)
		if !slices.Equal(payloads(rec2.Snapshot), payloads(rec.Snapshot)) {
			t.Fatalf("rewritten snapshot replays as %v, want %v", payloads(rec2.Snapshot), payloads(rec.Snapshot))
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("loaded snapshot rewrites as %q, not the %q it was loaded from", again, data)
		}
	})
}
