package wal_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

func openT(t *testing.T, dir string, opts wal.Options) (*wal.Log, wal.Recovery) {
	t.Helper()
	l, rec, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec
}

func payloads(recs []wal.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%d:%s", r.Type, r.Data)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, wal.Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(byte(i%3+1), []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2 := openT(t, dir, wal.Options{})
	if len(rec2.Records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(rec2.Records))
	}
	for i, r := range rec2.Records {
		want := fmt.Sprintf("record-%d", i)
		if r.Type != byte(i%3+1) || string(r.Data) != want {
			t.Fatalf("record %d = %d:%q, want %d:%q", i, r.Type, r.Data, i%3+1, want)
		}
	}
	if rec2.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
}

func TestRotationPreservesOrder(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, wal.Options{SegmentBytes: 64}) // every couple of appends rotates
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.AppendSync(1, []byte(fmt.Sprintf("r%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if m := l.Metrics(); m.SegmentsCreated < 10 {
		t.Fatalf("expected many segments at 64-byte rotation, got %d", m.SegmentsCreated)
	}
	l.Close()

	_, rec := openT(t, dir, wal.Options{})
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records across segments, want %d", len(rec.Records), n)
	}
	for i, r := range rec.Records {
		if string(r.Data) != fmt.Sprintf("r%03d", i) {
			t.Fatalf("record %d out of order: %q", i, r.Data)
		}
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, wal.Options{})
	for i := 0; i < 5; i++ {
		if err := l.AppendSync(1, []byte(fmt.Sprintf("ok-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the tail by hand: append garbage prefix of a plausible record.
	seg := filepath.Join(dir, "wal-00000001.seg")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}) // length 16, partial header/crc
	f.Close()

	l2, rec := openT(t, dir, wal.Options{})
	if len(rec.Records) != 5 || !rec.TornTail {
		t.Fatalf("recovered %d records (torn=%v), want 5 with torn tail", len(rec.Records), rec.TornTail)
	}
	// The next incarnation appends into a fresh segment and the history
	// reads back as the consistent prefix plus the new records.
	if err := l2.AppendSync(2, []byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, rec3 := openT(t, dir, wal.Options{})
	if len(rec3.Records) != 6 || string(rec3.Records[5].Data) != "after-crash" {
		t.Fatalf("post-crash history wrong: %v", payloads(rec3.Records))
	}
}

func TestCRCCorruptionStopsPrefix(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, wal.Options{})
	for i := 0; i < 4; i++ {
		if err := l.AppendSync(1, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	seg := filepath.Join(dir, "wal-00000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the third record; records are 9+5 bytes each.
	data[2*14+10] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := openT(t, dir, wal.Options{})
	if len(rec.Records) != 2 || !rec.TornTail {
		t.Fatalf("recovered %d records (torn=%v), want the 2-record prefix", len(rec.Records), rec.TornTail)
	}
}

func TestSnapshotSupersedesSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, wal.Options{})
	for i := 0; i < 3; i++ {
		if err := l.AppendSync(1, []byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot([]wal.Record{{Type: 1, Data: []byte("state-after-3")}}); err != nil {
		t.Fatal(err)
	}
	if got := l.RecordsSinceSnapshot(); got != 0 {
		t.Fatalf("RecordsSinceSnapshot = %d after snapshot", got)
	}
	if err := l.AppendSync(2, []byte("post-0")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, rec := openT(t, dir, wal.Options{})
	if got := payloads(rec.Snapshot); len(got) != 1 || got[0] != "1:state-after-3" {
		t.Fatalf("snapshot = %v", got)
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "post-0" {
		t.Fatalf("post-snapshot records = %v", payloads(rec.Records))
	}
	// The pre-snapshot segment must be gone.
	if _, err := os.Stat(filepath.Join(dir, "wal-00000001.seg")); !os.IsNotExist(err) {
		t.Fatalf("superseded segment survived snapshot GC: %v", err)
	}
}

func TestKillDropsBufferedKeepsFlushed(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, wal.Options{})
	if err := l.AppendSync(1, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("buffered-only")); err != nil {
		t.Fatal(err)
	}
	l.Kill()
	if err := l.Append(1, []byte("post-mortem")); err != wal.ErrCrashed {
		t.Fatalf("append on killed log: %v, want ErrCrashed", err)
	}
	if err := l.WriteSnapshot(nil); err != wal.ErrCrashed {
		t.Fatalf("snapshot on killed log: %v, want ErrCrashed", err)
	}

	_, rec := openT(t, dir, wal.Options{})
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "durable" {
		t.Fatalf("killed log recovered %v, want only the synced record", payloads(rec.Records))
	}
}

func TestUnknownRecordTypesSurvive(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, wal.Options{})
	if err := l.AppendSync(0xEE, []byte("from-the-future")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, rec := openT(t, dir, wal.Options{})
	if len(rec.Records) != 1 || rec.Records[0].Type != 0xEE {
		t.Fatalf("unknown-type record lost: %v", payloads(rec.Records))
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	l, _ := openT(t, t.TempDir(), wal.Options{})
	if err := l.Append(1, make([]byte, wal.MaxRecordBytes)); err != wal.ErrTooLarge {
		t.Fatalf("oversize append: %v, want ErrTooLarge", err)
	}
}

// BenchmarkAppend measures the buffered append hot path (the per-record
// cost a batch ledger pays under Service.mu-adjacent load), and
// BenchmarkAppendSync the full commit point. benchtab -json folds these
// into the BENCH record's wal row so the write-path overhead is tracked.
func BenchmarkAppend(b *testing.B) {
	l, _, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 256)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(1, payload); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 { // group commit: one fsync amortized over 256 records
			if err := l.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAppendSync(b *testing.B) {
	l, _, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.AppendSync(1, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOpenRemovesStaleSnapshotTemp: a crash between a snapshot's temp write
// and its rename strands a .tmp file that replay ignores; Open must reclaim
// it instead of accumulating one orphan per crash.
func TestOpenRemovesStaleSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, wal.Options{})
	if err := l.AppendSync(1, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "snap-00000007.snap.tmp")
	if err := os.WriteFile(stale, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := openT(t, dir, wal.Options{})
	if rec.Snapshot != nil {
		t.Fatal("stale temp file was loaded as a snapshot")
	}
	if got := payloads(rec.Records); len(got) != 1 || got[0] != "1:keep" {
		t.Fatalf("recovered %v, want the one real record", got)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot temp survived Open (stat err = %v)", err)
	}
}

// TestSnapshotBeyondMaxRecordBytes: MaxRecordBytes bounds each record, not
// the snapshot, so a snapshot whose records together exceed it is written
// and replays intact. Both records share one buffer, dropped before the
// replay, to keep the test's memory near the 64 MiB the replay reads.
func TestSnapshotBeyondMaxRecordBytes(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, wal.Options{})
	big := make([]byte, wal.MaxRecordBytes/2+1)
	for i := range big {
		big[i] = byte(i * 7)
	}
	want := crc32.ChecksumIEEE(big)
	if err := l.WriteSnapshot([]wal.Record{{Type: 1, Data: big}, {Type: 2, Data: big}}); err != nil {
		t.Fatalf("snapshot of two %d-byte records: %v", len(big), err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	size := len(big)
	big = nil

	_, rec := openT(t, dir, wal.Options{})
	if len(rec.Snapshot) != 2 {
		t.Fatalf("replayed %d snapshot records, want 2", len(rec.Snapshot))
	}
	for i, r := range rec.Snapshot {
		if r.Type != byte(i+1) || len(r.Data) != size || crc32.ChecksumIEEE(r.Data) != want {
			t.Fatalf("snapshot record %d: type %d, %d bytes; want type %d, the %d bytes written", i, r.Type, len(r.Data), i+1, size)
		}
	}
}

// TestOpenRefusesOldFormatSnapshot: a snapshot in the retired RWS1 format
// (one JSON payload behind a length and a CRC) cannot be decoded, and the
// segments it superseded are gone, so Open must fail naming the file rather
// than replay the tail alone.
func TestOpenRefusesOldFormatSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, wal.Options{})
	if err := l.AppendSync(1, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"entries":[{"name":"g","fp":"0123abcd","n":3,"m":2,"created":"2026-01-02T03:04:05Z"}]}`)
	old := make([]byte, 12, 12+len(payload))
	copy(old, "RWS1")
	binary.LittleEndian.PutUint32(old[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(old[8:12], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	path := filepath.Join(dir, "snap-00000001.snap")
	if err := os.WriteFile(path, append(old, payload...), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := wal.Open(dir, wal.Options{})
	if !errors.Is(err, wal.ErrOldSnapshot) || !strings.Contains(err.Error(), path) {
		t.Fatalf("Open over an RWS1 snapshot: err = %v, want wal.ErrOldSnapshot naming %s", err, path)
	}
	if l2 != nil || len(rec.Records) != 0 {
		t.Fatalf("Open over an RWS1 snapshot replayed %v", payloads(rec.Records))
	}
}
