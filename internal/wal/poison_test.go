package wal

// White-box: forcing a write error on the active segment requires reaching
// the Log's file handle, so this test lives inside the package.

import (
	"errors"
	"testing"
)

// TestFlushErrorPoisonsLog: a failed flush may have left a torn record in
// the MIDDLE of the active segment, and replay stops a segment at the first
// tear — so after a write error the log must refuse every later append and
// sync (ErrFailed) rather than ack records that recovery would silently
// drop. The failing write reports ErrFailed itself, so its caller sees a
// fault of the log, not of the record.
func TestFlushErrorPoisonsLog(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendSync(1, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, []byte("buffered")); err != nil {
		t.Fatal(err)
	}
	l.f.Close() // the next write to the active segment fails
	if err := l.Sync(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Sync over a broken segment: %v, want ErrFailed", err)
	}
	if err := l.Append(3, []byte("late")); !errors.Is(err, ErrFailed) {
		t.Fatalf("Append after write error: %v, want ErrFailed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Sync after write error: %v, want ErrFailed", err)
	}
	if err := l.AppendSync(4, []byte("late")); !errors.Is(err, ErrFailed) {
		t.Fatalf("AppendSync after write error: %v, want ErrFailed", err)
	}
	if err := l.WriteSnapshot([]Record{{Type: 1, Data: []byte("{}")}}); !errors.Is(err, ErrFailed) {
		t.Fatalf("WriteSnapshot after write error: %v, want ErrFailed", err)
	}
}
