package wal

// Replay: scan a log directory for segments and snapshots, load the newest
// valid snapshot, and walk the records appended after it. Torn tails —
// partial headers, implausible lengths, CRC mismatches — end the segment
// they appear in without failing the replay: anything after them in LATER
// segments was written by an incarnation that recovered from exactly that
// prefix, so it is still part of the consistent history.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// replayDir scans dir and returns the recovery plus the highest sequence
// number seen across segments and snapshots (0 when the directory is
// empty), so Open can pick the next fresh segment number.
func replayDir(dir string) (Recovery, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return Recovery{}, 0, fmt.Errorf("wal: %w", err)
	}
	var segs, snaps []uint64
	for _, e := range entries {
		name := e.Name()
		if seq, ok := parseSeq(name, segPrefix, segSuffix); ok {
			segs = append(segs, seq)
		} else if seq, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, seq)
		} else if strings.HasSuffix(name, ".tmp") {
			// A crash between a snapshot's temp write and its rename strands
			// the .tmp file: it is by definition not a durable snapshot, so
			// reclaim it here rather than accumulate one per crash.
			os.Remove(filepath.Join(dir, name))
		}
	}
	slices.Sort(segs)
	slices.SortFunc(snaps, func(a, b uint64) int { // newest first
		switch {
		case a > b:
			return -1
		case a < b:
			return 1
		}
		return 0
	})

	var rec Recovery
	var maxSeq, snapSeq uint64
	if len(segs) > 0 {
		maxSeq = segs[len(segs)-1]
	}
	// Newest snapshot that reads back valid wins; a torn or corrupt
	// snapshot (crash between temp write and rename cannot produce one,
	// but a disk can) falls back to the one before it, whose superseded
	// segments are still present exactly because snapshot GC deletes them
	// only after the newer snapshot is durable. A retired-format snapshot
	// fails the replay instead: the segments it superseded are gone.
	for _, seq := range snaps {
		records, err := readSnapshot(snapPath(dir, seq))
		if err != nil {
			return Recovery{}, 0, err
		}
		if records != nil {
			rec.Snapshot = records
			snapSeq = seq
			maxSeq = max(maxSeq, seq)
			break
		}
	}
	for _, seq := range segs {
		if seq < snapSeq {
			continue // superseded by the snapshot
		}
		data, err := os.ReadFile(segPath(dir, seq))
		if err != nil {
			return Recovery{}, 0, fmt.Errorf("wal: read segment %d: %w", seq, err)
		}
		rec.Segments++
		records, torn := decodeSegment(data, rec.Records)
		rec.Records = records
		if torn {
			rec.TornTail = true
		}
	}
	return rec, maxSeq, nil
}

// decodeSegment appends the records of one segment (or snapshot body) to
// out, stopping at the first torn or corrupt record and reporting whether it
// stopped early. Each record's Data aliases data.
func decodeSegment(data []byte, out []Record) ([]Record, bool) {
	for len(data) > 0 {
		if len(data) < headerBytes {
			return out, true // partial header: torn tail
		}
		length := binary.LittleEndian.Uint32(data[0:4])
		if length == 0 || length > MaxRecordBytes {
			return out, true // implausible length: corrupt or torn
		}
		end := headerBytes - 1 + int(length)
		if end > len(data) {
			return out, true // record extends past the file: torn tail
		}
		want := binary.LittleEndian.Uint32(data[4:8])
		body := data[8:end]
		if crc32.Checksum(body, castagnoli) != want {
			return out, true // bit rot or a torn rewrite: stop the prefix here
		}
		out = append(out, Record{Type: body[0], Data: body[1:]})
		data = data[end:]
	}
	return out, false
}

// parseSeq extracts the sequence number from prefix%08dsuffix names,
// rejecting anything else (temp files, foreign droppings).
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) == 0 {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}
