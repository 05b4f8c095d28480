package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/p2pgossip/update/internal/store"
)

// buildLog writes n records into a fresh single-segment log and returns the
// segment path. The log is closed cleanly; tests then damage the file.
func buildLog(t *testing.T, dir string, n int) string {
	t.Helper()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	appendN(t, l, 0, n)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return segmentPath(dir, 1)
}

// recordOffsets parses a clean segment and returns the starting offset of
// every record (and the end offset as the final element).
func recordOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	offs := []int64{headerSize}
	off := int64(headerSize)
	for off < int64(len(data)) {
		n := binary.BigEndian.Uint32(data[off : off+4])
		off += recordHeaderSize + int64(n)
		offs = append(offs, off)
	}
	return offs
}

// truncateAt shortens the file to size bytes.
func truncateAt(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatalf("Truncate(%d): %v", size, err)
	}
}

// flipByte XORs the byte at off.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
}

// appendRaw appends raw bytes to the file (crash garbage, duplicated
// records, hand-built frames).
func appendRaw(t *testing.T, path string, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if _, err := f.Write(raw); err != nil {
		t.Fatalf("Write: %v", err)
	}
}

// frameRecord builds a correctly framed record from a body.
func frameRecord(body []byte) []byte {
	out := make([]byte, recordHeaderSize+len(body))
	putU32(out[0:4], uint32(len(body)))
	putU32(out[4:8], crc32.Checksum(body, crcTable))
	copy(out[recordHeaderSize:], body)
	return out
}

// TestRecoverCrashPoints drives the torn-write/corruption matrix: each case
// damages a clean 5-record segment at a chosen byte and asserts how many
// records survive recovery. Recovery must never error on tail damage —
// that is the expected crash artifact — and must drop everything from the
// first bad record onward (fsync ordering means no later record was ever
// acknowledged durable).
func TestRecoverCrashPoints(t *testing.T) {
	const n = 5
	cases := []struct {
		name    string
		damage  func(t *testing.T, path string, offs []int64)
		want    int   // records recovered
		minTrim int64 // minimum TruncatedBytes reported
	}{
		{
			name:   "clean",
			damage: func(t *testing.T, path string, offs []int64) {},
			want:   n,
		},
		{
			name: "torn-record-body",
			damage: func(t *testing.T, path string, offs []int64) {
				truncateAt(t, path, offs[n]-3)
			},
			want:    n - 1,
			minTrim: 1,
		},
		{
			name: "torn-record-header",
			damage: func(t *testing.T, path string, offs []int64) {
				truncateAt(t, path, offs[n-1]+4)
			},
			want:    n - 1,
			minTrim: 1,
		},
		{
			name: "corrupt-last-crc",
			damage: func(t *testing.T, path string, offs []int64) {
				flipByte(t, path, offs[n-1]+recordHeaderSize) // first body byte
			},
			want:    n - 1,
			minTrim: 1,
		},
		{
			name: "corrupt-mid-record",
			damage: func(t *testing.T, path string, offs []int64) {
				flipByte(t, path, offs[1]+recordHeaderSize+2)
			},
			want:    1, // records after the bad one were never acked durable
			minTrim: 1,
		},
		{
			name: "implausible-length",
			damage: func(t *testing.T, path string, offs []int64) {
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatalf("OpenFile: %v", err)
				}
				defer f.Close()
				var huge [4]byte
				binary.BigEndian.PutUint32(huge[:], 0xffffffff)
				if _, err := f.WriteAt(huge[:], offs[n-1]); err != nil {
					t.Fatalf("WriteAt: %v", err)
				}
			},
			want:    n - 1,
			minTrim: 1,
		},
		{
			name: "garbage-tail",
			damage: func(t *testing.T, path string, offs []int64) {
				appendRaw(t, path, []byte("\x00\x00\x00\x0bnot a frame"))
			},
			want:    n,
			minTrim: 1,
		},
		{
			name: "torn-segment-header",
			damage: func(t *testing.T, path string, offs []int64) {
				truncateAt(t, path, 3)
			},
			want:    0,
			minTrim: 1,
		},
		{
			name: "empty-file",
			damage: func(t *testing.T, path string, offs []int64) {
				truncateAt(t, path, 0)
			},
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := buildLog(t, dir, n)
			offs := recordOffsets(t, path)
			tc.damage(t, path, offs)

			l := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
			recs, st := replayAll(t, l)
			if len(recs) != tc.want {
				t.Fatalf("recovered %d records, want %d (stats %+v, open %+v)",
					len(recs), tc.want, st, l.Stats())
			}
			for i, r := range recs {
				if !reflect.DeepEqual(r.Update, testUpdate(i)) {
					t.Fatalf("recovered record %d = %+v, want testUpdate(%d)", i, r.Update, i)
				}
			}
			if got := l.Stats().TruncatedBytes; got < tc.minTrim {
				t.Fatalf("TruncatedBytes = %d, want >= %d", got, tc.minTrim)
			}
			// The log must accept appends after recovery, and a second
			// recovery must see old + new records: truncation repaired the
			// file, not just skipped the damage.
			if err := l.Append(testUpdate(100)); err != nil {
				t.Fatalf("Append after recovery: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l2 := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
			defer l2.Close()
			recs2, _ := replayAll(t, l2)
			if len(recs2) != tc.want+1 {
				t.Fatalf("second recovery saw %d records, want %d", len(recs2), tc.want+1)
			}
			if got := l2.Stats().TruncatedBytes; got != 0 {
				t.Fatalf("second recovery still truncating (%d bytes); repair was not persisted", got)
			}
		})
	}
}

// TestRecoverDuplicateRecords replays byte-identical duplicated records —
// a crash between apply and ack can legitimately log twice — and asserts
// both copies are delivered (dedup is the store's job; Apply is
// idempotent per (origin, seq)).
func TestRecoverDuplicateRecords(t *testing.T) {
	dir := t.TempDir()
	path := buildLog(t, dir, 3)
	offs := recordOffsets(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	appendRaw(t, path, data[offs[2]:offs[3]]) // duplicate the last record verbatim

	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	defer l.Close()
	recs, _ := replayAll(t, l)
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4 (duplicate included)", len(recs))
	}
	if !reflect.DeepEqual(recs[2].Update, recs[3].Update) {
		t.Fatalf("duplicate record diverged: %+v vs %+v", recs[2].Update, recs[3].Update)
	}
}

// TestRecoverUnknownKindSkipped: a checksum-valid record with an unknown
// kind (a future format, or checksum-colliding garbage) is skipped and
// counted, never delivered and never fatal.
func TestRecoverUnknownKindSkipped(t *testing.T) {
	dir := t.TempDir()
	path := buildLog(t, dir, 2)
	appendRaw(t, path, frameRecord([]byte{0x7f, 1, 2, 3}))

	cm := &countingMetrics{}
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever, Metrics: cm})
	defer l.Close()
	recs, st := replayAll(t, l)
	if len(recs) != 2 || st.Skipped != 1 {
		t.Fatalf("recovered %d records, skipped %d; want 2 and 1", len(recs), st.Skipped)
	}
	if cm.get(MetricRecoverSkippedRecords) != 1 {
		t.Fatalf("skipped-records counter = %v, want 1", cm.get(MetricRecoverSkippedRecords))
	}
}

// TestRecoverUndecodableBodySkipped: checksum-valid but semantically
// broken update bodies (stray trailing bytes) are skipped, not replayed.
func TestRecoverUndecodableBodySkipped(t *testing.T) {
	dir := t.TempDir()
	path := buildLog(t, dir, 2)
	body := append([]byte{byte(RecordUpdate)}, store.AppendUpdate(nil, testUpdate(9))...)
	body = append(body, 0xde, 0xad) // stray bytes after a valid update
	appendRaw(t, path, frameRecord(body))

	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever})
	defer l.Close()
	recs, st := replayAll(t, l)
	if len(recs) != 2 || st.Skipped != 1 {
		t.Fatalf("recovered %d records, skipped %d; want 2 and 1", len(recs), st.Skipped)
	}
}

// TestRecoverEmptySegments: header-only segments anywhere in the sequence
// are valid and contribute nothing.
func TestRecoverEmptySegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	appendN(t, l, 0, 20)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	idxs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	max := idxs[len(idxs)-1]
	// A sealed header-only segment (a rotation that never took appends).
	if err := os.WriteFile(segmentPath(dir, max+1), segmentHeader(), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// A zero-length trailing segment, as left by a crash inside segment
	// creation before the header hit disk.
	if err := os.WriteFile(segmentPath(dir, max+2), nil, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	l2 := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	appendN(t, l2, 20, 3) // new appends land past the empty segments
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l3 := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	defer l3.Close()
	recs, _ := replayAll(t, l3)
	if len(recs) != 23 {
		t.Fatalf("recovered %d records with empty segments present, want 23", len(recs))
	}
	for i, r := range recs {
		if !reflect.DeepEqual(r.Update, testUpdate(i)) {
			t.Fatalf("record %d out of order across empty segments", i)
		}
	}
}

// TestRecoverSealedDamageStrictVsSalvage: damage outside the tail segment
// is not a crash artifact (sealed segments are fsynced before a successor
// exists). Strict mode refuses to open; salvage mode keeps the valid
// prefix and counts the segment.
func TestRecoverSealedDamageStrictVsSalvage(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	appendN(t, l, 0, 40)
	if segs := l.Segments(); segs < 3 {
		t.Fatalf("want multiple segments, got %d", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	firstOffs := recordOffsets(t, segmentPath(dir, 1))
	flipByte(t, segmentPath(dir, 1), firstOffs[1]+recordHeaderSize+1)

	if _, err := Open(Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256, Strict: true}); err == nil {
		t.Fatalf("Strict open accepted a damaged sealed segment")
	} else if !strings.Contains(err.Error(), "sealed segment") {
		t.Fatalf("Strict open error = %v, want sealed-segment mention", err)
	}

	l2 := mustOpen(t, Options{Dir: dir, Policy: SyncNever, SegmentBytes: 256})
	defer l2.Close()
	recs, _ := replayAll(t, l2)
	if len(recs) >= 40 || len(recs) < 1 {
		t.Fatalf("salvage recovered %d records, want a strict subset keeping the valid prefix", len(recs))
	}
	if !reflect.DeepEqual(recs[0].Update, testUpdate(0)) {
		t.Fatalf("salvaged prefix lost record 0: %+v", recs[0].Update)
	}
	if got := l2.Stats().SkippedSegments; got != 1 {
		t.Fatalf("SkippedSegments = %d, want 1", got)
	}
	// Ensure the damaged file itself was not modified: salvage is
	// read-only outside the tail.
	if _, err := os.Stat(filepath.Join(dir, "wal-00000001.seg")); err != nil {
		t.Fatalf("sealed segment removed by salvage: %v", err)
	}
}
