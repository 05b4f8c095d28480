package store

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/version"
)

// snapshotSeeds returns snapshots covering the format's shapes: empty, a
// single origin with overwrites and a tombstone, several origins, and a
// compacted watermark.
func snapshotSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	add := func(st *Store) {
		var buf bytes.Buffer
		if err := st.WriteSnapshot(&buf); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	add(New())

	st := New()
	w := testWriter(tb, "a", st, 1)
	w.Put("x", []byte("1"))
	w.Put("x", []byte("2"))
	w.Delete("x")
	add(st)

	b := testWriter(tb, "b:7946", st, 2)
	b.Put("y", []byte("hello"))
	st.AdoptFrontier(version.Clock{"c:7946": 12})
	add(st)
	return seeds
}

// FuzzSnapshotDecode hardens the snapshot decoder, which reads bytes from
// disk (WAL checkpoints), from peers (catch-up frames) and from clients
// (PUT /v1/snapshot): arbitrary bytes must never panic or allocate beyond
// their own size, anything that decodes must re-encode to the identical
// bytes, and must restore into a store.
func FuzzSnapshotDecode(f *testing.F) {
	for _, seed := range snapshotSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte(snapshotMagic))
	f.Add([]byte(snapshotMagic + "\x02\x00\xff\xff\xff\xff\x0f"))
	f.Add([]byte("garbage input"))

	f.Fuzz(func(t *testing.T, data []byte) {
		updates, compacted, err := decodeSnapshotBytes(data)
		if err != nil {
			return // malformed input is rejected, never panics
		}
		var buf bytes.Buffer
		if err := encodeSnapshot(&buf, updates, compacted.Clone()); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("re-encoding is not canonical:\n in  %x\n out %x", data, buf.Bytes())
		}
		if _, err := ReadSnapshot(bytes.NewReader(data), time.Hour); err != nil {
			t.Fatalf("decodable snapshot does not restore: %v", err)
		}
	})
}

// TestSnapshotDecodeBoundsClaimedCounts: counts that the remaining bytes
// cannot hold are rejected before anything is allocated for them.
func TestSnapshotDecodeBoundsClaimedCounts(t *testing.T) {
	for name, data := range map[string]string{
		"updates": snapshotMagic + "\x02\x00\xff\xff\xff\xff\x0f",
		"clock":   snapshotMagic + "\x02\xff\xff\xff\xff\x0f",
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := decodeSnapshotBytes([]byte(data)); err == nil {
				t.Fatalf("%s: huge count decoded", name)
			}
		})
		if allocs > 2 {
			t.Fatalf("%s: rejecting a huge count allocated %.0f times", name, allocs)
		}
	}
}

// TestSnapshotRejectsNonCanonical: encodings the encoder never produces
// do not decode, so every accepted snapshot has exactly one byte form.
func TestSnapshotRejectsNonCanonical(t *testing.T) {
	for name, data := range map[string]string{
		"zero frontier":   snapshotMagic + "\x02\x01\x01a\x00\x00",
		"unknown format":  snapshotMagic + "\x01\x00\x00",
		"trailing byte":   snapshotMagic + "\x02\x00\x00\x00",
		"no format byte":  snapshotMagic,
		"padded count":    snapshotMagic + "\x02\x00\x80\x00",
		"unsorted clock":  snapshotMagic + "\x02\x02\x01b\x01\x01a\x01\x00",
		"truncated magic": snapshotMagic[:2],
	} {
		if _, _, err := decodeSnapshotBytes([]byte(data)); err == nil {
			t.Fatalf("%s: decoded", name)
		}
	}
}

// TestLegacyGobSnapshotRejected: a format-1 (encoding/gob) snapshot, as the
// gob-era code wrote it (testdata/legacy-gob-v1.snap), is refused with the
// error that names the migration, by every restore path.
func TestLegacyGobSnapshotRejected(t *testing.T) {
	raw, err := os.ReadFile("testdata/legacy-gob-v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	check := func(path string, err error) {
		t.Helper()
		if !errors.Is(err, ErrLegacySnapshot) {
			t.Fatalf("%s: err = %v, want ErrLegacySnapshot", path, err)
		}
		if !strings.Contains(err.Error(), "Migrating gob snapshots/checkpoints") {
			t.Fatalf("%s: error does not name the migration: %v", path, err)
		}
	}
	_, _, err = DecodeSnapshot(bytes.NewReader(raw))
	check("DecodeSnapshot", err)
	check("Store.RestoreSnapshot", New().RestoreSnapshot(bytes.NewReader(raw)))
	check("Sharded.RestoreSnapshot", NewSharded(4).RestoreSnapshot(bytes.NewReader(raw)))

	// Garbage is not mistaken for a legacy snapshot.
	if _, _, err := DecodeSnapshot(strings.NewReader("not a snapshot")); err == nil || errors.Is(err, ErrLegacySnapshot) {
		t.Fatalf("garbage: err = %v", err)
	}
}
