package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/p2pgossip/update/internal/version"
)

// A snapshot is the complete resident update log plus the per-origin
// compacted watermark, in the codec of codec.go:
//
//	snapshot = magic "PPSN" | format u8 | clock compacted |
//	           uvarint n | n × update
//
// Items, branches and the vector clock are derived state — replaying the
// log through Apply and adopting the watermark reconstructs them exactly
// (Apply is order-independent and idempotent, which the property tests
// assert). The watermark carries only origins with a non-zero frontier, so
// an uncompacted store's watermark is the empty clock.
const snapshotMagic = "PPSN"

// snapshotFormatVersion is the format byte after the magic. Format 1 was
// an encoding/gob stream; decoders reject every format they do not speak.
const snapshotFormatVersion = 2

// ErrLegacySnapshot reports a format-1 (encoding/gob) snapshot or WAL
// checkpoint. There is no in-place converter: the node starts empty and
// anti-entropy refills it.
var ErrLegacySnapshot = errors.New("store: legacy gob snapshot (format 1) is no longer readable; " +
	"move it (or the WAL directory holding it) aside and restart empty so anti-entropy and " +
	"snapshot catch-up refill the node (docs/OPERATIONS.md, \"Migrating gob snapshots/checkpoints\")")

// encodeSnapshot serialises a complete, canonically ordered update log to w.
// Store and Sharded both feed it MissingFor(nil) and their compacted
// watermark, whose encoding is canonical — so the bytes a snapshot produces
// depend only on the logical contents, never on shard count. compacted is
// the caller's own copy: its zero entries are dropped in place.
func encodeSnapshot(w io.Writer, updates []Update, compacted version.Clock) error {
	for origin, seq := range compacted {
		if seq == 0 {
			delete(compacted, origin)
		}
	}
	size := len(snapshotMagic) + 1 + ClockSize(compacted) + UvarintSize(uint64(len(updates)))
	for _, u := range updates {
		size += UpdateSize(u)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapshotMagic...)
	buf = append(buf, snapshotFormatVersion)
	buf = AppendClock(buf, compacted)
	buf = binary.AppendUvarint(buf, uint64(len(updates)))
	for _, u := range updates {
		buf = AppendUpdate(buf, u)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	return nil
}

// decodeSnapshot reads a snapshot stream back into its update log and
// compacted watermark (nil when the snapshot was uncompacted).
func decodeSnapshot(r io.Reader) ([]Update, version.Clock, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	updates, compacted, err := decodeSnapshotBytes(data)
	if err != nil && !errors.Is(err, ErrLegacySnapshot) {
		err = fmt.Errorf("store: read snapshot: %w", err)
	}
	return updates, compacted, err
}

// decodeSnapshotBytes decodes one snapshot. Like every decoder of the
// codec it is canonical: whatever it accepts, encodeSnapshot reproduces
// byte for byte.
func decodeSnapshotBytes(data []byte) ([]Update, version.Clock, error) {
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		// A gob stream opens with the definition of the snapshot struct,
		// whose first field name makes format 1 recognisable.
		if bytes.Contains(data[:min(len(data), 64)], []byte("FormatVersion")) {
			return nil, nil, ErrLegacySnapshot
		}
		return nil, nil, errors.New("not a snapshot (bad magic)")
	}
	d := NewDecoder(data[len(snapshotMagic):])
	format, err := d.Byte()
	if err != nil {
		return nil, nil, err
	}
	if format != snapshotFormatVersion {
		return nil, nil, fmt.Errorf("snapshot format %d unsupported (want %d)", format, snapshotFormatVersion)
	}
	compacted, err := d.Clock(nil)
	if err != nil {
		return nil, nil, err
	}
	for origin, seq := range compacted {
		if seq == 0 {
			return nil, nil, fmt.Errorf("zero compaction frontier for %q", origin)
		}
	}
	if len(compacted) == 0 {
		compacted = nil
	}
	n, err := d.Count(UpdateMinSize)
	if err != nil {
		return nil, nil, err
	}
	updates := make([]Update, 0, min(n, MaxPrealloc))
	var prev Update
	for i := uint64(0); i < n; i++ {
		// The previous update's origin and key seed the decoder's string
		// caches: a snapshot lists each origin's updates contiguously.
		u := Update{Origin: prev.Origin, Key: prev.Key}
		if err := d.Update(&u); err != nil {
			return nil, nil, err
		}
		updates = append(updates, u)
		prev = u
	}
	if err := d.End("snapshot"); err != nil {
		return nil, nil, err
	}
	return updates, compacted, nil
}

// DecodeSnapshot reads a snapshot stream produced by any Backend's
// WriteSnapshot back into its resident update log and compacted watermark
// (nil when the snapshot was uncompacted). It is the shared decoder of every
// restore path, including the engine's snapshot catch-up frames: apply the
// updates, then AdoptFrontier the watermark.
func DecodeSnapshot(r io.Reader) ([]Update, version.Clock, error) {
	return decodeSnapshot(r)
}

// WriteSnapshot serialises the store's resident update log and compacted
// watermark to w.
func (s *Store) WriteSnapshot(w io.Writer) error {
	// One read lock for both halves: a compaction between reading the log
	// and the watermark could otherwise pair fresh entries with a stale
	// frontier.
	s.mu.RLock()
	var updates []Update
	if total := s.data.missingCount(nil); total > 0 {
		updates = s.data.appendMissing(make([]Update, 0, total), nil)
	}
	compacted := s.data.compacted.Clone()
	s.mu.RUnlock()
	return encodeSnapshot(w, updates, compacted)
}

// ReadSnapshot reconstructs a store from a snapshot written by
// WriteSnapshot, with the given tombstone retention.
func ReadSnapshot(r io.Reader, retain time.Duration) (*Store, error) {
	updates, compacted, err := decodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	st := NewWithRetention(retain)
	for _, u := range updates {
		st.Apply(u)
	}
	st.AdoptFrontier(compacted)
	return st, nil
}

// RestoreSnapshot replaces the store's contents with a snapshot previously
// produced by WriteSnapshot, keeping the store pointer — and any registered
// apply hook — stable for the engines and writers wired to it. The store's
// current tombstone retention is kept. It is the restart path: a recovering
// replica restores its durable log here, then resyncs its Writer so new
// updates never reuse sequence numbers.
func (s *Store) RestoreSnapshot(r io.Reader) error {
	s.mu.RLock()
	retain := s.tombRetain
	s.mu.RUnlock()
	restored, err := ReadSnapshot(r, retain)
	if err != nil {
		return err
	}
	s.Replace(restored)
	return nil
}

// Replace swaps the store's contents for those of other. It backs restores
// into an already-wired store (the live runtime hands its store to the
// writer and transport handlers at construction time, so the pointer must
// remain stable).
func (s *Store) Replace(other *Store) {
	other.mu.RLock()
	items := make(map[string][]Revision, len(other.items))
	for k, revs := range other.items {
		copied := make([]Revision, len(revs))
		for i, r := range revs {
			copied[i] = cloneRevision(r)
		}
		items[k] = copied
	}
	log := make(map[string][]Update, len(other.data.log))
	for origin, updates := range other.data.log {
		copied := make([]Update, len(updates))
		for i, u := range updates {
			copied[i] = cloneUpdate(u)
		}
		log[origin] = copied
	}
	clock := other.data.clock.Clone()
	compacted := other.data.compacted.Clone()
	retain := other.tombRetain
	other.mu.RUnlock()

	origins := make([]string, 0, len(log))
	for origin := range log {
		origins = append(origins, origin)
	}
	sort.Strings(origins)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = items
	s.data = originLog{log: log, origins: origins, clock: clock, compacted: compacted}
	s.tombRetain = retain
}
