package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"github.com/p2pgossip/update/internal/version"
)

// This file is the system's one binary encoding of protocol state: updates,
// version histories and vector clocks. Wire envelopes (internal/wire),
// write-ahead-log records (internal/wal) and snapshots (snapshot.go) all
// embed these exact bytes, so an update has the same encoding on the wire,
// in the log and in a checkpoint. Layout (multi-byte integers big-endian,
// uvarint is the unsigned LEB128 of encoding/binary):
//
//	str     = uvarint n | n bytes
//	blob    = uvarint n | n bytes
//	i64     = 8 bytes big-endian (two's complement)
//	hist    = uvarint n | n × 16 bytes          version identifiers
//	clock   = uvarint n | n × (str origin, uvarint count)   origins ascending
//	update  = str origin | uvarint seq | str key | blob value |
//	          flags u8 (bit0 = delete) | hist version | i64 stamp (UnixNano)
//
// Every value has exactly one encoding: uvarints are minimal, clock origins
// are sorted and unique, unknown flag bits are rejected. The Decoder
// enforces all of it, so decode∘encode is the identity on bytes, and it
// bounds every count against the bytes actually remaining, so hostile
// input cannot force allocation beyond its own length.

// UpdateMinSize is the smallest encoded update: five 1-byte empty fields,
// the flag byte, and the 8-byte stamp.
const UpdateMinSize = 14

// flagDelete is the delete bit of the update flag byte.
const flagDelete = 1 << 0

// MaxPrealloc caps count-driven pre-allocation in every decoder of these
// bytes (snapshots, wire envelopes, WAL records); input that claims more
// entries earns its memory incrementally, as entries actually parse, so
// allocation tracks bytes consumed rather than a claimed count.
const MaxPrealloc = 4096

// --- Sizes -------------------------------------------------------------
//
// The size functions mirror the append functions exactly; the simulator's
// byte accounting (internal/gossip) charges the real encoded size without
// encoding.

// UvarintSize returns the encoded length of x as a uvarint.
func UvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// StringSize returns the encoded length of a str field.
func StringSize(s string) int { return UvarintSize(uint64(len(s))) + len(s) }

// BlobSize returns the encoded length of a blob field.
func BlobSize(b []byte) int { return UvarintSize(uint64(len(b))) + len(b) }

// HistorySize returns the encoded length of a version history with n
// entries.
func HistorySize(n int) int { return UvarintSize(uint64(n)) + n*version.IDSize }

// ClockSize returns the encoded length of a vector clock.
func ClockSize(c version.Clock) int {
	n := UvarintSize(uint64(len(c)))
	for origin, count := range c {
		n += StringSize(origin) + UvarintSize(count)
	}
	return n
}

// UpdateSize returns the encoded length of one update.
func UpdateSize(u Update) int {
	return StringSize(u.Origin) + UvarintSize(u.Seq) + StringSize(u.Key) +
		BlobSize(u.Value) + 1 + HistorySize(len(u.Version)) + 8
}

// --- Encoding ----------------------------------------------------------

// AppendString appends a str field.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBlob appends a blob field.
func AppendBlob(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendI64 appends an i64 field.
func AppendI64(dst []byte, x int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(x))
}

// AppendHistory appends a version history.
func AppendHistory(dst []byte, h version.History) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(h)))
	for i := range h {
		dst = append(dst, h[i][:]...)
	}
	return dst
}

// AppendClock appends a vector clock in sorted origin order. The sort makes
// the encoding canonical — one byte string per clock — so encodings are
// reproducible and the decoder can enforce uniqueness for free.
func AppendClock(dst []byte, c version.Clock) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(c)))
	if len(c) == 0 {
		return dst
	}
	if len(c) == 1 {
		for origin, count := range c {
			dst = AppendString(dst, origin)
			dst = binary.AppendUvarint(dst, count)
		}
		return dst
	}
	origins := make([]string, 0, len(c))
	for origin := range c {
		origins = append(origins, origin)
	}
	sort.Strings(origins)
	for _, origin := range origins {
		dst = AppendString(dst, origin)
		dst = binary.AppendUvarint(dst, c[origin])
	}
	return dst
}

// AppendUpdate appends one update. It borrows u's value and history only
// for the duration of the call.
func AppendUpdate(dst []byte, u Update) []byte {
	dst = AppendString(dst, u.Origin)
	dst = binary.AppendUvarint(dst, u.Seq)
	dst = AppendString(dst, u.Key)
	dst = AppendBlob(dst, u.Value)
	var flags byte
	if u.Delete {
		flags |= flagDelete
	}
	dst = append(dst, flags)
	dst = AppendHistory(dst, u.Version)
	return AppendI64(dst, u.Stamp.UnixNano())
}

// --- Decoding ----------------------------------------------------------

// errTruncated reports a field running past the end of the input.
var errTruncated = errors.New("store: truncated encoding")

// Decoder is a bounds-checked cursor over one encoded buffer. Strings,
// values and histories it returns are freshly allocated, never aliasing
// the buffer, so callers may reuse the buffer once a decode returns.
type Decoder struct {
	data []byte
	off  int
}

// NewDecoder returns a decoder positioned at the start of data.
func NewDecoder(data []byte) Decoder { return Decoder{data: data} }

// remaining returns the number of undecoded bytes.
func (d *Decoder) remaining() int { return len(d.data) - d.off }

// End fails when bytes remain after the last field: every buffer holds
// exactly one encoding, so trailing bytes mean corruption.
func (d *Decoder) End(what string) error {
	if n := d.remaining(); n != 0 {
		return fmt.Errorf("store: %d stray bytes after %s", n, what)
	}
	return nil
}

// Byte decodes one raw byte.
func (d *Decoder) Byte() (byte, error) {
	if d.off >= len(d.data) {
		return 0, errTruncated
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

// Uvarint decodes a minimally encoded uvarint.
func (d *Decoder) Uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.data[d.off:])
	// Rejecting non-minimal encodings keeps the codec canonical.
	if n <= 0 || n != UvarintSize(x) {
		return 0, fmt.Errorf("store: bad uvarint at offset %d", d.off)
	}
	d.off += n
	return x, nil
}

// Count decodes an entry count and rejects it when the remaining bytes
// cannot hold that many entries of at least minSize bytes each.
func (d *Decoder) Count(minSize int) (uint64, error) {
	n, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	// The first test bounds n, so the product cannot overflow.
	if rem := d.remaining(); n > uint64(rem) || int(n)*minSize > rem {
		return 0, errTruncated
	}
	return n, nil
}

// take returns the next n raw bytes, aliasing the buffer.
func (d *Decoder) take(n int) ([]byte, error) {
	if n < 0 || n > d.remaining() {
		return nil, errTruncated
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
}

// field returns the bytes of one length-prefixed field, aliasing the
// buffer.
func (d *Decoder) field() ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.remaining()) {
		return nil, errTruncated
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// Str decodes a str field.
func (d *Decoder) Str() (string, error) {
	b, err := d.field()
	return string(b), err
}

// StrCached is Str with a single-entry cache: when the bytes match prev the
// existing string is reused instead of allocating. Streams repeat sender
// addresses, origins and keys, so most fields hit it.
func (d *Decoder) StrCached(prev string) (string, error) {
	b, err := d.field()
	if err != nil {
		return "", err
	}
	if string(b) == prev { // comparison, no conversion allocation
		return prev, nil
	}
	return string(b), nil
}

// Blob decodes a blob field into a fresh copy (nil when empty): values
// escape into stores and query state, so they must not alias the buffer.
func (d *Decoder) Blob() ([]byte, error) {
	b, err := d.field()
	if err != nil || len(b) == 0 {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// I64 decodes an i64 field.
func (d *Decoder) I64() (int64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(b)), nil
}

// History decodes a version history into fresh backing (histories escape
// into stores).
func (d *Decoder) History() (version.History, error) {
	n, err := d.Count(version.IDSize)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make(version.History, n)
	for i := range out {
		b, _ := d.take(version.IDSize)
		copy(out[i][:], b)
	}
	return out, nil
}

// Clock decodes a vector clock, reusing dst's storage when non-nil.
func (d *Decoder) Clock(dst version.Clock) (version.Clock, error) {
	n, err := d.Count(2) // each entry: empty origin + 1-byte count
	if err != nil {
		return nil, err
	}
	var cached string
	if len(dst) == 1 {
		// Single-origin clocks (a young deployment pulling from its writer)
		// repeat the same key message after message; keep it across the
		// clear.
		for k := range dst {
			cached = k
		}
	}
	if dst == nil {
		dst = make(version.Clock, min(n, MaxPrealloc))
	} else {
		clear(dst)
	}
	prev := ""
	for i := uint64(0); i < n; i++ {
		origin, err := d.StrCached(cached)
		if err != nil {
			return nil, err
		}
		// Sorted and unique keeps the encoding canonical and rejects
		// duplicate keys.
		if i > 0 && origin <= prev {
			return nil, errors.New("store: clock origins out of order")
		}
		prev = origin
		count, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		dst[origin] = count
	}
	return dst, nil
}

// Update decodes one update into u. The origin and key strings of u's
// previous contents serve as single-entry caches (streams repeat both), so
// callers pass a reused struct rather than a zero one.
func (d *Decoder) Update(u *Update) error {
	var err error
	if u.Origin, err = d.StrCached(u.Origin); err != nil {
		return err
	}
	if u.Seq, err = d.Uvarint(); err != nil {
		return err
	}
	if u.Key, err = d.StrCached(u.Key); err != nil {
		return err
	}
	if u.Value, err = d.Blob(); err != nil {
		return err
	}
	flags, err := d.Byte()
	if err != nil {
		return err
	}
	// Unknown flag bits are rejected, not ignored: accepting them would
	// break canonicality (the re-encode clears them) and silently discard
	// future format bits.
	if flags&^byte(flagDelete) != 0 {
		return fmt.Errorf("store: unknown update flags %#x", flags)
	}
	u.Delete = flags&flagDelete != 0
	if u.Version, err = d.History(); err != nil {
		return err
	}
	stamp, err := d.I64()
	u.Stamp = time.Unix(0, stamp)
	return err
}

// DecodeUpdate decodes a buffer holding exactly one update.
func DecodeUpdate(data []byte) (Update, error) {
	d := NewDecoder(data)
	var u Update
	if err := d.Update(&u); err != nil {
		return Update{}, err
	}
	if err := d.End("update"); err != nil {
		return Update{}, err
	}
	return u, nil
}

// DecodeClock decodes a buffer holding exactly one clock.
func DecodeClock(data []byte) (version.Clock, error) {
	d := NewDecoder(data)
	c, err := d.Clock(nil)
	if err != nil {
		return nil, err
	}
	if err := d.End("clock"); err != nil {
		return nil, err
	}
	return c, nil
}
