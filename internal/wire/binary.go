package wire

import (
	"encoding/binary"
	"fmt"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// This file is the hand-rolled binary envelope codec — the format the
// transports actually speak. Layout (all multi-byte integers big-endian;
// str, blob, i64, hist, clock and update are the store codec's encodings,
// internal/store/codec.go):
//
//	frame    = len u32 | body                    len = length of body
//	body     = ver u8 | kind u8 | from str | payload
//
// Per-kind payloads:
//
//	push      = update | uvarint nRF × str | uvarint t
//	pull-req  = clock
//	pull-resp = uvarint nUpd × update | uvarint nPeers × str
//	ack       = str origin | uvarint seq
//	query     = i64 qid | str key
//	queryresp = i64 qid | str key | flags u8 (bit0 found, bit1 confident) |
//	            blob value | hist version
//	snapshot  = blob snapshot | uvarint nPeers × str
//
// The leading format-version byte exists for evolution: a node seeing an
// unknown version drops the connection instead of misparsing. The decoder
// bounds every count against the bytes actually remaining, so corrupt or
// hostile input cannot force allocation beyond the (already length-bounded)
// frame it arrived in, and a frame with trailing bytes after its payload is
// rejected — exactly one envelope per frame.

// BinaryVersion is the format-version byte leading every binary envelope
// body. Bump it when the layout changes; decoders reject versions they do
// not speak.
const BinaryVersion = 1

// FrameOverhead is the fixed per-frame cost of the binary codec: the 4-byte
// length prefix, the format-version byte, and the kind byte. The rest of a
// frame is the From address and the kind-specific payload.
const FrameOverhead = 6

// flag bits of the query-response flag byte.
const (
	flagFound     = 1 << 0
	flagConfident = 1 << 1
)

// maxPushRound bounds the push round counter on both codec sides: rounds
// are small in practice, and sharing one bound keeps the invariant that
// everything encodable decodes.
const maxPushRound = 1 << 30

// --- Sizes -------------------------------------------------------------

func strsSize(ss []string) int {
	n := store.UvarintSize(uint64(len(ss)))
	for _, s := range ss {
		n += store.StringSize(s)
	}
	return n
}

// EncodedSize returns the total frame length — FrameOverhead plus body —
// the binary codec produces for env.
func EncodedSize(env *Envelope) int {
	n := FrameOverhead + store.StringSize(env.From)
	switch env.Kind {
	case KindPush:
		n += store.UpdateSize(env.Update) + strsSize(env.RF) + store.UvarintSize(uint64(env.T))
	case KindPullReq:
		n += store.ClockSize(env.Clock)
	case KindPullResp:
		n += store.UvarintSize(uint64(len(env.Updates)))
		for i := range env.Updates {
			n += store.UpdateSize(env.Updates[i])
		}
		n += strsSize(env.KnownPeers)
	case KindAck:
		n += store.StringSize(env.UpdateRef.Origin) + store.UvarintSize(env.UpdateRef.Seq)
	case KindQuery:
		n += 8 + store.StringSize(env.Key)
	case KindQueryResp:
		n += 8 + store.StringSize(env.Key) + 1 + store.BlobSize(env.Value) +
			store.HistorySize(len(env.Version))
	case KindSnapshot:
		n += store.BlobSize(env.Snapshot) + strsSize(env.KnownPeers)
	}
	return n
}

// --- Encoding ----------------------------------------------------------

func appendStrs(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = store.AppendString(dst, s)
	}
	return dst
}

// AppendBody appends the binary body (format version, kind, from, payload —
// everything but the length prefix) of env to dst.
func AppendBody(dst []byte, env *Envelope) ([]byte, error) {
	if env.Kind < KindPush || env.Kind > kindMax {
		return dst, fmt.Errorf("wire: cannot encode kind %d", int(env.Kind))
	}
	// Mirror the decoder's bound exactly: anything encodable must decode.
	if env.T < 0 || env.T > maxPushRound {
		return dst, fmt.Errorf("wire: push round %d out of range", env.T)
	}
	dst = append(dst, BinaryVersion, byte(env.Kind))
	dst = store.AppendString(dst, env.From)
	switch env.Kind {
	case KindPush:
		dst = store.AppendUpdate(dst, env.Update)
		dst = appendStrs(dst, env.RF)
		dst = binary.AppendUvarint(dst, uint64(env.T))
	case KindPullReq:
		dst = store.AppendClock(dst, env.Clock)
	case KindPullResp:
		dst = binary.AppendUvarint(dst, uint64(len(env.Updates)))
		for i := range env.Updates {
			dst = store.AppendUpdate(dst, env.Updates[i])
		}
		dst = appendStrs(dst, env.KnownPeers)
	case KindAck:
		dst = store.AppendString(dst, env.UpdateRef.Origin)
		dst = binary.AppendUvarint(dst, env.UpdateRef.Seq)
	case KindQuery:
		dst = store.AppendI64(dst, env.QID)
		dst = store.AppendString(dst, env.Key)
	case KindQueryResp:
		dst = store.AppendI64(dst, env.QID)
		dst = store.AppendString(dst, env.Key)
		var flags byte
		if env.Found {
			flags |= flagFound
		}
		if env.Confident {
			flags |= flagConfident
		}
		dst = append(dst, flags)
		dst = store.AppendBlob(dst, env.Value)
		dst = store.AppendHistory(dst, env.Version)
	case KindSnapshot:
		dst = store.AppendBlob(dst, env.Snapshot)
		dst = appendStrs(dst, env.KnownPeers)
	}
	return dst, nil
}

// AppendFrame appends the complete frame — length prefix plus body — of env
// to dst. Encoding a frame whose body exceeds MaxFrameBytes fails with
// ErrFrameTooLarge.
func AppendFrame(dst []byte, env *Envelope) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err := AppendBody(dst, env)
	if err != nil {
		return dst[:start], err
	}
	body := len(dst) - start - 4
	if body > MaxFrameBytes {
		return dst[:start], fmt.Errorf("%w: %d bytes > %d", ErrFrameTooLarge, body, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(body))
	return dst, nil
}

// --- Decoding ----------------------------------------------------------

// maxReusedEntries caps the container capacity a decode scratch retains
// between frames, so one legitimately huge frame (up to MaxFrameBytes) is
// not pinned for the connection's lifetime. Count-driven pre-allocation is
// capped by store.MaxPrealloc.
const maxReusedEntries = 4096

// decodeStrs decodes a length-prefixed string list, reusing dst's backing
// array.
func decodeStrs(r *store.Decoder, dst []string) ([]string, error) {
	n, err := r.Count(1) // each entry is at least 1 byte (empty string)
	if err != nil {
		return nil, err
	}
	if uint64(cap(dst)) < n {
		dst = make([]string, 0, min(n, store.MaxPrealloc))
	}
	dst = dst[:0]
	for i := uint64(0); i < n; i++ {
		s, err := r.Str()
		if err != nil {
			return nil, err
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// decodeScratch is the reusable decode state of one frame stream: the
// container backing arrays, the clock map, and the single-entry string
// caches. It lives outside the Envelope so reuse survives interleaved
// kinds — a real connection mixes pushes with acks and pull traffic, and
// an ack between two pushes must not throw the push containers away.
// Retention is capped at maxReusedEntries so one oversized frame does not
// stay pinned for the connection's lifetime.
type decodeScratch struct {
	rf      []string
	peers   []string
	updates []store.Update
	clock   version.Clock
	from    string // sender cache
	origin  string // push-update origin/key caches
	key     string
}

// harvest stores the containers a decode left in env back into the
// scratch, dropping any that grew beyond the retention cap.
func (s *decodeScratch) harvest(env *Envelope) {
	if env.RF != nil && cap(env.RF) <= maxReusedEntries {
		s.rf = env.RF
	}
	if env.KnownPeers != nil && cap(env.KnownPeers) <= maxReusedEntries {
		s.peers = env.KnownPeers
	}
	if env.Updates != nil && cap(env.Updates) <= maxReusedEntries {
		s.updates = env.Updates
	}
	if env.Clock != nil {
		if len(env.Clock) <= maxReusedEntries {
			s.clock = env.Clock
		} else {
			// The decoder filled the retained map in place; a map never
			// shrinks, so an oversized one must be dropped, not kept.
			s.clock = nil
		}
	}
	s.from = env.From
	if env.Kind == KindPush {
		s.origin, s.key = env.Update.Origin, env.Update.Key
	}
}

// DecodeBody decodes one binary envelope body (as framed by AppendFrame,
// prefix stripped) into env, which is reset first. Reusable containers —
// the RF, Updates and KnownPeers backing arrays and the Clock map — are
// taken from env's previous contents, so one-shot callers and same-kind
// loops reuse storage; streaming callers use FrameReader, whose scratch
// survives interleaved kinds. Everything that escapes the envelope
// (strings, values, version histories) is freshly allocated. Malformed
// input — unknown format version or kind, fields past the end, trailing
// bytes — is rejected without panicking, and allocation is proportional to
// the (length-bounded) frame, never to a claimed count alone.
func DecodeBody(data []byte, env *Envelope) error {
	s := decodeScratch{
		rf: env.RF, peers: env.KnownPeers, updates: env.Updates,
		clock: env.Clock, from: env.From,
		origin: env.Update.Origin, key: env.Update.Key,
	}
	return decodeBody(data, env, &s)
}

func decodeBody(data []byte, env *Envelope, s *decodeScratch) error {
	rf, updates, peers, clock := s.rf, s.updates, s.peers, s.clock
	prevFrom := s.from
	prevOrigin, prevKey := s.origin, s.key
	*env = Envelope{}
	r := store.NewDecoder(data)
	ver, err := r.Byte()
	if err != nil {
		return err
	}
	if ver != BinaryVersion {
		return fmt.Errorf("wire: unknown format version %d", ver)
	}
	kind, err := r.Byte()
	if err != nil {
		return err
	}
	if Kind(kind) < KindPush || Kind(kind) > kindMax {
		return fmt.Errorf("wire: unknown kind %d", kind)
	}
	env.Kind = Kind(kind)
	if env.From, err = r.StrCached(prevFrom); err != nil {
		return err
	}
	switch env.Kind {
	case KindPush:
		env.Update.Origin, env.Update.Key = prevOrigin, prevKey
		if err := r.Update(&env.Update); err != nil {
			return err
		}
		if env.RF, err = decodeStrs(&r, rf); err != nil {
			return err
		}
		t, err := r.Uvarint()
		if err != nil {
			return err
		}
		if t > maxPushRound {
			return fmt.Errorf("wire: push round %d out of range", t)
		}
		env.T = int(t)
	case KindPullReq:
		if env.Clock, err = r.Clock(clock); err != nil {
			return err
		}
	case KindPullResp:
		n, err := r.Count(store.UpdateMinSize)
		if err != nil {
			return err
		}
		// Slots are reused (not just the backing array) so each slot's
		// previous origin/key strings serve as the decode caches; beyond the
		// retained capacity the slice grows one parsed entry at a time, so
		// memory tracks bytes consumed, not the claimed count.
		updates = updates[:0]
		for i := uint64(0); i < n; i++ {
			if i < uint64(cap(updates)) {
				updates = updates[:i+1]
			} else {
				updates = append(updates, store.Update{})
			}
			if err := r.Update(&updates[i]); err != nil {
				return err
			}
		}
		env.Updates = updates
		if env.KnownPeers, err = decodeStrs(&r, peers); err != nil {
			return err
		}
	case KindAck:
		if env.UpdateRef.Origin, err = r.Str(); err != nil {
			return err
		}
		if env.UpdateRef.Seq, err = r.Uvarint(); err != nil {
			return err
		}
	case KindQuery:
		if env.QID, err = r.I64(); err != nil {
			return err
		}
		if env.Key, err = r.Str(); err != nil {
			return err
		}
	case KindQueryResp:
		if env.QID, err = r.I64(); err != nil {
			return err
		}
		if env.Key, err = r.Str(); err != nil {
			return err
		}
		flags, err := r.Byte()
		if err != nil {
			return err
		}
		if flags&^byte(flagFound|flagConfident) != 0 {
			return fmt.Errorf("wire: unknown query-resp flags %#x", flags)
		}
		env.Found = flags&flagFound != 0
		env.Confident = flags&flagConfident != 0
		if env.Value, err = r.Blob(); err != nil {
			return err
		}
		if env.Version, err = r.History(); err != nil {
			return err
		}
	case KindSnapshot:
		if env.Snapshot, err = r.Blob(); err != nil {
			return err
		}
		if env.KnownPeers, err = decodeStrs(&r, peers); err != nil {
			return err
		}
	}
	if err := r.End("envelope"); err != nil {
		return err
	}
	s.harvest(env)
	return nil
}

// DecodeBinary decodes one body into a fresh envelope — the one-shot
// convenience for tests and tools; transports use FrameReader, whose
// scratch state survives interleaved kinds.
func DecodeBinary(data []byte) (Envelope, error) {
	var env Envelope
	if err := DecodeBody(data, &env); err != nil {
		return Envelope{}, err
	}
	return env, nil
}

// EncodeBinary encodes env as one body (no length prefix) into fresh
// memory — the one-shot counterpart of DecodeBinary.
func EncodeBinary(env *Envelope) ([]byte, error) {
	return AppendBody(make([]byte, 0, EncodedSize(env)-4), env)
}
