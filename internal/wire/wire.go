// Package wire defines the transport-independent message format of the live
// (asynchronous) runtime and its codec.
//
// The paper keeps the propagation mechanism orthogonal to the physical
// network (§1); this package is the concrete boundary: the same envelopes
// travel over in-memory channels in tests and over TCP in deployments.
//
// The codec (binary.go) is hand-rolled: length-prefixed frames, varint
// integers, clocks and update references encoded directly from their
// protocol types, pooled buffers, so a push fanout encodes its envelope once
// and reuses the bytes for every destination. Updates, version histories
// and clocks inside an envelope use the store codec (internal/store), the
// same bytes the write-ahead log and snapshots hold.
package wire

import (
	"fmt"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// Kind discriminates envelope payloads.
type Kind int

// Envelope kinds.
const (
	// KindPush carries an update push.
	KindPush Kind = iota + 1
	// KindPullReq asks for missing updates.
	KindPullReq
	// KindPullResp ships missing updates.
	KindPullResp
	// KindAck acknowledges an update receipt.
	KindAck
	// KindQuery asks a replica for its current revision of a key (§4.4).
	KindQuery
	// KindQueryResp answers a query.
	KindQueryResp
	// KindSnapshot answers a pull request whose gap is compacted away (or
	// exceeds the snapshot threshold) with the responder's entire resident
	// state in one frame.
	KindSnapshot

	// kindMax bounds the valid kind range for the binary decoder.
	kindMax = KindSnapshot
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPush:
		return "push"
	case KindPullReq:
		return "pull-req"
	case KindPullResp:
		return "pull-resp"
	case KindAck:
		return "ack"
	case KindQuery:
		return "query"
	case KindQueryResp:
		return "query-resp"
	case KindSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Envelope is one transport message.
type Envelope struct {
	// Kind selects which payload fields are meaningful.
	Kind Kind
	// From is the sender's address.
	From string
	// Update is set for KindPush. Senders hand the envelope a private copy
	// of the value; decoded updates own fresh value and history backing.
	Update store.Update
	// RF is the partial flooding list (addresses) for KindPush.
	RF []string
	// T is the push round counter for KindPush.
	T int
	// Clock is the requester's vector clock for KindPullReq, carried
	// directly — the hot path pays no map copy.
	Clock version.Clock
	// Updates are the missing updates for KindPullResp.
	Updates []store.Update
	// KnownPeers is a membership sample piggybacked on KindPullResp and
	// KindSnapshot — the name-dropper effect applied to the pull phase, which
	// bootstraps the views of freshly joined replicas.
	KnownPeers []string
	// Snapshot is the responder's serialised resident state for KindSnapshot
	// (the shared store snapshot encoding, opaque to the wire layer).
	Snapshot []byte
	// UpdateRef identifies the acknowledged update for KindAck. The
	// comparable (origin, seq) form travels as-is; no "origin/seq" string is
	// formatted or parsed on the ack path.
	UpdateRef store.Ref
	// QID correlates KindQuery/KindQueryResp pairs.
	QID int64
	// Key is the queried key for KindQuery/KindQueryResp.
	Key string
	// Found reports whether the responder holds a live revision
	// (KindQueryResp).
	Found bool
	// Value and Version carry the responder's winning revision
	// (KindQueryResp).
	Value []byte
	// Version is the revision's history.
	Version version.History
	// Confident is false when the responder suspects it is stale.
	Confident bool
}
