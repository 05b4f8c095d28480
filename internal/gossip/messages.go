package gossip

import (
	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/wire"
)

// Byte accounting. The simulator carries engine.Message values as simnet
// payloads and charges each one the number of bytes the live runtime's
// binary codec (internal/wire) would produce for the equivalent envelope —
// computed with the store codec's exported size functions
// (internal/store/codec.go), so simulated traffic totals cannot drift from
// the real wire format. Peer indices stand in for the canonical simulator
// address "peer-<index>" (the same identity the store writers use), and the
// per-frame fixed costs (length prefix, format version, kind, sender
// address) are added at the send site, which knows the sender.

// peerAddrSize returns the encoded size of the canonical simulator address
// "peer-<id>" without formatting it: the 5-byte prefix plus the decimal
// digits, behind a string-length varint.
func peerAddrSize(id int) int {
	digits := 1
	for v := id; v >= 10; v /= 10 {
		digits++
	}
	return store.UvarintSize(uint64(5+digits)) + 5 + digits
}

// peerListSize returns the encoded size of a peer-index list (count varint
// plus one address per entry).
func peerListSize(ids []int) int {
	n := store.UvarintSize(uint64(len(ids)))
	for _, id := range ids {
		n += peerAddrSize(id)
	}
	return n
}

// frameBytes is the fixed per-message cost: the frame overhead (length
// prefix, format version, kind) plus the sender's address.
func frameBytes(from int) int {
	return wire.FrameOverhead + peerAddrSize(from)
}

// PushBaseBytes returns the binary-encoded size of a push message carrying
// u with an empty flooding list, as sent by peer index `from` — the U term
// of the §4.2 message-size model S_M(t) = U + γ·R·L(t). The flooding-list
// term is charged separately (γ per carried entry).
func PushBaseBytes(u store.Update, from int) int {
	// T = 3: a typical 1-byte round counter.
	return frameBytes(from) + payloadBytes(engine.Message[int]{Kind: engine.KindPush, Update: u, T: 3})
}

// payloadBytes is the binary-encoded size of a message's payload — the
// fields the live codec writes for its kind. Peer indices in flooding lists
// and membership samples are charged as their "peer-<index>" addresses;
// clock origins and update references already are those strings.
func payloadBytes(m engine.Message[int]) int {
	switch m.Kind {
	case engine.KindPush:
		// The update record, the flooding list, and the round counter.
		return store.UpdateSize(m.Update) + peerListSize(m.RF) +
			store.UvarintSize(uint64(m.T))
	case engine.KindPullReq:
		return store.ClockSize(m.Clock)
	case engine.KindPullResp:
		n := store.UvarintSize(uint64(len(m.Updates)))
		for _, u := range m.Updates {
			n += store.UpdateSize(u)
		}
		return n + peerListSize(m.Peers)
	case engine.KindSnapshot:
		return store.BlobSize(m.Snapshot) + peerListSize(m.Peers)
	case engine.KindAck:
		return store.StringSize(m.UpdateRef.Origin) + store.UvarintSize(m.UpdateRef.Seq)
	case engine.KindQuery:
		// The query id plus the key.
		return 8 + store.StringSize(m.Key)
	case engine.KindQueryResp:
		// Query id, key, flags, value, and version history.
		return 8 + store.StringSize(m.Key) + 1 + store.BlobSize(m.Value) +
			store.HistorySize(len(m.Version))
	default:
		return 0
	}
}
