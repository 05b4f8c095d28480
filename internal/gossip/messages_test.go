package gossip

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
	"github.com/p2pgossip/update/internal/wire"
)

// TestPayloadBytesMatchWireCodec pins the simulator's byte accounting to the
// live codec: for every message kind, the charge for an engine message sent
// by peer index i equals the length of the binary frame the live runtime
// would write for the same message sent by address "peer-<i>".
func TestPayloadBytesMatchWireCodec(t *testing.T) {
	stamp := time.Unix(1_700_000_000, 0)
	rng := rand.New(rand.NewSource(1))
	u := store.Update{
		Origin: "peer-12", Seq: 300, Key: "some/key", Value: []byte("value"),
		Version: version.History{version.NewID(stamp, "peer-12", rng), version.NewID(stamp, "peer-3", rng)},
		Stamp:   stamp,
	}
	addrs := func(ids []int) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = fmt.Sprintf("peer-%d", id)
		}
		return out
	}
	peers := []int{0, 9, 10, 1234}
	for _, tt := range []struct {
		msg engine.Message[int]
		env wire.Envelope
	}{
		{engine.Message[int]{Kind: engine.KindPush, Update: u, RF: peers, T: 200},
			wire.Envelope{Kind: wire.KindPush, Update: u, RF: addrs(peers), T: 200}},
		{engine.Message[int]{Kind: engine.KindPullReq, Clock: version.Clock{"peer-1": 7, "peer-12": 300}},
			wire.Envelope{Kind: wire.KindPullReq, Clock: version.Clock{"peer-1": 7, "peer-12": 300}}},
		{engine.Message[int]{Kind: engine.KindPullResp, Updates: []store.Update{u, u}, Peers: peers},
			wire.Envelope{Kind: wire.KindPullResp, Updates: []store.Update{u, u}, KnownPeers: addrs(peers)}},
		{engine.Message[int]{Kind: engine.KindSnapshot, Snapshot: make([]byte, 200), Peers: peers},
			wire.Envelope{Kind: wire.KindSnapshot, Snapshot: make([]byte, 200), KnownPeers: addrs(peers)}},
		{engine.Message[int]{Kind: engine.KindAck, UpdateRef: u.Ref()},
			wire.Envelope{Kind: wire.KindAck, UpdateRef: u.Ref()}},
		{engine.Message[int]{Kind: engine.KindQuery, QID: 77, Key: "k"},
			wire.Envelope{Kind: wire.KindQuery, QID: 77, Key: "k"}},
		{engine.Message[int]{Kind: engine.KindQueryResp, QID: 77, Key: "k", Found: true,
			Value: []byte("v"), Version: u.Version, Confident: true},
			wire.Envelope{Kind: wire.KindQueryResp, QID: 77, Key: "k", Found: true,
				Value: []byte("v"), Version: u.Version, Confident: true}},
	} {
		for _, from := range []int{0, 10, 4096} {
			env := tt.env
			env.From = fmt.Sprintf("peer-%d", from)
			frame, err := wire.AppendFrame(nil, &env)
			if err != nil {
				t.Fatalf("%v: encode: %v", tt.msg, err)
			}
			if got := frameBytes(from) + payloadBytes(tt.msg); got != len(frame) {
				t.Fatalf("%v from peer %d charged %d bytes, the wire frame is %d", tt.msg, from, got, len(frame))
			}
		}
	}
}
