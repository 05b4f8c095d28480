package engine

import (
	"testing"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// The tests below cover the two late-binding render hooks the coalescing
// senders rely on (RenderPush, RenderPullResp) and the pull-response intent
// contract: the unrendered intent a pull request is answered with must,
// when rendered later, serve exactly the store's delta for the requester.

func TestRenderPushLateBoundList(t *testing.T) {
	cfg := Config[int]{Fanout: 1, PartialList: true}
	e, ep := newTestEngine(t, 1, cfg, nil)
	e.Learn(2)
	u := ep.publish("k", []byte("v"))

	rf, ok := e.RenderPush(u.Ref())
	if !ok {
		t.Fatal("RenderPush did not recognise a freshly published update")
	}
	before := len(rf)

	// A duplicate heard from peer 3 carrying peers 4 and 5 merges into the
	// update's flooding list; a later render must ship the grown list, not
	// the one frozen at publish time.
	ep.deliver(3, Message[int]{Kind: KindPush, Update: u, RF: []int{4, 5}})
	rf, ok = e.RenderPush(u.Ref())
	if !ok {
		t.Fatal("RenderPush lost the update after a duplicate")
	}
	if len(rf) <= before {
		t.Fatalf("list did not grow after duplicate: %d -> %d entries", before, len(rf))
	}
	seen := make(map[int]bool, len(rf))
	for _, id := range rf {
		seen[id] = true
	}
	for _, want := range []int{4, 5} {
		if !seen[want] {
			t.Fatalf("rendered list %v misses %d learned from the duplicate", rf, want)
		}
	}

	// An update the engine no longer tracks still ships, with no list.
	if rf, ok := e.RenderPush(store.Ref{Origin: "nobody", Seq: 9}); ok || rf != nil {
		t.Fatalf("RenderPush of an untracked ref = %v, %v; want nil, false", rf, ok)
	}
}

func TestRenderPullRespSnapshotDecision(t *testing.T) {
	cfg := Config[int]{Fanout: 0, PullAttempts: 1, SnapshotCatchUp: 2}
	e, ep := newTestEngine(t, 1, cfg, nil)
	for _, kv := range []string{"a", "b", "c", "d", "e"} {
		ep.publish(kv, []byte(kv))
	}

	render := func(clock version.Clock) Message[int] {
		t.Helper()
		m, ok := e.RenderPullResp(Message[int]{Kind: KindPullResp, Clock: clock, Peers: []int{7}})
		if !ok {
			t.Fatalf("render of clock %v not ok", clock)
		}
		if len(m.Peers) != 1 || m.Peers[0] != 7 {
			t.Fatalf("rendered %v lost the intent's peer sample: %v", m.Kind, m.Peers)
		}
		return m
	}

	// A peer missing all five updates is over the SnapshotCatchUp threshold:
	// one snapshot frame, no delta.
	m := render(version.Clock{})
	if m.Kind != KindSnapshot || m.Snapshot == nil || m.Updates != nil {
		t.Fatalf("far-behind render = %v with %d updates, snapshot %t; want snapshot",
			m.Kind, len(m.Updates), m.Snapshot != nil)
	}

	// A nearly caught-up peer gets the exact missing run.
	m = render(version.Clock{"peer-1": 4})
	if m.Kind != KindPullResp || m.Snapshot != nil || len(m.Updates) != 1 {
		t.Fatalf("near-tip render = %v with %d updates, snapshot %t; want 1 update",
			m.Kind, len(m.Updates), m.Snapshot != nil)
	}
	if m.Updates[0].Key != "e" {
		t.Fatalf("missing run served %q, want the fifth publish", m.Updates[0].Key)
	}

	// A fully caught-up peer gets an empty (but ok) delta.
	m = render(e.Store().Clock())
	if m.Kind != KindPullResp || m.Snapshot != nil || len(m.Updates) != 0 {
		t.Fatalf("caught-up render = %v with %d updates, snapshot %t; want empty delta",
			m.Kind, len(m.Updates), m.Snapshot != nil)
	}
}

// TestPullRespIntentRendersStoreDelta: the engine answers a pull request
// with an intent (clock + peer gossip, no updates); rendering that intent
// later must produce exactly the store's delta for the requester's clock.
func TestPullRespIntentRendersStoreDelta(t *testing.T) {
	e, ep := newTestEngine(t, 1, Config[int]{Fanout: 0, PullAttempts: 1}, nil)
	ep.publish("x", []byte("1"))
	ep.publish("y", []byte("2"))
	ep.publishDelete("x")
	reqClock := version.Clock{"peer-1": 1}

	want, complete := e.Store().DeltaFor(reqClock)
	if !complete || len(want) == 0 {
		t.Fatalf("store delta = %d updates, complete %t; the fixture is broken", len(want), complete)
	}

	ep.sent = nil
	e.Handle(2, Message[int]{Kind: KindPullReq, Clock: reqClock})
	if len(ep.sent) != 1 {
		t.Fatalf("pull request answered with %d messages, want one intent", len(ep.sent))
	}
	intent := ep.sent[0].msg
	if intent.Kind != KindPullResp || intent.Updates != nil || intent.Clock == nil {
		t.Fatalf("pull request answered with %+v, want an unrendered intent (clock, no updates)", intent)
	}

	got, ok := e.RenderPullResp(intent)
	if !ok || got.Kind != KindPullResp {
		t.Fatalf("rendering the intent gave %v, ok %t; want a delta", got.Kind, ok)
	}
	if len(got.Updates) != len(want) {
		t.Fatalf("rendered intent served %d updates, store delta has %d", len(got.Updates), len(want))
	}
	for i := range want {
		if got.Updates[i].Ref() != want[i].Ref() {
			t.Fatalf("update %d: rendered %v, store delta %v", i, got.Updates[i].Ref(), want[i].Ref())
		}
	}
}
