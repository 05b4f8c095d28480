package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

func sampleUpdate(t *testing.T) store.Update {
	t.Helper()
	st := store.New()
	w, err := store.NewWriter("origin-1", st,
		func() time.Time { return time.Unix(1234, 5678) },
		rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	w.Put("k", []byte("first"))
	return w.Put("k", []byte("second")) // history length 2
}

// TestUpdateRoundTrip: a store update survives a push envelope unchanged,
// stamp included (to the nanosecond).
func TestUpdateRoundTrip(t *testing.T) {
	u := sampleUpdate(t)
	body, err := EncodeBinary(&Envelope{Kind: KindPush, Update: u})
	if err != nil {
		t.Fatal(err)
	}
	env, err := DecodeBinary(body)
	if err != nil {
		t.Fatal(err)
	}
	back := env.Update
	if back.ID() != u.ID() {
		t.Fatalf("id mismatch: %s vs %s", back.ID(), u.ID())
	}
	if string(back.Value) != "second" || back.Delete != u.Delete {
		t.Fatalf("payload mismatch: %+v", back)
	}
	if back.Version.Compare(u.Version) != version.Equal {
		t.Fatalf("version mismatch: %s vs %s", back.Version, u.Version)
	}
	if !back.Stamp.Equal(u.Stamp) {
		t.Fatalf("stamp mismatch: %v vs %v", back.Stamp, u.Stamp)
	}
}

// TestFromStoreIsolatesValue pins the ownership contract between a store
// update and its wire form: the decoded update shares no bytes with the
// source update nor with the frame buffer it was decoded from, so a
// receiver may keep it after the buffer is reused.
func TestFromStoreIsolatesValue(t *testing.T) {
	u := sampleUpdate(t)
	body, err := EncodeBinary(&Envelope{Kind: KindPush, Update: u})
	if err != nil {
		t.Fatal(err)
	}
	env, err := DecodeBinary(body)
	if err != nil {
		t.Fatal(err)
	}
	env.Update.Value[0] = 'X'
	if u.Value[0] == 'X' {
		t.Fatal("wire form aliases the source value")
	}
	for i := range body {
		body[i] = 0
	}
	if string(env.Update.Value) != "Xecond" {
		t.Fatalf("decoded value aliases the frame buffer: %q", env.Update.Value)
	}
}

// TestEnvelopeRoundTripAllKinds streams every kind through one frame
// writer and reads it back into a single reused envelope: the reader's
// scratch reuse across interleaved kinds must not leak or lose fields.
func TestEnvelopeRoundTripAllKinds(t *testing.T) {
	envs := binTestEnvelopes(t)
	var stream bytes.Buffer
	fw := NewFrameWriter(&stream)
	for i := range envs {
		if err := fw.WriteEnvelope(&envs[i]); err != nil {
			t.Fatalf("%s: encode: %v", envs[i].Kind, err)
		}
	}
	fr := NewFrameReader(&stream)
	var back Envelope
	for _, env := range envs {
		if err := fr.ReadEnvelope(&back); err != nil {
			t.Fatalf("%s: decode: %v", env.Kind, err)
		}
		if !reflect.DeepEqual(normalizeEnvelope(back), normalizeEnvelope(env)) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", env.Kind, back, env)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeBinary(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := DecodeBinary([]byte("not a frame")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindPush: "push", KindPullReq: "pull-req",
		KindPullResp: "pull-resp", KindAck: "ack",
		KindQuery: "query", KindQueryResp: "query-resp",
		KindSnapshot: "snapshot",
	} {
		if got := k.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
	if got := Kind(42).String(); got != "Kind(42)" {
		t.Fatalf("unknown kind = %q", got)
	}
}

// TestClockConversions: a pull request's clock reaches the far side as an
// independent, equal map, even when the decode reuses a previous clock.
func TestClockConversions(t *testing.T) {
	c := version.NewClock()
	c["a"] = 3
	c["b"] = 9
	body, err := EncodeBinary(&Envelope{Kind: KindPullReq, Clock: c})
	if err != nil {
		t.Fatal(err)
	}
	env := Envelope{Clock: version.Clock{"stale": 1}}
	if err := DecodeBody(body, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Clock) != 2 || env.Clock["a"] != 3 || env.Clock["b"] != 9 {
		t.Fatalf("decoded clock = %v", env.Clock)
	}
	// Mutating the decoded form must not touch the original.
	env.Clock["a"] = 99
	if c["a"] != 3 {
		t.Fatal("decoded clock aliases the original")
	}
}
