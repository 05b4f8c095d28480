package wire

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// binTestEnvelopes covers every kind with populated and with zero-ish
// fields.
func binTestEnvelopes(t *testing.T) []Envelope {
	t.Helper()
	u := sampleUpdate(t)
	del := u
	del.Delete = true
	del.Value = nil
	return []Envelope{
		{Kind: KindPush, From: "127.0.0.1:9000", Update: u,
			RF: []string{"127.0.0.1:9001", "127.0.0.1:9002"}, T: 3},
		{Kind: KindPush, From: "a", Update: del}, // no list, T=0
		{Kind: KindPullReq, From: "b", Clock: version.Clock{"x": 3, "y": 1 << 40}},
		{Kind: KindPullReq, From: "b"}, // nil clock
		{Kind: KindPullResp, From: "c", Updates: []store.Update{u, del},
			KnownPeers: []string{"d", ""}},
		{Kind: KindPullResp, From: "c"}, // empty response
		{Kind: KindAck, From: "d", UpdateRef: store.Ref{Origin: "origin-1", Seq: 2}},
		{Kind: KindAck, From: ""},
		{Kind: KindQuery, From: "e", QID: -1, Key: "k"},
		{Kind: KindQueryResp, From: "f", QID: 1 << 60, Key: "k", Found: true,
			Value: []byte("v"), Version: u.Version, Confident: true},
		{Kind: KindQueryResp, From: "f", QID: 0, Key: ""},
		{Kind: KindSnapshot, From: "g", Snapshot: []byte("resident-state"),
			KnownPeers: []string{"h", "i"}},
		{Kind: KindSnapshot, From: "g"}, // empty snapshot, no peers
	}
}

// normalizeUpdate maps an update to the canonical form the codec can
// represent: empty value and history collapse to nil, and the stamp keeps
// only its UnixNano reading (no monotonic clock, the local zone).
func normalizeUpdate(u store.Update) store.Update {
	if len(u.Value) == 0 {
		u.Value = nil
	}
	if len(u.Version) == 0 {
		u.Version = nil
	}
	u.Stamp = time.Unix(0, u.Stamp.UnixNano())
	return u
}

// normalizeEnvelope maps an envelope to the canonical form the binary codec
// can represent: nil and empty slices/maps collapse (both encode as count
// 0). Deep equality after normalisation is the codec's fidelity contract.
func normalizeEnvelope(env Envelope) Envelope {
	env.Update = normalizeUpdate(env.Update)
	if len(env.RF) == 0 {
		env.RF = nil
	}
	if len(env.Clock) == 0 {
		env.Clock = nil
	}
	if len(env.KnownPeers) == 0 {
		env.KnownPeers = nil
	}
	if len(env.Value) == 0 {
		env.Value = nil
	}
	if len(env.Snapshot) == 0 {
		env.Snapshot = nil
	}
	if len(env.Version) == 0 {
		env.Version = nil
	}
	if len(env.Updates) == 0 {
		env.Updates = nil
	} else {
		updates := make([]store.Update, len(env.Updates))
		for i, u := range env.Updates {
			updates[i] = normalizeUpdate(u)
		}
		env.Updates = updates
	}
	return env
}

func TestBinaryRoundTripAllKinds(t *testing.T) {
	for _, env := range binTestEnvelopes(t) {
		body, err := EncodeBinary(&env)
		if err != nil {
			t.Fatalf("%s: encode: %v", env.Kind, err)
		}
		if got, want := len(body), EncodedSize(&env)-4; got != want {
			t.Fatalf("%s: body is %dB, EncodedSize-4 says %dB", env.Kind, got, want)
		}
		back, err := DecodeBinary(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", env.Kind, err)
		}
		if !reflect.DeepEqual(normalizeEnvelope(back), normalizeEnvelope(env)) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", env.Kind, back, env)
		}
		// Canonical: re-encoding the decoded envelope reproduces the bytes.
		again, err := EncodeBinary(&back)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", env.Kind, err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("%s: encoding is not canonical", env.Kind)
		}
	}
}

func TestBinaryRejectsMalformed(t *testing.T) {
	valid, err := EncodeBinary(&Envelope{
		Kind: KindPush, From: "a",
		Update: store.Update{Origin: "o", Seq: 1, Key: "k", Value: []byte("v"),
			Version: version.History{{1}}, Stamp: time.Unix(0, 42)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":              {},
		"version only":       {BinaryVersion},
		"unknown version":    {99, byte(KindPush)},
		"zero kind":          {BinaryVersion, 0},
		"unknown kind":       {BinaryVersion, 200},
		"truncated body":     valid[:len(valid)-1],
		"trailing garbage":   append(append([]byte(nil), valid...), 'x'),
		"string past end":    {BinaryVersion, byte(KindQuery), 0xFF, 0xFF, 0xFF},
		"huge history count": {BinaryVersion, byte(KindQueryResp), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
	}
	for name, data := range cases {
		if _, err := DecodeBinary(data); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
	}
}

// TestBinaryDecodeReuseIsolation: decoding a second frame into the same
// envelope must not corrupt data the first decode handed out — values and
// version histories escape into the store and must be freshly allocated
// per decode.
func TestBinaryDecodeReuseIsolation(t *testing.T) {
	mk := func(val string, seq uint64) []byte {
		body, err := EncodeBinary(&Envelope{
			Kind: KindPullResp, From: "a",
			Updates: []store.Update{{
				Origin: "o", Seq: seq, Key: "k", Value: []byte(val),
				Version: version.History{{byte(seq)}},
				Stamp:   time.Unix(0, 1),
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var env Envelope
	if err := DecodeBody(mk("first", 1), &env); err != nil {
		t.Fatal(err)
	}
	first := env.Updates[0]
	if err := DecodeBody(mk("second", 2), &env); err != nil {
		t.Fatal(err)
	}
	if string(first.Value) != "first" {
		t.Fatalf("first decode's value corrupted by reuse: %q", first.Value)
	}
	if first.Version[0] != (version.ID{1}) {
		t.Fatal("first decode's history corrupted by reuse")
	}
	if string(env.Updates[0].Value) != "second" {
		t.Fatalf("second decode = %q", env.Updates[0].Value)
	}
}

// TestBinaryKindCrossFields: fields belonging to other kinds are dropped by
// the codec (only the kind's payload travels), matching the engine's
// contract that only kind-relevant fields are meaningful.
func TestBinaryKindCrossFields(t *testing.T) {
	env := Envelope{Kind: KindAck, From: "a",
		UpdateRef: store.Ref{Origin: "o", Seq: 9},
		Key:       "leaks?", Value: []byte("leaks?"), T: 7}
	body, err := EncodeBinary(&env)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(body)
	if err != nil {
		t.Fatal(err)
	}
	if back.Key != "" || back.Value != nil || back.T != 0 {
		t.Fatalf("non-ack fields travelled: %+v", back)
	}
	if back.UpdateRef != env.UpdateRef {
		t.Fatalf("ack ref = %+v", back.UpdateRef)
	}
}
