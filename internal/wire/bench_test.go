package wire

// Benchmarks for the envelope codec — the per-message CPU cost under any
// transport. BenchmarkEnvelopeEncode/Decode measure the binary codec the
// transports speak (buffer and envelope reuse, as the TCP paths run it);
// the Gob variants measure the test-only reference codec (gob_test.go) as a
// noise control.

import (
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
)

func benchEnvelope() Envelope {
	u := store.Update{
		Origin: "peer-0", Seq: 42, Key: "key", Value: []byte("value-payload"),
		Stamp: time.Unix(1_700_000_000, 0),
	}
	return Envelope{
		Kind:   KindPush,
		From:   "127.0.0.1:9000",
		Update: u,
		RF:     []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"},
		T:      2,
	}
}

func BenchmarkEnvelopeEncode(b *testing.B) {
	env := benchEnvelope()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], &env)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnvelopeDecode(b *testing.B) {
	env := benchEnvelope()
	body, err := EncodeBinary(&env)
	if err != nil {
		b.Fatal(err)
	}
	var out Envelope
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeBody(body, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnvelopeEncodeGob(b *testing.B) {
	env := benchEnvelope()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gobEncode(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnvelopeDecodeGob(b *testing.B) {
	raw, err := gobEncode(benchEnvelope())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gobDecode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
