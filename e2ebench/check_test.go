package main

import (
	"math/rand"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
)

// TestFabricatedAckCountsAsFailed feeds the checker an acknowledgement
// with no write behind it: it must be counted as one failed operation,
// while the real write beside it passes.
func TestFabricatedAckCountsAsFailed(t *testing.T) {
	st := store.NewSharded(0)
	w, err := store.NewWriter("127.0.0.1:1", st, time.Now, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	real := w.Put("k", []byte("v")).Ref()
	ghost := store.Ref{Origin: "127.0.0.1:2", Seq: 7}
	views := []seenView{st}
	if n := len(missingAcks([]store.Ref{real}, views)); n != 0 {
		t.Fatalf("real write: %d failed, want 0", n)
	}
	if n := len(missingAcks([]store.Ref{real, ghost}, views)); n != 1 {
		t.Fatalf("fabricated ack: %d failed, want 1", n)
	}
	// A write missing at only one of several replicas still fails.
	other := store.NewSharded(0)
	if n := len(missingAcks([]store.Ref{real}, []seenView{st, other})); n != 1 {
		t.Fatalf("write missing at one replica: %d failed, want 1", n)
	}
}

func TestDisagreeingKeys(t *testing.T) {
	a, b := store.NewSharded(0), store.NewSharded(0)
	wa, err := store.NewWriter("127.0.0.1:1", a, time.Now, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	u := wa.Put("same", []byte("x"))
	b.Apply(u)
	wa.Put("diverged", []byte("y"))
	if n := disagreeing([]string{"same"}, []valueView{a, b}); n != 0 {
		t.Fatalf("agreeing key counted %d", n)
	}
	if n := disagreeing([]string{"same", "diverged"}, []valueView{a, b}); n != 1 {
		t.Fatalf("diverged key: %d, want 1", n)
	}
}

func TestLedgerRejectsUnwrittenValues(t *testing.T) {
	led := ledger{}
	led.add("k", []byte("written"))
	if !led.written("k", []byte("written")) {
		t.Fatal("written value rejected")
	}
	if led.written("k", []byte("never")) || led.written("other", []byte("written")) {
		t.Fatal("value never written to the key accepted")
	}
}
