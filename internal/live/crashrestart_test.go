package live

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/pf"
)

// TestCrashRestartReconvergesViaPull kills a replica mid-gossip, restarts it
// from a snapshot on the same address, and asserts it reconverges on the
// writes it missed through pull anti-entropy.
func TestCrashRestartReconvergesViaPull(t *testing.T) {
	cfg := Config{
		Fanout:       2,
		NewPF:        func() pf.Func { return pf.Geometric{Base: 0.9} },
		PartialList:  true,
		PullAttempts: 2,
		PullInterval: 5 * time.Millisecond,
	}
	hub := NewHub()
	const n = 3
	addrs := make([]string, n)
	transports := make([]*MemTransport, n)
	replicas := make([]*Replica, n)
	for i := 0; i < n; i++ {
		addrs[i] = fmt.Sprintf("replica-%d", i)
		tr, err := hub.Attach(addrs[i])
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		transports[i] = tr
		c := cfg
		c.Seed = int64(i) + 1
		r, err := NewReplica(c, tr)
		if err != nil {
			t.Fatalf("new replica: %v", err)
		}
		replicas[i] = r
	}
	for _, r := range replicas {
		r.AddPeers(addrs...)
	}
	for _, r := range replicas {
		r.Start()
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	victim := replicas[2]
	pre, _ := replicas[0].Publish("pre", []byte("1"))
	eventually(t, 2*time.Second, func() bool {
		return victim.HasUpdate(pre.ID())
	}, "pre-crash update never reached the victim")

	// Crash: persist the durable log, then tear the process down — the
	// puller stops and the address detaches from the hub, so in-flight and
	// future traffic to it fails like a dead TCP endpoint.
	var snap bytes.Buffer
	if err := victim.WriteSnapshot(&snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	victim.Stop()
	if err := transports[2].Close(); err != nil {
		t.Fatalf("close transport: %v", err)
	}

	// Life goes on without it.
	mid, _ := replicas[1].Publish("mid", []byte("2"))
	del, _ := replicas[0].Delete("pre")
	eventually(t, 2*time.Second, func() bool {
		return replicas[0].HasUpdate(mid.ID()) && replicas[1].HasUpdate(del.ID())
	}, "survivors did not converge while the victim was down")

	// Restart on the same address: fresh process, state recovered from the
	// snapshot, peers from the (static) seed list.
	tr, err := hub.Attach(addrs[2])
	if err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	c := cfg
	c.Seed = 99
	restarted, err := NewReplica(c, tr)
	if err != nil {
		t.Fatalf("restart replica: %v", err)
	}
	if err := restarted.RestoreSnapshot(&snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	// The snapshot state is visible before any network traffic.
	if rev, ok := restarted.Get("pre"); !ok || string(rev.Value) != "1" {
		t.Fatalf("snapshot state missing after restore: %v %v", rev, ok)
	}
	restarted.AddPeers(addrs...)
	restarted.Start() // eager pull kicks off recovery
	defer restarted.Stop()

	eventually(t, 2*time.Second, func() bool {
		return restarted.HasUpdate(mid.ID()) && restarted.HasUpdate(del.ID())
	}, "restarted replica never recovered the missed writes by pull")
	if rev, ok := restarted.Get("mid"); !ok || string(rev.Value) != "2" {
		t.Fatalf("recovered value = %v %v", rev, ok)
	}
	if _, ok := restarted.Get("pre"); ok {
		t.Fatal("tombstone published while down not applied on recovery")
	}
	if !restarted.Store().Equal(replicas[0].Store()) {
		t.Fatal("restarted replica store diverges from a survivor")
	}
}

// TestDisklessRestartKeepsSequence restarts a replica on the same address
// with no disk at all: it gets its own history back from a peer by pull
// delta, and its next write must continue the sequence instead of reusing a
// number the cluster already holds (which every node would then drop as a
// duplicate).
func TestDisklessRestartKeepsSequence(t *testing.T) {
	cfg := Config{Fanout: 1, PullAttempts: 1}
	hub := NewHub()
	start := func(addr string, peers ...string) (*Replica, *MemTransport) {
		t.Helper()
		tr, err := hub.Attach(addr)
		if err != nil {
			t.Fatalf("attach %s: %v", addr, err)
		}
		r, err := NewReplica(cfg, tr)
		if err != nil {
			t.Fatalf("new replica %s: %v", addr, err)
		}
		r.AddPeers(peers...)
		r.Start()
		t.Cleanup(r.Stop)
		return r, tr
	}
	a, trA := start("a", "b")
	b, _ := start("b", "a")

	k1, err := a.Publish("k1", []byte("1"))
	if err != nil {
		t.Fatalf("publish k1: %v", err)
	}
	eventually(t, 2*time.Second, func() bool { return b.HasUpdate(k1.ID()) },
		"k1 never reached b")

	// The process dies with its disk; a fresh one takes the address and
	// pulls its own k1 back from b.
	a.Stop()
	if err := trA.Close(); err != nil {
		t.Fatalf("close transport: %v", err)
	}
	a, _ = start("a", "b")
	eventually(t, 2*time.Second, func() bool { return a.HasUpdate(k1.ID()) },
		"restarted replica never pulled k1 back")

	k2, err := a.Publish("k2", []byte("2"))
	if err != nil {
		t.Fatalf("publish k2: %v", err)
	}
	if k2.Seq != 2 {
		t.Fatalf("k2 issued as %s, want seq 2 after k1 came back", k2.ID())
	}
	if rev, ok := a.Get("k2"); !ok || string(rev.Value) != "2" {
		t.Fatalf("k2 not readable on the writer: %v %v", rev, ok)
	}
	eventually(t, 2*time.Second, func() bool {
		rev, ok := b.Get("k2")
		return ok && string(rev.Value) == "2"
	}, "k2 never reached b")
}
