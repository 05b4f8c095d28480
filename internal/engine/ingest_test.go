package engine

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// readOnlyStore is a store.Backend whose mutators fail the test: the engine
// gets it while the test's driver writes the wrapped store directly.
type readOnlyStore struct {
	store.Backend
	t testing.TB
}

func (s readOnlyStore) fail(op string) {
	s.t.Helper()
	s.t.Fatalf("engine called store mutator %s", op)
}

func (s readOnlyStore) Apply(store.Update) store.ApplyResult {
	s.fail("Apply")
	return 0
}

func (s readOnlyStore) ApplyObserved(store.Update) (store.ApplyResult, int) {
	s.fail("ApplyObserved")
	return 0, 0
}

func (s readOnlyStore) AdoptFrontier(version.Clock) { s.fail("AdoptFrontier") }

func (s readOnlyStore) CompactLog(version.Clock) int {
	s.fail("CompactLog")
	return 0
}

func (s readOnlyStore) ExpireTTL(time.Time, time.Duration) int {
	s.fail("ExpireTTL")
	return 0
}

func (s readOnlyStore) GCTombstones(time.Time) int {
	s.fail("GCTombstones")
	return 0
}

func (s readOnlyStore) RestoreSnapshot(io.Reader) error {
	s.fail("RestoreSnapshot")
	return nil
}

func (s readOnlyStore) Reset() { s.fail("Reset") }

// snapshotOf encodes a snapshot of a store holding updates.
func snapshotOf(t testing.TB, updates ...store.Update) []byte {
	t.Helper()
	src := store.New()
	for _, u := range updates {
		src.Apply(u)
	}
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// TestEngineNeverWritesStore drives every engine entry point over a store
// whose mutators fail the test. Store writes belong to the drivers — the
// writer for local publishes, the shared Ingest step for inbound traffic —
// so the engine must get by with reads alone.
func TestEngineNeverWritesStore(t *testing.T) {
	cfg := Config[int]{
		Fanout: 2, PartialList: true, PullAttempts: 1, PullTimeout: 1,
		SnapshotCatchUp: 1, Acks: true, AckTimeout: 1, SuspectTTL: 1,
		QueryTimeout: 1, QueryLocalVoice: true,
	}
	_, ep := newTestEngine(t, 0, cfg, nil)
	e, err := New[int](cfg, ep, readOnlyStore{Backend: ep.in.Store, t: t})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ep.e = e
	for id := 1; id <= 3; id++ {
		e.Learn(id)
	}

	own := ep.publish("k", []byte("v"))
	ep.publishDelete("gone")
	pushed := testUpdate(t, "peer-1", 1, "p", "1")
	ep.deliver(1, Message[int]{Kind: KindPush, Update: pushed, RF: []int{1}, T: 1})
	ep.deliver(2, Message[int]{Kind: KindPush, Update: pushed, RF: []int{2}, T: 2})
	ep.deliver(1, Message[int]{Kind: KindPullResp,
		Updates: []store.Update{testUpdate(t, "peer-1", 2, "q", "2")}, Peers: []int{3}})
	ep.deliver(1, Message[int]{Kind: KindPullResp})
	ep.deliver(3, Message[int]{Kind: KindSnapshot,
		Snapshot: snapshotOf(t, testUpdate(t, "peer-3", 1, "s", "3")), Peers: []int{1}})
	ep.deliver(3, Message[int]{Kind: KindSnapshot, Snapshot: []byte("not a snapshot")})

	// Handle ignores update-carrying kinds rather than applying them.
	stray := testUpdate(t, "peer-2", 1, "stray", "x")
	e.Handle(2, Message[int]{Kind: KindPush, Update: stray})
	e.Handle(2, Message[int]{Kind: KindPullResp, Updates: []store.Update{stray}})
	e.Handle(2, Message[int]{Kind: KindSnapshot, Snapshot: snapshotOf(t, stray)})
	if ep.in.Store.Seen(stray.Ref()) || e.HasRef(stray.Ref()) {
		t.Fatal("Handle ingested an update-carrying message")
	}

	e.Handle(2, Message[int]{Kind: KindAck, UpdateRef: own.Ref()})
	e.Handle(2, Message[int]{Kind: KindQuery, QID: 1, Key: "k"})
	qid := e.Query("k", 2)
	e.Handle(1, Message[int]{Kind: KindQueryResp, QID: qid, Key: "k", Found: true,
		Value: []byte("v"), Version: own.Version, Confident: true})

	ep.sent = nil
	e.Handle(2, Message[int]{Kind: KindPullReq, Clock: version.Clock{}})
	e.Handle(2, Message[int]{Kind: KindPullReq, Clock: ep.in.Store.Clock()})
	rendered := 0
	for _, s := range ep.sent {
		if s.msg.Kind != KindPullResp {
			continue
		}
		if _, ok := e.RenderPullResp(s.msg); ok {
			rendered++
		}
	}
	if rendered != 2 {
		t.Fatalf("rendered %d pull responses, want 2", rendered)
	}
	if _, ok := e.RenderPush(own.Ref()); !ok {
		t.Fatal("RenderPush lost a published update")
	}

	ep.now = 10
	e.Tick()
	e.Sweep()
	e.PullNow()
	e.CameOnline()
	e.StableFrontier()
	e.Restart([]int{1, 2})
	if !e.HasRef(own.Ref()) || !e.HasRef(pushed.Ref()) {
		t.Fatal("restart did not re-register stored updates")
	}
}

// TestIngestResyncsWriterOnOwnOrigin restarts a writer on an empty store and
// hands its own earlier updates back through each ingest path: the next
// write must continue after the highest sequence number handed back, not
// reuse it — also when a/2 comes back without a/1, past the store's
// contiguous clock.
func TestIngestResyncsWriterOnOwnOrigin(t *testing.T) {
	newWriter := func(st store.Backend) *store.Writer {
		t.Helper()
		w, err := store.NewWriter("peer-0", st, nil, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		return w
	}
	old := newWriter(store.New())
	first := old.Put("k", []byte("v"))
	second := old.Put("k", []byte("v2"))
	snapshot := func(updates ...store.Update) func(in Ingest) {
		return func(in Ingest) {
			if _, _, _, err := in.Snapshot(snapshotOf(t, updates...)); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
		}
	}

	for _, tt := range []struct {
		name   string
		ingest func(in Ingest)
		last   store.Update
	}{
		{"push", func(in Ingest) { in.Push(first) }, first},
		{"pull delta", func(in Ingest) { in.Updates([]store.Update{first}) }, first},
		{"snapshot", snapshot(first), first},
		{"push a2 without a1", func(in Ingest) { in.Push(second) }, second},
		{"snapshot holding a2 without a1", snapshot(second), second},
	} {
		t.Run(tt.name, func(t *testing.T) {
			st := store.New()
			in := Ingest{Store: st, Writer: newWriter(st)}
			tt.ingest(in)
			if u := in.Writer.Put("k2", []byte("v2")); u.Seq != tt.last.Seq+1 {
				t.Fatalf("next write got seq %d, want %d", u.Seq, tt.last.Seq+1)
			}
		})
	}
}

// TestJanitorSequence pins the shared maintenance pass: TTL expiry only
// when a TTL is set, tombstone GC, and compaction only once a frontier is
// known — read after the GC, so the log it compacts is already collected.
func TestJanitorSequence(t *testing.T) {
	stamp := time.Unix(1_700_000_000, 0)
	later := stamp.Add(time.Hour)
	build := func() *store.Store {
		t.Helper()
		st := store.NewWithRetention(time.Second)
		w, err := store.NewWriter("peer-0", st, func() time.Time { return stamp },
			rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		w.Put("live", []byte("v"))
		w.Put("gone", []byte("v"))
		w.Delete("gone")
		return st
	}

	st := build()
	expired, collected, compacted := Janitor(st, later, 0, func() version.Clock { return nil })
	if expired != 0 || collected != 1 || compacted != 0 {
		t.Fatalf("no TTL, no frontier: got %d/%d/%d, want 0/1/0", expired, collected, compacted)
	}
	if _, ok := st.Get("live"); !ok {
		t.Fatal("live key expired without a TTL")
	}

	st = build()
	expired, collected, compacted = Janitor(st, later, time.Minute, func() version.Clock {
		if st.BranchCount("gone") != 0 {
			t.Fatal("frontier read before the tombstone GC")
		}
		return st.Clock()
	})
	if expired != 1 || collected != 2 || compacted != 3 {
		t.Fatalf("TTL and frontier: got %d/%d/%d, want 1/2/3", expired, collected, compacted)
	}
	if st.UpdateCount() != 0 {
		t.Fatalf("%d log entries survive compaction", st.UpdateCount())
	}
}
