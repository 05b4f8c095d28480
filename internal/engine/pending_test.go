package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// Tests for the coalescing senders' shared merge rules (Pending): each rule
// in isolation, then a property test over random deposit/drain sequences.

func testWriter(t *testing.T, origin string, seed int64) *store.Writer {
	t.Helper()
	w, err := store.NewWriter(origin, store.New(), time.Now, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	return w
}

func pushMsg(u store.Update, t int) Message[string] {
	return Message[string]{Kind: KindPush, Update: u, T: t}
}

func TestPendingDeltaPushCoalescing(t *testing.T) {
	w := testWriter(t, "w", 42)
	v1 := w.Put("k", []byte("one"))
	v2 := w.Put("k", []byte("two")) // dominates v1
	other := w.Put("other", []byte("x"))

	var p Pending[string]
	if c, _, d := p.Add(pushMsg(v1, 1)); c != 0 || d != v1.SizeBytes() {
		t.Fatalf("first deposit coalesced %d, delta %d", c, d)
	}
	if c, _, _ := p.Add(pushMsg(other, 1)); c != 0 {
		t.Fatalf("unrelated key coalesced %d", c)
	}
	// The newer version displaces the pending dominated one.
	if c, _, d := p.Add(pushMsg(v2, 2)); c != 1 || d != v2.SizeBytes()-v1.SizeBytes() {
		t.Fatalf("displacing deposit coalesced %d, delta %d", c, d)
	}
	if _, ok := p.entries[v1.Ref()]; ok {
		t.Fatal("dominated push still pending after displacement")
	}
	// A dominated version arriving late is absorbed without growing state.
	if c, _, d := p.Add(pushMsg(v1, 3)); c != 1 || d != 0 {
		t.Fatalf("absorbed deposit coalesced %d, delta %d", c, d)
	}
	// Same ref again only refreshes the round counter.
	if c, _, d := p.Add(pushMsg(v2, 9)); c != 1 || d != 0 {
		t.Fatalf("same-ref deposit coalesced %d, delta %d", c, d)
	}
	if got := p.entries[v2.Ref()].t; got != 9 {
		t.Fatalf("round counter %d, want refreshed 9", got)
	}
	if len(p.entries) != 2 {
		t.Fatalf("%d entries pending, want v2 and other", len(p.entries))
	}
	if want := v2.SizeBytes() + other.SizeBytes(); p.Bytes() != want {
		t.Fatalf("tracked %dB, want %dB", p.Bytes(), want)
	}
}

func TestPendingDeltaPullRespMerge(t *testing.T) {
	var p Pending[string]
	resp := func(c version.Clock, peers ...string) Message[string] {
		return Message[string]{Kind: KindPullResp, Clock: c, Peers: peers}
	}
	if c, _, _ := p.Add(resp(version.Clock{"a": 5, "b": 3}, "x")); c != 0 {
		t.Fatalf("first pull response coalesced %d", c)
	}
	// Merging takes the pointwise minimum; an origin missing from either
	// side counts as zero and drops out. The peer sample is the newest one.
	if c, _, _ := p.Add(resp(version.Clock{"a": 2, "c": 9}, "y")); c != 1 {
		t.Fatalf("second pull response coalesced %d", c)
	}
	if len(p.pullRespClock) != 1 || p.pullRespClock["a"] != 2 {
		t.Fatalf("merged clock %v, want {a:2}", p.pullRespClock)
	}
	if len(p.pullRespPeers) != 1 || p.pullRespPeers[0] != "y" {
		t.Fatalf("merged peers %v, want the newest sample", p.pullRespPeers)
	}
	// Idempotent flag classes dedup too.
	if c, _, _ := p.Add(Message[string]{Kind: KindPullReq}); c != 0 {
		t.Fatalf("first pull request coalesced %d", c)
	}
	if c, _, d := p.Add(Message[string]{Kind: KindPullReq}); c != 1 || d != 0 {
		t.Fatalf("repeat pull request coalesced %d, delta %d", c, d)
	}
	ack := Message[string]{Kind: KindAck, UpdateRef: store.Ref{Origin: "o", Seq: 1}}
	if c, _, _ := p.Add(ack); c != 0 {
		t.Fatalf("first ack coalesced %d", c)
	}
	if c, _, d := p.Add(ack); c != 1 || d != 0 {
		t.Fatalf("repeat ack coalesced %d, delta %d", c, d)
	}
}

func TestPendingDeltaAuxCap(t *testing.T) {
	var p Pending[string]
	dropped := 0
	for i := 0; i < maxPendingAux+7; i++ {
		_, d, _ := p.Add(Message[string]{Kind: KindQuery, Key: fmt.Sprintf("q-%d", i)})
		dropped += d
	}
	if dropped != 7 {
		t.Fatalf("%d aux messages dropped, want 7 beyond the cap", dropped)
	}
	if len(p.aux) != maxPendingAux {
		t.Fatalf("%d aux pending, want the cap %d", len(p.aux), maxPendingAux)
	}
	// Oldest dropped first: the survivors start at q-7.
	if p.aux[0].Key != "q-7" {
		t.Fatalf("oldest surviving aux %q, want q-7", p.aux[0].Key)
	}
}

// pendingFootprint recomputes a Pending's byte estimate from its contents,
// independently of the incremental accounting.
func pendingFootprint(p *Pending[string]) int {
	n := 0
	for _, e := range p.entries {
		n += e.u.SizeBytes()
	}
	n += len(p.acks) * pendingAckBytes
	if p.pullReq {
		n += pendingFlagBytes
	}
	if p.pullResp {
		n += pendingFlagBytes
		for origin := range p.pullRespClock {
			n += len(origin) + 8
		}
	}
	for _, m := range p.aux {
		n += pendingAuxBase + len(m.Key) + len(m.Value) + len(m.Snapshot)
	}
	return n
}

// drainRank is the fixed drain order: acks, pushes, pull request, pull
// response, aux.
func drainRank(k Kind) int {
	switch k {
	case KindAck:
		return 0
	case KindPush:
		return 1
	case KindPullReq:
		return 2
	case KindPullResp:
		return 3
	default:
		return 4
	}
}

// TestPendingPropertyRandomDepositsAndDrains runs random interleavings of
// every deposit class and budgeted drains. Pushes cover a few keys, each
// written by independent writers (concurrent branches), and re-deposit old
// versions as well as new ones. After every step the incremental byte
// accounting must match the contents, the item count must stay bounded by
// live state, and every drain must follow the fixed order without ever
// emitting a push some other pending or co-drained push dominates.
func TestPendingPropertyRandomDepositsAndDrains(t *testing.T) {
	const (
		keys    = 3
		writers = 2
		ackPool = 8
		steps   = 4000
	)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ws := make([]*store.Writer, writers)
			for i := range ws {
				ws[i] = testWriter(t, fmt.Sprintf("w%d", i), seed*10+int64(i))
			}
			// history[w][k] is writer w's chain of versions of key k.
			history := make([][][]store.Update, writers)
			for i := range history {
				history[i] = make([][]store.Update, keys)
			}
			// Drains are rare in the second half of odd seeds, so the aux
			// list reaches its cap.
			drainP := 0.15
			var p Pending[string]
			for step := 0; step < steps; step++ {
				if seed%2 == 1 && step == steps/2 {
					drainP = 0.001
				}
				before := p.Bytes()
				var m Message[string]
				switch r := rng.Float64(); {
				case r < drainP:
					checkDrain(t, &p, rng.Intn(p.Len()+2))
					continue
				case r < 0.55:
					w, k := rng.Intn(writers), rng.Intn(keys)
					chain := history[w][k]
					if len(chain) == 0 || rng.Intn(2) == 0 {
						u := ws[w].Put(fmt.Sprintf("k%d", k), []byte(fmt.Sprintf("v%d", step)))
						history[w][k] = append(chain, u)
						chain = history[w][k]
					}
					m = pushMsg(chain[rng.Intn(len(chain))], rng.Intn(5))
				case r < 0.65:
					m = Message[string]{Kind: KindAck, UpdateRef: store.Ref{Origin: "a", Seq: uint64(rng.Intn(ackPool))}}
				case r < 0.7:
					m = Message[string]{Kind: KindPullReq}
				case r < 0.8:
					c := version.Clock{}
					for i := 0; i < writers; i++ {
						if rng.Intn(3) > 0 {
							c[fmt.Sprintf("w%d", i)] = uint64(rng.Intn(50))
						}
					}
					m = Message[string]{Kind: KindPullResp, Clock: c, Peers: []string{fmt.Sprint(step)}}
				case r < 0.9:
					m = Message[string]{Kind: KindQuery, QID: int64(step), Key: "k0"}
				default:
					m = Message[string]{Kind: KindQueryResp, QID: int64(step), Key: "k1",
						Found: true, Value: make([]byte, rng.Intn(32))}
				}
				_, _, delta := p.Add(m)
				if p.Bytes()-before != delta {
					t.Fatalf("step %d: Add reported delta %d, Bytes moved %d", step, delta, p.Bytes()-before)
				}
				checkPending(t, step, &p, keys*writers+ackPool+2+maxPendingAux)
			}
			checkDrain(t, &p, p.Len())
			if p.Len() != 0 || p.Bytes() != 0 {
				t.Fatalf("full drain left %d items, %dB", p.Len(), p.Bytes())
			}
		})
	}
}

// checkPending asserts the state invariants: tracked bytes equal the
// recomputed footprint, the item count respects the live-state bound, and
// the pending pushes of each key form an antichain.
func checkPending(t *testing.T, step int, p *Pending[string], bound int) {
	t.Helper()
	if got, want := p.Bytes(), pendingFootprint(p); got != want {
		t.Fatalf("step %d: tracked %dB, contents %dB", step, got, want)
	}
	if p.Len() > bound {
		t.Fatalf("step %d: %d pending items, bound %d", step, p.Len(), bound)
	}
	for ref, e := range p.entries {
		for other, o := range p.entries {
			if ref != other && e.u.Key == o.u.Key && o.u.Version.Dominates(e.u.Version) {
				t.Fatalf("step %d: pending %v dominated by pending %v", step, ref, other)
			}
		}
	}
}

// checkDrain drains with the given budget and asserts the fixed order, the
// budget, and that no emitted push is dominated by another pending or
// co-drained push.
func checkDrain(t *testing.T, p *Pending[string], budget int) {
	t.Helper()
	want := min(budget, p.Len())
	out := p.Drain(budget)
	if len(out) != want {
		t.Fatalf("drain(%d) emitted %d, want %d", budget, len(out), want)
	}
	pushes := make([]store.Update, 0, len(out)+len(p.entries))
	for _, e := range p.entries {
		pushes = append(pushes, e.u)
	}
	for i, m := range out {
		if i > 0 && drainRank(m.Kind) < drainRank(out[i-1].Kind) {
			t.Fatalf("drain emitted %v after %v", m.Kind, out[i-1].Kind)
		}
		if m.Kind == KindPush {
			pushes = append(pushes, m.Update)
		}
	}
	for _, m := range out {
		if m.Kind != KindPush {
			continue
		}
		for _, u := range pushes {
			if u.Ref() != m.Update.Ref() && u.Key == m.Update.Key && u.Version.Dominates(m.Update.Version) {
				t.Fatalf("drain emitted %v, dominated by %v", m.Update.Ref(), u.Ref())
			}
		}
	}
	if got, want := p.Bytes(), pendingFootprint(p); got != want {
		t.Fatalf("after drain: tracked %dB, contents %dB", got, want)
	}
}
