package live

import (
	"sync"
	"time"

	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/wire"
)

// This file implements the coalescing per-peer delta senders (the weave
// GossipSender shape): one goroutine and one engine.Pending per destination.
// Every engine send is deposited into the destination's pending delta and
// the sender goroutine drains it through the transport. While a link is
// busy — the transport write is synchronous, so a slow peer parks exactly
// its own sender — new deposits merge into the pending delta by the
// engine's rules (internal/engine/pending.go) instead of queueing, and
// nothing is rendered until transmission: the partial-flooding list, the
// pull-response delta (or snapshot), and the pull-request clock are all
// produced when the batch leaves (engine.RenderPush, engine.RenderPullResp,
// store.Clock), so a slow consumer receives the newest superset rather than
// a replay of stale frames.

// senderIdleTimeout is how long a peer sender with nothing pending lingers
// before retiring its goroutine. Senders are recreated transparently on the
// next deposit; the timeout only bounds idle-goroutine count at the churn
// rate, not correctness.
const senderIdleTimeout = time.Minute

// peerSender owns all outbound traffic to one destination: a pending delta
// deposits merge into, and a goroutine (run) that drains it through the
// transport. The transport write is synchronous, so a slow destination
// blocks only its own sender while the pending delta coalesces behind it.
// Every transport, the in-memory Hub included, sends through these.
type peerSender struct {
	r  *Replica
	to string

	// wake nudges the run loop after a deposit; 1-buffered so deposits
	// never block and redundant nudges collapse.
	wake chan struct{}

	mu      sync.Mutex
	p       engine.Pending[string]
	closing bool
}

func newPeerSender(r *Replica, to string) *peerSender {
	return &peerSender{r: r, to: to, wake: make(chan struct{}, 1)}
}

// deposit merges one engine message into the pending delta. It reports
// false when the sender is retiring — the caller must fetch a fresh sender
// and retry — and otherwise fires the coalescing/drop counters and the
// pending-bytes gauge outside the sender lock and nudges the run loop.
func (s *peerSender) deposit(m engine.Message[string]) bool {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return false
	}
	coalesced, dropped, delta := s.p.Add(m)
	s.mu.Unlock()
	if coalesced > 0 {
		s.r.add(MetricSendCoalesced, coalesced)
	}
	if dropped > 0 {
		s.r.add(MetricSendFailed, dropped)
	}
	if delta != 0 {
		s.r.notePendingBytes(int64(delta))
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return true
}

// run is the sender goroutine: drain on every nudge, retire after an idle
// minute, discard pending state when the replica stops.
func (s *peerSender) run() {
	defer s.r.bg.Done()
	idle := time.NewTimer(senderIdleTimeout)
	defer idle.Stop()
	for {
		select {
		case <-s.wake:
			s.deliver()
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(senderIdleTimeout)
		case <-idle.C:
			if s.tryRetire() {
				return
			}
			idle.Reset(senderIdleTimeout)
		case <-s.r.stop:
			s.discard()
			return
		}
	}
}

// take swaps the pending delta out under the lock, leaving a fresh one for
// concurrent deposits.
func (s *peerSender) take() (engine.Pending[string], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.p
	s.p = engine.Pending[string]{}
	return p, p.Len() > 0
}

// deliver renders and transmits pending deltas until none remain. Deposits
// made while a batch is on the wire merge into the next one.
func (s *peerSender) deliver() {
	for {
		p, ok := s.take()
		if !ok {
			return
		}
		s.r.notePendingBytes(int64(-p.Bytes()))
		s.send(s.render(p.Drain(p.Len())))
	}
}

// render converts one drained pending delta into wire envelopes,
// late-binding everything that depends on current state: flooding lists
// from the engine, the pull-request clock from the store, and the pull
// response (delta or snapshot) from the merged requester clock. Protocol
// counters fire here — at actual transmission — not at deposit.
func (s *peerSender) render(msgs []engine.Message[string]) []wire.Envelope {
	r := s.r
	// Pushes drain contiguously; their lists render under one acquisition
	// of the replica lock. Updates the engine no longer tracks still ship,
	// with no list.
	locked := false
	for i := range msgs {
		if msgs[i].Kind != engine.KindPush {
			continue
		}
		if !locked {
			r.mu.Lock()
			locked = true
		}
		msgs[i].RF, _ = r.eng.RenderPush(msgs[i].Update.Ref())
	}
	if locked {
		r.mu.Unlock()
	}
	envs := make([]wire.Envelope, 0, len(msgs))
	var sent [len(sentMetric)]int
	for _, m := range msgs {
		switch m.Kind {
		case engine.KindPullReq:
			m.Clock = r.st.Clock()
		case engine.KindPullResp:
			// RenderPullResp reads only the store and immutable config, so
			// it runs without the replica lock — snapshot encoding for a
			// far-behind peer never stalls the protocol.
			var ok bool
			if m, ok = r.eng.RenderPullResp(m); !ok {
				continue
			}
		}
		sent[m.Kind]++
		envs = append(envs, envelopeFromEngine(r.addr, m))
	}
	for kind, n := range sent {
		if n > 0 && sentMetric[kind] != "" {
			r.add(sentMetric[kind], n)
		}
	}
	return envs
}

// sentMetric names the counter each transmitted message kind bumps.
var sentMetric = [...]string{
	engine.KindPush:     MetricPushSent,
	engine.KindPullReq:  MetricPullRequests,
	engine.KindPullResp: MetricPullServed,
	engine.KindAck:      MetricAckSent,
	engine.KindQuery:    MetricQuerySent,
	engine.KindSnapshot: MetricSnapshotServed,
}

// send transmits one rendered batch: encoded once into frames and flushed
// through a single FrameBatchSender write when the transport offers it.
// Errors drop the batch — counted, never retried here; the protocol's own
// pull anti-entropy re-derives anything that mattered.
func (s *peerSender) send(envs []wire.Envelope) {
	if len(envs) == 0 {
		return
	}
	r := s.r
	if fbs, ok := r.transport.(FrameBatchSender); ok {
		frames := make([]*wire.Frame, 0, len(envs))
		for i := range envs {
			f, err := wire.NewFrame(&envs[i])
			if err != nil {
				r.inc(MetricSendFailed)
				continue
			}
			frames = append(frames, f)
		}
		if len(frames) == 0 {
			return
		}
		err := fbs.SendFrames(s.to, frames)
		for _, f := range frames {
			f.Release()
		}
		if err != nil {
			r.add(MetricSendFailed, len(frames))
		}
		return
	}
	for i := range envs {
		if err := r.transport.Send(s.to, envs[i]); err != nil {
			r.inc(MetricSendFailed)
		}
	}
}

// tryRetire ends an idle sender: under the registry lock, if nothing is
// pending the sender marks itself closing and deregisters, so a concurrent
// deposit observes either the registration gone or the closing flag and
// recreates a sender — pending state is never stranded.
func (s *peerSender) tryRetire() bool {
	r := s.r
	r.sendMu.Lock()
	s.mu.Lock()
	if s.p.Len() > 0 {
		s.mu.Unlock()
		r.sendMu.Unlock()
		return false
	}
	s.closing = true
	if r.senders[s.to] == s {
		delete(r.senders, s.to)
	}
	s.mu.Unlock()
	r.sendMu.Unlock()
	return true
}

// discard drops pending state on replica stop, keeping the gauge honest.
func (s *peerSender) discard() {
	s.mu.Lock()
	s.closing = true
	n := s.p.Bytes()
	s.p = engine.Pending[string]{}
	s.mu.Unlock()
	if n != 0 {
		s.r.notePendingBytes(int64(-n))
	}
}
