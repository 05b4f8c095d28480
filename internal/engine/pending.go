package engine

import (
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// This file holds the outbound merge rules of a coalescing sender, shared by
// every adapter: the live runtime's per-peer sender goroutines and the
// simulator's link-budgeted peers. Engine sends to one destination are
// deposited into that destination's Pending, and while the link is busy new
// deposits MERGE into it instead of queueing:
//
//   - pushes dedup by store.Ref; a newer version of a key displaces pending
//     dominated ones and a dominated deposit is absorbed (the receiver's
//     clock gap, if any, is repaired by ordinary pull anti-entropy);
//   - pull responses collapse to the pointwise-minimum requester clock, so
//     one rendered response covers every outstanding request, carrying the
//     newest peer sample;
//   - pull requests are an idempotent flag and acks a deduplicated set;
//   - query traffic, which cannot merge, rides a list capped at
//     maxPendingAux.
//
// Pending state therefore stays O(live state) per destination, not
// O(traffic). Nothing is rendered at deposit time: the adapter late-binds
// the flooding list (RenderPush), the pull-request clock (the store's), and
// the pull response (RenderPullResp) when a drained message actually leaves.

// maxPendingAux caps the non-mergeable messages (queries, query responses)
// a Pending holds for a stalled destination. They carry request/response
// semantics and cannot coalesce; beyond the cap the oldest are dropped —
// queries time out and retry at the protocol layer, so dropping is safe and
// keeps even the aux portion of pending state bounded.
const maxPendingAux = 1024

// Fixed-size footprint estimates for the non-payload pending classes.
const (
	pendingAckBytes  = 24
	pendingFlagBytes = 16
	pendingAuxBase   = 64
)

// pendingPush is one coalesced outbound push: the update plus the round
// counter it would have carried. The flooding list is deliberately absent —
// it is re-rendered from live engine state at send time.
type pendingPush struct {
	u store.Update
	t int
}

// Pending is everything owed to one destination, in mergeable form. The
// zero value is empty and ready to use. It is not safe for concurrent use;
// the adapter serialises deposits and drains.
type Pending[ID comparable] struct {
	// entries holds the coalesced pushes keyed by update identity; order
	// preserves first-deposit order for draining (refs displaced while
	// pending are skipped there). byKey indexes the pending refs of each
	// key so a newer version can displace dominated ones in O(branches).
	entries map[store.Ref]pendingPush
	order   []store.Ref
	byKey   map[string][]store.Ref

	// acks is the deduplicated set of update refs to acknowledge.
	acks   []store.Ref
	ackSet map[store.Ref]struct{}

	// pullReq records that an anti-entropy request is owed; the clock is
	// rendered from the store at send time, so later is only ever better.
	pullReq bool

	// pullResp records an owed pull response as the pointwise minimum of
	// every outstanding requester clock (an origin absent from either clock
	// counts as zero and drops out); rendering it at send time yields a
	// superset of every coalesced request's gap. pullRespPeers is the
	// newest membership sample to piggyback.
	pullResp      bool
	pullRespClock version.Clock
	pullRespPeers []ID

	// aux holds messages that cannot merge (query traffic), oldest first.
	aux []Message[ID]

	// bytes is the estimated footprint of everything above, maintained
	// incrementally so adapters can expose a cheap pending-memory gauge.
	bytes int
}

// Len counts the distinct pending items: pushes, acks, the pull request and
// response flags, and aux messages.
func (p *Pending[ID]) Len() int {
	n := len(p.entries) + len(p.acks) + len(p.aux)
	if p.pullReq {
		n++
	}
	if p.pullResp {
		n++
	}
	return n
}

// Bytes reports the estimated memory footprint of the pending items.
func (p *Pending[ID]) Bytes() int { return p.bytes }

// Add merges one engine message bound for this destination. coalesced
// counts deposits absorbed into existing state (plus pending pushes a newer
// version displaced), dropped counts aux messages evicted undelivered by the
// cap, and bytesDelta is the change in Bytes. A KindPullResp message is the
// engine's unrendered intent (requester clock plus peer sample); the
// Pending takes ownership of its clock and peer slice.
func (p *Pending[ID]) Add(m Message[ID]) (coalesced, dropped, bytesDelta int) {
	before := p.bytes
	switch m.Kind {
	case KindPush:
		coalesced = p.addPush(m.Update, m.T)
	case KindAck:
		if _, ok := p.ackSet[m.UpdateRef]; ok {
			return 1, 0, 0
		}
		if p.ackSet == nil {
			p.ackSet = make(map[store.Ref]struct{})
		}
		p.ackSet[m.UpdateRef] = struct{}{}
		p.acks = append(p.acks, m.UpdateRef)
		p.bytes += pendingAckBytes
	case KindPullReq:
		if p.pullReq {
			return 1, 0, 0
		}
		p.pullReq = true
		p.bytes += pendingFlagBytes
	case KindPullResp:
		coalesced = p.addPullResp(m.Clock, m.Peers)
	default:
		p.aux = append(p.aux, m)
		p.bytes += auxBytes(m)
		if len(p.aux) > maxPendingAux {
			p.bytes -= auxBytes(p.aux[0])
			p.aux[0] = Message[ID]{}
			p.aux = p.aux[1:]
			dropped = 1
		}
	}
	return coalesced, dropped, p.bytes - before
}

// addPush merges one outbound push. Same ref: the round counter refreshes
// in place. New ref: the deposit is absorbed when a pending entry for the
// key already dominates it; otherwise it displaces every pending entry it
// dominates — newest version wins in both directions. Concurrent branches
// coexist.
func (p *Pending[ID]) addPush(u store.Update, t int) (coalesced int) {
	ref := u.Ref()
	if e, ok := p.entries[ref]; ok {
		e.t = t
		p.entries[ref] = e
		return 1
	}
	refs := p.byKey[u.Key]
	for _, other := range refs {
		if p.entries[other].u.Version.Dominates(u.Version) {
			return 1
		}
	}
	kept := refs[:0]
	for _, other := range refs {
		if e := p.entries[other]; u.Version.Dominates(e.u.Version) {
			delete(p.entries, other)
			p.bytes -= e.u.SizeBytes()
			coalesced++
			continue
		}
		kept = append(kept, other)
	}
	if p.entries == nil {
		p.entries = make(map[store.Ref]pendingPush)
		p.byKey = make(map[string][]store.Ref)
	}
	p.entries[ref] = pendingPush{u: u, t: t}
	if len(p.order) > 2*len(p.entries)+16 {
		// Displaced refs linger in order until drained; compact them away
		// so a hot key overwritten behind a stalled link stays O(live).
		live := p.order[:0]
		for _, r := range p.order {
			if _, ok := p.entries[r]; ok {
				live = append(live, r)
			}
		}
		p.order = live
	}
	p.order = append(p.order, ref)
	p.byKey[u.Key] = append(kept, ref)
	p.bytes += u.SizeBytes()
	return coalesced
}

// addPullResp merges an owed pull response: the pending clock becomes the
// pointwise minimum of itself and the new requester clock, and the peer
// sample is replaced by the newest one.
func (p *Pending[ID]) addPullResp(clock version.Clock, peers []ID) (coalesced int) {
	p.pullRespPeers = peers
	if !p.pullResp {
		p.pullResp = true
		p.pullRespClock = clock
		p.bytes += pendingClockBytes(clock)
		return 0
	}
	for origin, have := range p.pullRespClock {
		if nv, ok := clock[origin]; !ok {
			delete(p.pullRespClock, origin)
			p.bytes -= len(origin) + 8
		} else if nv < have {
			p.pullRespClock[origin] = nv
		}
	}
	return 1
}

// Drain removes up to budget pending items and returns them as messages,
// in one fixed order: acks (cheap, and they unblock the peer's §6
// retransmit state), pushes in first-deposit order, the pull request, the
// pull response, then aux messages oldest first. Everything the adapter
// late-binds is left unset: pushes carry Update and T but no flooding list,
// the pull request carries no clock, and the pull response is the merged
// intent (Clock and Peers) for RenderPullResp. What the budget does not
// cover stays pending.
func (p *Pending[ID]) Drain(budget int) []Message[ID] {
	if budget > p.Len() {
		budget = p.Len()
	}
	if budget <= 0 {
		return nil
	}
	out := make([]Message[ID], 0, budget)
	for len(out) < budget && len(p.acks) > 0 {
		ref := p.acks[0]
		p.acks = p.acks[1:]
		delete(p.ackSet, ref)
		p.bytes -= pendingAckBytes
		out = append(out, Message[ID]{Kind: KindAck, UpdateRef: ref})
	}
	for len(out) < budget && len(p.entries) > 0 {
		ref := p.order[0]
		p.order = p.order[1:]
		e, ok := p.entries[ref]
		if !ok {
			continue // displaced while pending
		}
		p.removePush(ref, e.u)
		out = append(out, Message[ID]{Kind: KindPush, Update: e.u, T: e.t})
	}
	if len(p.entries) == 0 {
		p.order = nil
	}
	if len(out) < budget && p.pullReq {
		p.pullReq = false
		p.bytes -= pendingFlagBytes
		out = append(out, Message[ID]{Kind: KindPullReq})
	}
	if len(out) < budget && p.pullResp {
		p.bytes -= pendingClockBytes(p.pullRespClock)
		out = append(out, Message[ID]{Kind: KindPullResp, Clock: p.pullRespClock, Peers: p.pullRespPeers})
		p.pullResp, p.pullRespClock, p.pullRespPeers = false, nil, nil
	}
	for len(out) < budget && len(p.aux) > 0 {
		m := p.aux[0]
		p.aux[0] = Message[ID]{}
		p.aux = p.aux[1:]
		p.bytes -= auxBytes(m)
		out = append(out, m)
	}
	return out
}

// removePush drops one drained push from the entry map and the key index.
func (p *Pending[ID]) removePush(ref store.Ref, u store.Update) {
	delete(p.entries, ref)
	p.bytes -= u.SizeBytes()
	refs := p.byKey[u.Key]
	for i, other := range refs {
		if other == ref {
			refs = append(refs[:i], refs[i+1:]...)
			break
		}
	}
	if len(refs) == 0 {
		delete(p.byKey, u.Key)
	} else {
		p.byKey[u.Key] = refs
	}
}

func pendingClockBytes(c version.Clock) int {
	n := pendingFlagBytes
	for origin := range c {
		n += len(origin) + 8
	}
	return n
}

func auxBytes[ID comparable](m Message[ID]) int {
	return pendingAuxBase + len(m.Key) + len(m.Value) + len(m.Snapshot)
}
