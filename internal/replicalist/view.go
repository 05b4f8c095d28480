package replicalist

import "math/rand"

// View is a peer's membership view — the replicas it knows for the data
// partition, never itself — organised for O(k) peer sampling. The backing
// slice is partitioned into three contiguous segments, which the protocol
// engine maintains incrementally (Promote, Suspend, Release) as the §6 ack
// bookkeeping changes:
//
//	[0, nPref)      preferred — peers that have acked a push and are not
//	                currently suspected offline
//	[nPref, nAvail) available — everyone else the engine may push to
//	[nAvail, len)   suspended — peers suspected offline, skipped entirely
//
// A draw is a partial Fisher–Yates over a segment: k swaps and k random
// numbers, independent of the view size, yielding a uniform k-subset. Swaps
// stay within a segment, so the partition survives sampling; the order
// within a segment is arbitrary by construction.
//
// Without the ack optimisation every peer lives in the available segment and
// the view degenerates to a flat uniform sampler.
type View[ID comparable] struct {
	order  []ID
	pos    map[ID]int
	nPref  int
	nAvail int
}

// NewView returns an empty view with room for capacity peers.
func NewView[ID comparable](capacity int) *View[ID] {
	return &View[ID]{
		order: make([]ID, 0, capacity),
		pos:   make(map[ID]int, capacity),
	}
}

// Len returns the number of known peers across all segments.
func (v *View[ID]) Len() int { return len(v.order) }

// Contains reports whether id is in the view.
func (v *View[ID]) Contains(id ID) bool {
	_, ok := v.pos[id]
	return ok
}

// Slice returns a copy of the view. The order is the current partition
// order, not insertion order: see Segments.
func (v *View[ID]) Slice() []ID {
	return append([]ID(nil), v.order...)
}

// Segments returns the partition bounds: Slice()[:preferred] are the
// preferred peers, Slice()[preferred:available] the available ones and the
// rest the suspended ones.
func (v *View[ID]) Segments() (preferred, available int) { return v.nPref, v.nAvail }

func (v *View[ID]) swap(i, j int) {
	if i == j {
		return
	}
	v.order[i], v.order[j] = v.order[j], v.order[i]
	v.pos[v.order[i]] = i
	v.pos[v.order[j]] = j
}

// Add inserts id into the available segment and reports whether it was new.
func (v *View[ID]) Add(id ID) bool {
	if _, ok := v.pos[id]; ok {
		return false
	}
	v.order = append(v.order, id)
	v.pos[id] = len(v.order) - 1
	// The append landed in the suspended segment; rotate it in.
	v.swap(len(v.order)-1, v.nAvail)
	v.nAvail++
	return true
}

// Promote moves id into the preferred segment, from whichever segment it
// currently occupies. Unknown ids are ignored.
func (v *View[ID]) Promote(id ID) {
	i, ok := v.pos[id]
	if !ok {
		return
	}
	if i >= v.nAvail { // suspended → available
		v.swap(i, v.nAvail)
		v.nAvail++
		i = v.pos[id]
	}
	if i >= v.nPref { // available → preferred
		v.swap(i, v.nPref)
		v.nPref++
	}
}

// Suspend moves id into the suspended segment. Unknown ids are ignored.
func (v *View[ID]) Suspend(id ID) {
	i, ok := v.pos[id]
	if !ok || i >= v.nAvail {
		return
	}
	if i < v.nPref { // preferred → available
		v.swap(i, v.nPref-1)
		v.nPref--
		i = v.pos[id]
	}
	// available → suspended
	v.swap(i, v.nAvail-1)
	v.nAvail--
}

// Release moves a suspended id back to the available segment (or straight to
// preferred when it had acked before the suspicion). Non-suspended or
// unknown ids are ignored.
func (v *View[ID]) Release(id ID, preferred bool) {
	i, ok := v.pos[id]
	if !ok || i < v.nAvail {
		return
	}
	v.swap(i, v.nAvail)
	v.nAvail++
	if preferred {
		v.Promote(id)
	}
}

// drawFrom appends up to need uniformly drawn entries of order[lo:hi) to
// out, skipping the excluded id if it lies in the segment. It reorders the
// segment in place (a partial Fisher–Yates), which is harmless: segment
// membership, not order, is the invariant.
func (v *View[ID]) drawFrom(out []ID, need, lo, hi int, rng *rand.Rand, exclude ID, haveExclude bool) []ID {
	if haveExclude {
		if e, ok := v.pos[exclude]; ok && e >= lo && e < hi {
			v.swap(e, hi-1)
			hi--
		}
	}
	n := hi - lo
	if need > n {
		need = n
	}
	for i := 0; i < need; i++ {
		v.swap(lo+i, lo+i+rng.Intn(n-i))
		out = append(out, v.order[lo+i])
	}
	return out
}

// SampleInto appends up to k distinct peers to out: preferred peers first,
// then available ones, never suspended ones — the §6 selection rule. Each
// segment's contribution is a uniform subset of that segment. With
// haveExclude set, exclude is never drawn, at constant cost.
func (v *View[ID]) SampleInto(out []ID, k int, rng *rand.Rand, exclude ID, haveExclude bool) []ID {
	out = v.drawFrom(out, k, 0, v.nPref, rng, exclude, haveExclude)
	if len(out) < k {
		out = v.drawFrom(out, k-len(out), v.nPref, v.nAvail, rng, exclude, haveExclude)
	}
	return out
}
