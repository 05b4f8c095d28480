package replicalist

import "math/rand"

// Set is an insertion-ordered set of peer IDs: the per-update flooding list
// R_f the protocol engine accumulates and carries on every push, generic over
// the driver's peer identity (int indices in the simulator, string addresses
// in the live runtime).
type Set[ID comparable] struct {
	order []ID
	seen  map[ID]struct{}
}

// NewSet returns an empty set with room for capacity entries.
func NewSet[ID comparable](capacity int) *Set[ID] {
	return &Set[ID]{
		order: make([]ID, 0, capacity),
		seen:  make(map[ID]struct{}, capacity),
	}
}

// Len returns the number of entries.
func (s *Set[ID]) Len() int { return len(s.order) }

// Contains reports whether id is in the set.
func (s *Set[ID]) Contains(id ID) bool {
	_, ok := s.seen[id]
	return ok
}

// Add inserts id if absent and reports whether it was inserted.
func (s *Set[ID]) Add(id ID) bool {
	if _, ok := s.seen[id]; ok {
		return false
	}
	s.seen[id] = struct{}{}
	s.order = append(s.order, id)
	return true
}

// AddAll inserts every id in ids, returning the number inserted.
func (s *Set[ID]) AddAll(ids []ID) int {
	n := 0
	for _, id := range ids {
		if s.Add(id) {
			n++
		}
	}
	return n
}

// Slice returns a copy of the entries in insertion order.
func (s *Set[ID]) Slice() []ID {
	return append([]ID(nil), s.order...)
}

// View returns the entries in insertion order without copying. The returned
// slice is capacity-clamped and the set only ever appends — existing entries
// are never reordered or rewritten — so the view stays valid (and stays at
// its length) while the set keeps growing. Callers must not mutate it.
func (s *Set[ID]) View() []ID {
	return s.order[:len(s.order):len(s.order)]
}

// Truncated returns a copy of at most maxLen entries, dropping the excess
// per the given policy (§4.2: "discarding either random entries or the head
// or tail of the partial list"). The set itself is never modified — only the
// transmitted copy is truncated, so "the nodes which push the update in the
// next round pay the penalty". The policy semantics are TruncatedCopy's.
func (s *Set[ID]) Truncated(maxLen int, policy TruncatePolicy, rng *rand.Rand) []ID {
	return TruncatedCopy(s.order, maxLen, policy, rng)
}
