// Package replicalist holds the partial flooding list R_f that the push
// phase attaches to every update message (Set), the membership view the
// protocol engine samples push and pull targets from (View), the per-entry
// wire size γ and the §4.2 truncation policies. Set and View are generic
// over the driver's peer identity; internal/engine drives both.
//
// The list serves three purposes in the paper:
//
//  1. Duplicate suppression — a forwarding peer sends only to R_p \ R_f
//     (§3, push pseudocode).
//  2. Membership gossip — a receiving peer "possibly discovers replicas
//     unknown to her" (§3), the name-dropper effect [Harchol-Balter et al.].
//  3. Feed-forward estimation — the normalised list length
//     L(t) = 1 − (1−f_r)^{t+1} estimates how far the update has already
//     spread, and is used to tune PF(t) and f_r locally (§4.2, §6).
//
// Because L(t) grows with every hop, §4.2 introduces a normalised threshold
// L_thr: lists longer than L_thr·R are truncated — by dropping the head, the
// tail, or random entries — trading extra duplicate messages for bounded
// message size.
package replicalist

import (
	"fmt"
	"math/rand"
)

// EntryBytes is γ, the size in bytes to describe one replica in a message
// (the paper suggests ~10 bytes: address + port).
const EntryBytes = 10

// TruncatePolicy selects which entries are dropped when a list exceeds its
// threshold length (§4.2: "discarding either random entries or the head or
// tail of the partial list").
type TruncatePolicy int

// Truncation policies.
const (
	// DropTail keeps the oldest entries (head of the list).
	DropTail TruncatePolicy = iota + 1
	// DropHead keeps the newest entries (tail of the list).
	DropHead
	// DropRandom drops uniformly random entries.
	DropRandom
)

// String returns the policy name.
func (p TruncatePolicy) String() string {
	switch p {
	case DropTail:
		return "drop-tail"
	case DropHead:
		return "drop-head"
	case DropRandom:
		return "drop-random"
	default:
		return fmt.Sprintf("TruncatePolicy(%d)", int(p))
	}
}

// TruncatedCopy returns a copy of list with at most maxLen entries, dropping
// the excess per the given policy. It is the single implementation of the
// §4.2 truncation semantics, used by the protocol engine's generic flooding
// lists. rng is required only for DropRandom (nil falls back to DropTail);
// an unknown policy keeps everything. The input is never modified.
func TruncatedCopy[T any](list []T, maxLen int, policy TruncatePolicy, rng *rand.Rand) []T {
	if maxLen < 0 || len(list) <= maxLen {
		return append([]T(nil), list...)
	}
	switch policy {
	case DropTail:
		return append([]T(nil), list[:maxLen]...)
	case DropHead:
		return append([]T(nil), list[len(list)-maxLen:]...)
	case DropRandom:
		if rng == nil {
			// Deterministic fallback keeps behaviour defined without a
			// random source.
			return append([]T(nil), list[:maxLen]...)
		}
		// Partial Fisher–Yates: maxLen draws instead of a full shuffle of
		// the (much longer) input. The kept subset is still uniform.
		out := append([]T(nil), list...)
		for i := 0; i < maxLen; i++ {
			j := i + rng.Intn(len(out)-i)
			out[i], out[j] = out[j], out[i]
		}
		return out[:maxLen]
	default:
		return append([]T(nil), list...)
	}
}
