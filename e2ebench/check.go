package main

import (
	"hash/fnv"

	"github.com/p2pgossip/update/internal/store"
)

// seenView is the part of a replica's store the write checker reads.
type seenView interface {
	Seen(ref store.Ref) bool
}

// valueView is the part of a replica's store the agreement checker reads.
type valueView interface {
	Get(key string) (store.Revision, bool)
}

// missingAcks returns the acknowledged writes that at least one replica
// lacks. Each counts as one failed operation.
func missingAcks(acked []store.Ref, views []seenView) []store.Ref {
	var out []store.Ref
	for _, ref := range acked {
		for _, v := range views {
			if !v.Seen(ref) {
				out = append(out, ref)
				break
			}
		}
	}
	return out
}

// disagreeing counts the keys whose winning value is not the same on every
// replica, or is absent somewhere.
func disagreeing(keys []string, views []valueView) int {
	n := 0
	for _, k := range keys {
		var first []byte
		for i, v := range views {
			rev, ok := v.Get(k)
			if !ok || (i > 0 && string(rev.Value) != string(first)) {
				n++
				break
			}
			first = rev.Value
		}
	}
	return n
}

// ledger remembers every value scheduled for each key, so a read can be
// checked against what was written. Values are registered when generated,
// before any request is sent, so the ledger is read-only under load.
type ledger map[string]map[uint64]struct{}

func fingerprint(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}

func (l ledger) add(key string, value []byte) {
	set := l[key]
	if set == nil {
		set = make(map[uint64]struct{})
		l[key] = set
	}
	set[fingerprint(value)] = struct{}{}
}

// written reports whether value was ever written to key.
func (l ledger) written(key string, value []byte) bool {
	_, ok := l[key][fingerprint(value)]
	return ok
}
