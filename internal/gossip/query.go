package gossip

import (
	"github.com/p2pgossip/update/internal/engine"
	"github.com/p2pgossip/update/internal/simnet"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// §4.4 query servicing — the aggregation logic (freshest-version voting,
// unconfident flagging, lazy-pull triggering) lives in internal/engine; this
// file keeps the simulator's wire messages and the thin Peer entry points.

// Query metric names.
const (
	// MetricQueries counts query messages sent.
	MetricQueries = "gossip_queries"
	// MetricQueryResponses counts query responses sent.
	MetricQueryResponses = "gossip_query_responses"
)

// QueryMsg asks a replica for its current revision of a key.
type QueryMsg struct {
	// QID correlates responses with the originating query.
	QID int64
	// Key is the item queried.
	Key string
}

// SizeBytes is the payload's binary-encoded size: the query id plus the
// key.
func (m QueryMsg) SizeBytes() int { return 8 + store.StringSize(m.Key) }

// QueryResp carries one replica's answer.
type QueryResp struct {
	// QID echoes the query id.
	QID int64
	// Key echoes the queried key.
	Key string
	// Found reports whether the replica holds a live revision.
	Found bool
	// Value and Version describe the replica's winning revision.
	Value   []byte
	Version version.History
	// Confident is false when the responder suspects it is stale (it was
	// lazily woken and has not synchronised yet, §6).
	Confident bool
}

// SizeBytes is the payload's binary-encoded size: query id, key, flags,
// value, and version history.
func (m QueryResp) SizeBytes() int {
	return 8 + store.StringSize(m.Key) + 1 + store.BlobSize(m.Value) +
		store.HistorySize(len(m.Version))
}

// QueryResult is the requester-side aggregation of one query.
type QueryResult = engine.QueryResult

// Query sends the key to k known replicas and returns a query id to poll
// with QueryResult. k is capped by the view size; k ≤ 0 defaults to the
// configured PullAttempts (or 3).
func (p *Peer) Query(env *simnet.Env, key string, k int) int64 {
	p.bind(env)
	return p.eng.Query(key, k)
}

// QueryResult returns the current aggregation for a query id. The boolean
// reports whether the id is known.
func (p *Peer) QueryResult(qid int64) (QueryResult, bool) {
	return p.eng.QueryResult(qid)
}
