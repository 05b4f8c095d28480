package engine

import (
	"bytes"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/version"
)

// Ingest is the one store-write step of inbound protocol traffic. Both
// drivers run it before handing an update-carrying message to the engine —
// the simulator inline, the live runtime on the connection-reader goroutine
// outside its engine lock — and the engine itself only reads the store. The
// live runtime adds its write-ahead-log appends on the returned outcomes;
// nothing else about ingest differs between the two.
//
// Every path re-syncs the writer when the store accepts an update of the
// local origin: a replica that lost its disk gets its own history back from
// peers, possibly a/2 before a/1, and its next write must not reuse a
// sequence number they hold (store.Writer.Resync).
type Ingest struct {
	// Store is the replica store updates are applied to.
	Store store.Backend
	// Writer is the replica's local writer; its origin identifies own
	// updates.
	Writer *store.Writer
}

// Applied carries the outcome of one store apply the ingest step performed
// before the engine call.
type Applied struct {
	// Res classifies the store outcome.
	Res store.ApplyResult
	// Branches is the key's revision count, counted atomically with the
	// apply.
	Branches int
}

// Push offers one pushed update to the store. An update the store has
// already logged skips the write — checked against the origin's log shard
// only, so duplicate floods never contend on item shards. A racing twin
// that slips past the check is still caught by the apply itself.
func (in Ingest) Push(u store.Update) Applied {
	if in.Store.Seen(u.Ref()) {
		return Applied{Res: store.Duplicate, Branches: in.Store.BranchCount(u.Key)}
	}
	return in.apply(u)
}

// Updates applies a pull response's delta in order; the i-th outcome
// belongs to the i-th update.
func (in Ingest) Updates(updates []store.Update) []Applied {
	out := make([]Applied, len(updates))
	for i, u := range updates {
		out[i] = in.apply(u)
	}
	return out
}

// Snapshot ingests a snapshot catch-up frame: decode, apply every carried
// update, then adopt the sender's compacted watermark so the clock jumps
// the holes its compaction left. Updates go first so entries the sender
// retained below its watermark are not rejected as duplicates. The writer
// is re-synced unconditionally — the watermark alone may carry the local
// origin. A frame that does not decode changes nothing and returns the
// error; drivers drop it before the engine sees it.
func (in Ingest) Snapshot(data []byte) ([]store.Update, []Applied, version.Clock, error) {
	updates, wm, err := store.DecodeSnapshot(bytes.NewReader(data))
	if err != nil {
		return nil, nil, nil, err
	}
	out := make([]Applied, len(updates))
	for i, u := range updates {
		res, branches := in.Store.ApplyObserved(u)
		out[i] = Applied{Res: res, Branches: branches}
	}
	in.Store.AdoptFrontier(wm)
	in.Writer.Resync()
	return updates, out, wm, nil
}

func (in Ingest) apply(u store.Update) Applied {
	res, branches := in.Store.ApplyObserved(u)
	if res != store.Duplicate && u.Origin == in.Writer.Origin() {
		in.Writer.Resync()
	}
	return Applied{Res: res, Branches: branches}
}

// Janitor runs one maintenance pass over st, the sequence both drivers
// share: expire revisions at least keyTTL old into tombstones (when keyTTL
// > 0), collect tombstones past retention, then compact the log up to the
// frontier — the engine's StableFrontier, read last — when one is known. It
// returns the three counts; each driver reports them under its own metric
// names.
func Janitor(st store.Backend, now time.Time, keyTTL time.Duration, frontier func() version.Clock) (expired, collected, compacted int) {
	if keyTTL > 0 {
		expired = st.ExpireTTL(now, keyTTL)
	}
	collected = st.GCTombstones(now)
	if f := frontier(); f != nil {
		compacted = st.CompactLog(f)
	}
	return expired, collected, compacted
}
