package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	pushpull "github.com/p2pgossip/update"
	"github.com/p2pgossip/update/internal/live"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/serve"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/wal"
	"github.com/p2pgossip/update/internal/wire"
)

// replicaOptions are the cmd/pushpulld flags that shape a replica's
// behaviour. daemonDefaults must equal the daemon's flag defaults;
// TestDaemonParity parses cmd/pushpulld/main.go to hold it there.
type replicaOptions struct {
	Fanout             int
	PF                 float64
	PullInterval       time.Duration
	PullAttempts       int
	Acks               bool
	ListMax            int
	JanitorInterval    time.Duration
	TombstoneRetention time.Duration
	KeyTTL             time.Duration
	SnapshotCatchUp    int
	Fsync              string
	FsyncInterval      time.Duration
	WALSegment         int64
	WALCheckpoint      int64
}

var daemonDefaults = replicaOptions{
	Fanout:          5,
	PF:              0.9,
	PullInterval:    30 * time.Second,
	PullAttempts:    3,
	JanitorInterval: time.Minute,
	SnapshotCatchUp: 1024,
	Fsync:           "interval",
	FsyncInterval:   wal.DefaultSyncInterval,
	WALSegment:      wal.DefaultSegmentBytes,
}

// nodeOptions translates o into pushpull options exactly as cmd/pushpulld
// does for the same flag values.
func nodeOptions(o replicaOptions) []pushpull.Option {
	opts := []pushpull.Option{
		pushpull.WithFanout(o.Fanout),
		pushpull.WithPullInterval(o.PullInterval),
		pushpull.WithPullAttempts(o.PullAttempts),
		pushpull.WithAcks(o.Acks),
		pushpull.WithJanitorInterval(o.JanitorInterval),
		pushpull.WithTombstoneRetention(o.TombstoneRetention),
		pushpull.WithKeyTTL(o.KeyTTL),
		pushpull.WithSnapshotCatchUp(o.SnapshotCatchUp),
		pushpull.WithWALCheckpoint(o.WALCheckpoint),
	}
	if o.PF < 1 {
		base := o.PF
		opts = append(opts, pushpull.WithPF(func() pushpull.PFFunc { return pf.Geometric{Base: base} }))
	} else {
		opts = append(opts, pushpull.WithPF(nil))
	}
	if o.ListMax > 0 {
		opts = append(opts, pushpull.WithListMax(o.ListMax))
	}
	return opts
}

// tapStats counts what the replicas hand their TCP transports. It is shared
// by every replica of a run, so its figures are cluster totals.
type tapStats struct {
	frames, bytes         atomic.Int64
	pushFrames, pushBytes atomic.Int64
	sendCalls             atomic.Int64
	envelopeSends         atomic.Int64 // Transport.Send calls: must stay 0
}

// tapTransport wraps the production TCP transport, counting frames and
// bytes and, in traced runs, timing each send and each inbound envelope.
// It forwards FrameSender and FrameBatchSender so live.NewReplica takes
// the same coalescing send path it takes on a bare TCPTransport.
type tapTransport struct {
	tcp    *live.TCPTransport
	stats  *tapStats
	tracer *tracer // nil when not tracing
	idx    int
}

var (
	_ live.Transport        = (*tapTransport)(nil)
	_ live.FrameSender      = (*tapTransport)(nil)
	_ live.FrameBatchSender = (*tapTransport)(nil)
)

func (t *tapTransport) Addr() string { return t.tcp.Addr() }
func (t *tapTransport) Close() error { return t.tcp.Close() }

func (t *tapTransport) Send(to string, env wire.Envelope) error {
	t.stats.envelopeSends.Add(1)
	return t.tcp.Send(to, env)
}

func (t *tapTransport) SendFrame(to string, f *wire.Frame) error {
	one := [1]*wire.Frame{f}
	return t.SendFrames(to, one[:])
}

func (t *tapTransport) SendFrames(to string, fs []*wire.Frame) error {
	for _, f := range fs {
		b := f.Bytes()
		t.stats.frames.Add(1)
		t.stats.bytes.Add(int64(len(b)))
		if len(b) > 5 && wire.Kind(b[5]) == wire.KindPush {
			t.stats.pushFrames.Add(1)
			t.stats.pushBytes.Add(int64(len(b)))
		}
	}
	t.stats.sendCalls.Add(1)
	var start time.Time
	if t.tracer != nil {
		start = time.Now()
	}
	err := t.tcp.SendFrames(to, fs)
	if t.tracer != nil {
		t.tracer.send(time.Since(start))
	}
	return err
}

func (t *tapTransport) SetHandler(h live.Handler) {
	if t.tracer == nil {
		t.tcp.SetHandler(h)
		return
	}
	tr, idx := t.tracer, t.idx
	t.tcp.SetHandler(func(env wire.Envelope) {
		start := time.Now()
		h(env)
		tr.recv(idx, &env, start, time.Since(start))
	})
}

// replica is one pushpulld assembled in-process: WAL, Node, serve.Server
// and a plain http.Server on loopback, in the daemon's order.
type replica struct {
	idx     int
	walDir  string
	gossip  string // fixed after the first open, so a reopen keeps its identity
	url     string
	reg     *pushpull.Metrics
	wal     *pushpull.WAL
	node    *pushpull.Node
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	rec     *recorder
	recover pushpull.WALRecoveryStats
}

// cluster is a set of replicas that know each other's gossip addresses.
type cluster struct {
	epoch  time.Time
	stats  *tapStats
	tracer *tracer
	reps   []*replica
}

// newCluster listens for n replicas (so every peer list is known before
// the first Open) and opens them all.
func newCluster(root string, n int, epoch time.Time, stats *tapStats, tr *tracer) (*cluster, error) {
	c := &cluster{epoch: epoch, stats: stats, tracer: tr}
	lns := make([]*live.TCPTransport, n)
	for i := range lns {
		ln, err := live.ListenTCP("127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		c.reps = append(c.reps, &replica{
			idx:    i,
			walDir: filepath.Join(root, fmt.Sprintf("wal-%d", i)),
			gossip: ln.Addr(),
		})
	}
	for i, ln := range lns {
		if err := c.open(i, ln); err != nil {
			for _, l := range lns[i+1:] {
				_ = l.Close()
			}
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) peersOf(i int) []string {
	var out []string
	for j, r := range c.reps {
		if j != i {
			out = append(out, r.gossip)
		}
	}
	return out
}

// open assembles replica i on its WAL directory. ln is its gossip
// listener, or nil to listen again on the replica's fixed address.
func (c *cluster) open(i int, ln *live.TCPTransport) error {
	r := c.reps[i]
	if ln == nil {
		var err error
		if ln, err = live.ListenTCP(r.gossip); err != nil {
			return err
		}
	}
	o := daemonDefaults
	policy, err := wal.ParseSyncPolicy(o.Fsync)
	if err != nil {
		_ = ln.Close()
		return err
	}
	r.reg = pushpull.NewMetrics()
	r.wal, err = pushpull.OpenWAL(pushpull.WALOptions{
		Dir:          r.walDir,
		Policy:       policy,
		Interval:     o.FsyncInterval,
		SegmentBytes: o.WALSegment,
		Metrics:      r.reg,
	})
	if err != nil {
		_ = ln.Close()
		return fmt.Errorf("open wal %s: %w", r.walDir, err)
	}
	opts := append(nodeOptions(o),
		pushpull.WithTransport(&tapTransport{tcp: ln, stats: c.stats, tracer: c.tracer, idx: i}),
		pushpull.WithPeers(c.peersOf(i)...),
		pushpull.WithMetrics(r.reg),
		pushpull.WithSeed(int64(i)+1), // fixed engine seeds; 0 would draw a random one
		pushpull.WithWAL(r.wal),
		pushpull.WithWatchBuffer(watchBuffer),
	)
	r.node, err = pushpull.Open(opts...)
	if err != nil {
		_ = r.wal.Close()
		return fmt.Errorf("open replica %d: %w", i, err)
	}
	r.recover, _ = r.node.WALRecovery()
	r.rec = startRecorder(r.node, c.epoch, c.tracer != nil && i == 0)
	r.srv, err = serve.New(serve.Config{Node: r.node, Metrics: r.reg, Restored: r.recover.Restored(), StartUnready: true})
	if err != nil {
		_ = c.shutdown(r)
		return err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = c.shutdown(r)
		return err
	}
	var h http.Handler = r.srv.Handler()
	if c.tracer != nil {
		h = c.tracer.wrapHandler(h)
	}
	r.hs = &http.Server{Handler: h}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(hln) }()
	r.url = "http://" + hln.Addr().String()
	r.srv.SetReady(true)
	return nil
}

// recoverCopy times a replica restart on a copy of a WAL directory: the
// daemon's start-up path (OpenWAL, then pushpull.Open, which restores the
// checkpoint and replays the log) with no peers to pull from.
func recoverCopy(src, dst string) (time.Duration, error) {
	if err := copyDir(src, dst); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dst)
	o := daemonDefaults
	policy, err := wal.ParseSyncPolicy(o.Fsync)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	l, err := pushpull.OpenWAL(pushpull.WALOptions{Dir: dst, Policy: policy, Interval: o.FsyncInterval, SegmentBytes: o.WALSegment})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	n, err := pushpull.Open(append(nodeOptions(o), pushpull.WithTCP("127.0.0.1:0"), pushpull.WithWAL(l))...)
	if err != nil {
		return 0, err
	}
	took := time.Since(start)
	return took, n.Close(context.Background())
}

// shutdown closes replica r the way the daemon drains: unready, node,
// HTTP, then the WAL the node wrote through.
func (c *cluster) shutdown(r *replica) error {
	if r.node == nil {
		return nil
	}
	if r.srv != nil {
		r.srv.SetReady(false)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := []error{r.node.Close(ctx)}
	r.rec.stop()
	if r.hs != nil {
		errs = append(errs, r.hs.Shutdown(ctx))
		if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, r.wal.Close())
	r.node, r.srv, r.hs = nil, nil, nil
	return errors.Join(errs...)
}

func (c *cluster) close() {
	for _, r := range c.reps {
		_ = c.shutdown(r)
	}
}

// up returns the replicas currently open.
func (c *cluster) up() []*replica {
	var out []*replica
	for _, r := range c.reps {
		if r.node != nil {
			out = append(out, r)
		}
	}
	return out
}

// counter sums a registry counter over the open replicas.
func (c *cluster) counter(name string) float64 {
	total := 0.0
	for _, r := range c.up() {
		total += r.reg.Counter(name)
	}
	return total
}

// missing returns the refs some replica in reps has not applied.
func missing(refs []store.Ref, reps []*replica) []store.Ref {
	views := make([]seenView, len(reps))
	for i, r := range reps {
		views[i] = r.node.Store()
	}
	return missingAcks(refs, views)
}

// settle waits until push traffic stops: the push counter unchanged over
// two consecutive polls, or two seconds at most.
func (c *cluster) settle() {
	const poll = 50 * time.Millisecond
	prev, still := -1.0, 0
	for deadline := time.Now().Add(2 * time.Second); still < 2 && time.Now().Before(deadline); {
		time.Sleep(poll)
		n := c.counter(live.MetricPushSent)
		if n == prev {
			still++
		} else {
			still = 0
		}
		prev = n
	}
}

// drainPullEvery spaces the drain's pulls: pushes still in flight land
// within milliseconds, and a pull that must fill a hole may carry a
// snapshot of the whole log.
const drainPullEvery = 250 * time.Millisecond

// drain waits until every open replica holds every acknowledged write,
// pulling on all of them every drainPullEvery, or until the timeout; it
// returns how many writes are still missing somewhere.
func (c *cluster) drain(refs []store.Ref, timeout time.Duration) int {
	start := time.Now()
	nextPull := start.Add(drainPullEvery)
	for {
		reps := c.up()
		refs = missing(refs, reps)
		if len(refs) == 0 || time.Since(start) > timeout {
			return len(refs)
		}
		if time.Now().After(nextPull) {
			for _, r := range reps {
				_ = r.node.Pull(context.Background())
			}
			nextPull = time.Now().Add(drainPullEvery)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// covers reports whether clock has reached every origin's highest
// acknowledged sequence number.
func covers(clock map[string]uint64, top map[string]uint64) bool {
	for origin, seq := range top {
		if clock[origin] < seq {
			return false
		}
	}
	return true
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// recorder consumes a replica's Watch stream, keeping every first-class
// arrival (applied or obsolete) with the time it was seen.
type recorder struct {
	cancel   context.CancelFunc
	done     chan struct{}
	mu       sync.Mutex
	arrivals []arrival
	capture  bool
	updates  []store.Update // traced runs: the update stream replica 0 applied
}

type arrival struct {
	ref  store.Ref
	at   time.Duration // since the run's epoch
	push bool
	hist int
}

const maxCapture = 50000

// watchBuffer sizes the recorders' Watch subscriptions (the node default
// is 256). A pull response applies its whole delta in one burst — on
// gossip-8 over a thousand mostly-duplicate updates — and a dropped event
// would void the visibility join. No daemon flag sets this buffer; it
// belongs to the benchmark's own subscriber.
const watchBuffer = 8192

func startRecorder(n *pushpull.Node, epoch time.Time, capture bool) *recorder {
	ctx, cancel := context.WithCancel(context.Background())
	rec := &recorder{cancel: cancel, done: make(chan struct{}), capture: capture}
	ch, err := n.Watch(ctx, "")
	if err != nil {
		close(rec.done)
		return rec
	}
	go func() {
		defer close(rec.done)
		for ev := range ch {
			if ev.Kind == pushpull.EventDuplicate {
				continue
			}
			a := arrival{ref: ev.Update.Ref(), at: time.Since(epoch), push: ev.Source == pushpull.SourcePush, hist: len(ev.Update.Version)}
			rec.mu.Lock()
			rec.arrivals = append(rec.arrivals, a)
			if rec.capture && len(rec.updates) < maxCapture {
				rec.updates = append(rec.updates, ev.Update)
			}
			rec.mu.Unlock()
		}
	}()
	return rec
}

func (rec *recorder) stop() {
	rec.cancel()
	<-rec.done
}

// firstArrivals returns each ref's first arrival at this replica.
func (rec *recorder) firstArrivals() map[store.Ref]arrival {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make(map[store.Ref]arrival, len(rec.arrivals))
	for _, a := range rec.arrivals {
		if _, ok := out[a.ref]; !ok {
			out[a.ref] = a
		}
	}
	return out
}
