package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"github.com/p2pgossip/update/internal/analytic"
	"github.com/p2pgossip/update/internal/live"
	"github.com/p2pgossip/update/internal/pf"
	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/wal"
)

// workload is one traffic mix over one cluster shape. README.md records
// why each exists.
type workload struct {
	name     string
	replicas int
	rate     float64 // requests per second in the measured window
	putShare float64 // of the window's requests; the rest split get/query
	getShare float64
	hotKeys  int  // >0: writes and reads cycle this many preloaded keys
	rejoin   bool // the last replica is down for the window, then rejoins
}

var workloads = []workload{
	{name: "broadcast-unique", replicas: 3, rate: 1500, putShare: 1},
	{name: "hotkeys-mixed", replicas: 3, rate: 1500, putShare: 0.45, getShare: 0.50, hotKeys: 64},
	{name: "gossip-8", replicas: 8, rate: 300, putShare: 1},
	{name: "rejoin", replicas: 3, rate: 1500, putShare: 1, rejoin: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// setupTrials: set-up (open, preload, warm-up) is repeated and its
	// median reported, so that set-up time is steady enough to compare
	// across commits.
	setupTrials = 3
	// rejoinCycles: restarts measured per run (see rejoinProbe).
	rejoinCycles = 5
	// rejoinOverwrites: the rejoin window writes each key about this often.
	rejoinOverwrites = 10
	// gapWrites: writes the other replicas take while the rejoin probe's
	// replica is down (see gap).
	gapWrites = 1000
	// readPhaseOps: a read-only phase after the window for workloads whose
	// window has no reads, alternating GET and query, at readPhaseRate.
	readPhaseOps  = 4000
	readPhaseRate = 2000
	warmup        = time.Second
	drainTimeout  = 20 * time.Second
	catchupLimit  = 60 * time.Second
)

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int
	watchDropped      float64
	e2e               map[string]float64
	layer             map[string]float64 // traced runs only
	lateP99           time.Duration
	cpuPerOp          float64
	// Window push frames seen by the transport shim against the replicas'
	// own push counter, and envelopes that bypassed the frame path; the
	// transport parity test reads them.
	pushFrames, envelopeSends int64
	pushSent                  float64
}

// runner carries one run's state.
type runner struct {
	w       workload
	seed    int64
	seconds int
	root    string
	epoch   time.Time
	stats   *tapStats
	tracer  *tracer
	led     ledger
	g       *gen
	c       *cluster
	cl      *client
	out     *outcome
	acked   []store.Ref // every acknowledged write of the run
	keys    []string    // keys the window wrote (read phase input)
}

func newGen(seed int64, led ledger) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed)), ledger: led}
}

// run executes workload w once. setups is how many times the cluster is
// set up (the last one is measured).
func run(w workload, seed int64, seconds int, root string, setups int, tr *tracer) (*outcome, error) {
	r := &runner{
		w: w, seed: seed, seconds: seconds, root: root,
		epoch: time.Now(), stats: &tapStats{}, tracer: tr, led: ledger{},
		out: &outcome{e2e: map[string]float64{}, layer: map[string]float64{}},
	}
	r.cl = newClient(r.epoch, r.led, tr)
	defer r.cl.close()
	defer func() {
		if r.c != nil {
			r.c.close()
		}
	}()
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		if r.c != nil {
			r.c.close()
			r.c = nil
			if err := os.RemoveAll(filepath.Join(root, fmt.Sprintf("setup-%d", k-1))); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := r.setup(filepath.Join(root, fmt.Sprintf("setup-%d", k))); err != nil {
			return nil, err
		}
		r.warmup()
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	r.out.e2e["setup_s"] = median(setupTimes)
	if err := r.window(); err != nil {
		return nil, err
	}
	if err := r.rejoinProbe(); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.phase.Store(spanReads)
	}
	r.readPhase()
	if tr != nil {
		tr.phase.Store(spanOff)
		r.layerServe()
		if err := r.replays(); err != nil {
			return nil, err
		}
	}
	return r.out, nil
}

// setup opens the cluster and preloads it: the hot keys, or for rejoin a
// first write phase on every replica after which the rejoiner closes.
func (r *runner) setup(dir string) error {
	r.led = ledger{}
	r.cl.ledger = r.led
	r.g = newGen(r.seed, r.led)
	r.acked = nil
	r.keys = nil
	c, err := newCluster(dir, r.w.replicas, r.epoch, r.stats, r.tracer)
	if err != nil {
		return err
	}
	r.c = c
	var pre []op
	switch {
	case r.w.hotKeys > 0:
		for i := 0; i < r.w.hotKeys; i++ {
			pre = append(pre, r.g.put(hotKey(i), i%r.w.replicas))
		}
	case r.w.rejoin:
		for i := 0; i < r.rejoinKeys(); i++ {
			pre = append(pre, r.g.put(hotKey(i), i%r.w.replicas))
		}
	}
	if len(pre) == 0 {
		return nil
	}
	res := r.cl.closedLoop(pre, r.urls(c.reps))
	if n := failures(res); n > 0 {
		return fmt.Errorf("setup: %d preload writes failed", n)
	}
	r.acked = append(r.acked, acked(res)...)
	if n := c.drain(r.acked, drainTimeout); n > 0 {
		return fmt.Errorf("setup: %d preload writes never reached every replica", n)
	}
	if r.w.rejoin {
		return c.shutdown(c.reps[len(c.reps)-1])
	}
	return nil
}

func (r *runner) rejoinKeys() int {
	return int(r.w.rate*float64(r.seconds)) / rejoinOverwrites
}

func hotKey(i int) string { return fmt.Sprintf("hot/%05d", i) }

func (r *runner) urls(reps []*replica) []string {
	out := make([]string, len(reps))
	for i, rep := range reps {
		out[i] = rep.url
	}
	return out
}

// windowOps draws n requests of the workload's mix at its rate over the
// given number of target replicas.
func (r *runner) windowOps(n, targets int, prefix string) []op {
	g, w := r.g, r.w
	keys := w.hotKeys
	if w.rejoin {
		keys = r.rejoinKeys()
	}
	return schedule(n, w.rate, targets, func(i, rep int) op {
		x := g.rng.Float64()
		key := ""
		if keys > 0 {
			key = hotKey(g.rng.Intn(keys))
		}
		switch {
		case x < w.putShare:
			if key == "" {
				key = g.fresh(prefix)
			}
			return g.put(key, rep)
		case x < w.putShare+w.getShare:
			return op{kind: opGet, replica: rep, key: key}
		default:
			return op{kind: opQuery, replica: rep, key: key}
		}
	})
}

// warmup runs one second of the workload's load, unmeasured, so that
// connections, goroutines and heap are in steady state when the window
// opens. It is the last step of set-up.
func (r *runner) warmup() {
	targets := r.c.up()
	warm, _ := r.cl.openLoop(r.windowOps(int(r.w.rate*warmup.Seconds()), len(targets), "warm"), r.urls(targets))
	r.out.attempted += len(warm)
	r.out.failed += failures(warm)
	r.acked = append(r.acked, acked(warm)...)
}

// window runs the measured open-loop window, then drains and checks the
// cluster.
func (r *runner) window() error {
	c, out := r.c, r.out
	targets := c.up()
	urls := r.urls(targets)

	ops := r.windowOps(int(r.w.rate*float64(r.seconds)), len(targets), "w")
	c.settle()
	before := r.snapshot()
	var prof *profiler
	if r.tracer != nil {
		r.tracer.phase.Store(spanWindow)
		prof = startProfiles()
	}
	results, late := r.cl.openLoop(ops, urls)
	cpu := cpuTime() - before.cpu
	gcShare := gcCPUShare(before.gc)
	var prof2 *profiles
	if prof != nil {
		r.tracer.phase.Store(spanOff)
		var err error
		if prof2, err = prof.stop(); err != nil {
			return err
		}
	}
	out.attempted += len(results)
	out.failed += failures(results)
	windowAcked := acked(results)
	r.acked = append(r.acked, windowAcked...)
	for i, o := range ops {
		if o.kind == opPut && results[i].ok {
			r.keys = append(r.keys, o.key)
		}
	}

	logf("window: %d requests, cpu %.2fs", len(results), cpu.Seconds())
	// Counters and memory are read once push traffic has settled, before
	// the drain's pulls: the window's cost, not the checker's.
	c.settle()
	after := r.snapshot()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	drainStart := time.Now()
	out.failed += c.drain(r.acked, drainTimeout)
	logf("drain: %.3fs", time.Since(drainStart).Seconds())
	if r.w.hotKeys > 0 {
		views := make([]valueView, len(targets))
		for i, rep := range targets {
			views[i] = rep.node.Store()
		}
		keys := make([]string, r.w.hotKeys)
		for i := range keys {
			keys[i] = hotKey(i)
		}
		out.failed += disagreeing(keys, views)
	}

	writes := float64(len(windowAcked))
	completed := float64(len(results) - failures(results))
	e := out.e2e
	e["cpu_us_per_op"] = cpu.Seconds() * 1e6 / completed
	e["msgs_per_update"] = (after.pushSent - before.pushSent) / writes
	e["wire_bytes_per_update"] = float64(after.wireBytes-before.wireBytes) / writes
	e["disk_bytes_per_update"] = (after.walBytes - before.walBytes) / writes
	e["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	lat := latencies(ops, results)
	e["put_p50_ms"], e["put_p99_ms"] = pct(lat[opPut], 0.50), pct(lat[opPut], 0.99)
	if r.w.getShare > 0 {
		e["get_p50_ms"], e["get_p99_ms"] = pct(lat[opGet], 0.50), pct(lat[opGet], 0.99)
	}
	vis, reach, hist := r.visibility(targets, results)
	e["visible_p50_ms"], e["visible_p99_ms"] = pct(vis, 0.50), pct(vis, 0.99)
	e["push_reach"] = reach
	out.cpuPerOp = e["cpu_us_per_op"]
	out.lateP99 = time.Duration(pct(durationsMS(late), 0.99) * float64(time.Millisecond))
	out.watchDropped = after.watchDropped
	out.pushFrames = after.pushFrames - before.pushFrames
	out.pushSent = after.pushSent - before.pushSent
	out.envelopeSends = r.stats.envelopeSends.Load()

	if r.tracer != nil {
		r.layerWindow(before, after, writes, completed, cpu, gcShare, hist, prof2)
	}
	return nil
}

// counters is a snapshot of the cluster-wide counters a window reads.
type counters struct {
	cpu                                  time.Duration
	gc                                   gcSample
	pushSent, pushDup, walBytes, walRecs float64
	fsyncs, coalesced, sendFailed        float64
	watchDropped                         float64
	wireBytes, frames, sendCalls         int64
	pushFrames, pushBytes                int64
}

func (r *runner) snapshot() counters {
	c := r.c
	return counters{
		cpu:          cpuTime(),
		gc:           readGC(),
		pushSent:     c.counter(live.MetricPushSent),
		pushDup:      c.counter(live.MetricPushDuplicate),
		walBytes:     c.counter(wal.MetricAppendBytes),
		walRecs:      c.counter(wal.MetricAppends),
		fsyncs:       c.counter(wal.MetricFsyncs),
		coalesced:    c.counter(live.MetricSendCoalesced),
		sendFailed:   c.counter(live.MetricSendFailed),
		watchDropped: c.counter("node.watch.dropped"),
		wireBytes:    r.stats.bytes.Load(),
		frames:       r.stats.frames.Load(),
		sendCalls:    r.stats.sendCalls.Load(),
		pushFrames:   r.stats.pushFrames.Load(),
		pushBytes:    r.stats.pushBytes.Load(),
	}
}

// visibility joins acknowledged window writes with each other replica's
// first arrival by (origin, seq). It returns the push-delivered visibility
// latencies (ms), the share of (write, replica) pairs first reached by
// push, and the mean history length of the arrivals.
func (r *runner) visibility(targets []*replica, results []result) ([]float64, float64, float64) {
	var vis []float64
	pairs, byPush := 0, 0
	histSum, histN := 0, 0
	for _, rep := range targets {
		first := rep.rec.firstArrivals()
		for _, res := range results {
			if !res.ok || res.ref.Seq == 0 || res.ref.Origin == rep.gossip {
				continue
			}
			pairs++
			a, ok := first[res.ref]
			if !ok {
				continue
			}
			histSum += a.hist
			histN++
			if a.push {
				byPush++
				vis = append(vis, float64(a.at-res.due)/float64(time.Millisecond))
			}
		}
	}
	if pairs == 0 || histN == 0 {
		return nil, 0, 0
	}
	return vis, float64(byPush) / float64(pairs), float64(histSum) / float64(histN)
}

// readPhase is an open-loop read-only phase over the keys the window
// wrote, with every replica up. It gives query_p99_ms on every workload
// (the window's 5% queries on hotkeys-mixed are too few for a p99), and
// the GET latencies on workloads whose window does not read.
func (r *runner) readPhase() {
	targets := r.c.up()
	keys := r.keys
	ops := schedule(readPhaseOps, readPhaseRate, len(targets), func(i, rep int) op {
		k := op{kind: opGet, replica: rep, key: keys[r.g.rng.Intn(len(keys))]}
		if i%2 == 1 {
			k.kind = opQuery
		}
		return k
	})
	r.c.settle()
	results, _ := r.cl.openLoop(ops, r.urls(targets))
	r.out.attempted += len(results)
	r.out.failed += failures(results)
	lat := latencies(ops, results)
	e := r.out.e2e
	if r.w.getShare == 0 {
		e["get_p50_ms"], e["get_p99_ms"] = pct(lat[opGet], 0.50), pct(lat[opGet], 0.99)
	}
	e["query_p99_ms"] = pct(lat[opQuery], 0.99)
}

// rejoinProbe restarts the last replica from its WAL after the others
// took writes without it, rejoinCycles times. On rejoin the first cycle is
// the workload's own: the rejoiner has been down since set-up and the
// window was its gap. Every other cycle closes the replica and has the
// others take gapWrites() first, which also exposes the dead connections
// as a real outage would. recover_s is the median of rejoinCycles
// restarts with no peers on copies of the WAL directory as it was before
// the first reopen; catchup_s is the median over the cycles of the time
// from the end of the real reopen until its clock covers every
// acknowledged write. The replica is left up.
func (r *runner) rejoinProbe() error {
	c := r.c
	rj := c.reps[len(c.reps)-1]
	var recovers, catchups []float64
	for cycle := 0; cycle < rejoinCycles; cycle++ {
		if cycle > 0 || !r.w.rejoin {
			if err := r.gap(rj); err != nil {
				return err
			}
		}
		if cycle == 0 {
			for t := 0; t < rejoinCycles; t++ {
				took, err := recoverCopy(rj.walDir, filepath.Join(r.root, fmt.Sprintf("recover-%d", t)))
				if err != nil {
					return err
				}
				recovers = append(recovers, took.Seconds())
			}
		}
		top := map[string]uint64{}
		for _, ref := range r.acked {
			if ref.Seq > top[ref.Origin] {
				top[ref.Origin] = ref.Seq
			}
		}
		work := pullWork(c)
		start := time.Now()
		if err := c.open(rj.idx, nil); err != nil {
			return err
		}
		opened := time.Now()
		for !covers(rj.node.Clock(), top) && time.Since(opened) < catchupLimit {
			time.Sleep(100 * time.Microsecond)
		}
		catchups = append(catchups, time.Since(opened).Seconds())
		logf("rejoin cycle %d: reopen %.3fs, catch-up %.3fs", cycle, opened.Sub(start).Seconds(), catchups[cycle])
		r.out.failed += len(missingAcks(r.acked, []seenView{rj.node.Store()}))
		if cycle == 0 && r.tracer != nil {
			rec := rj.recover
			r.out.layer["wal.replay_records_per_s"] = float64(rec.Replayed+rec.Duplicates+rec.CheckpointRestored) / opened.Sub(start).Seconds()
			r.out.layer["engine.pull_updates"] = pullWork(c) - work
		}
	}
	r.out.e2e["recover_s"] = median(recovers)
	r.out.e2e["catchup_s"] = median(catchups)
	return nil
}

// gap closes rj and has the other replicas take writes without it. On
// rejoin they overwrite the workload's keys, more of them than the
// daemon's -snapshot-catchup threshold, as the window does, so every cycle
// catches up by snapshot; elsewhere they write fresh keys, below the
// threshold, so catch-up is by delta.
func (r *runner) gap(rj *replica) error {
	c := r.c
	if err := c.shutdown(rj); err != nil {
		return err
	}
	donors := c.up()
	n, keys := gapWrites, 0
	if r.w.rejoin {
		n, keys = daemonDefaults.SnapshotCatchUp+gapWrites/10, r.rejoinKeys()
	}
	ops := make([]op, n)
	for i := range ops {
		key := ""
		if keys > 0 {
			key = hotKey(r.g.rng.Intn(keys))
		} else {
			key = r.g.fresh("gap")
		}
		ops[i] = r.g.put(key, i%len(donors))
	}
	start := time.Now()
	res := r.cl.closedLoop(ops, r.urls(donors))
	r.out.attempted += len(res)
	r.out.failed += failures(res)
	r.acked = append(r.acked, acked(res)...)
	written := time.Now()
	r.out.failed += c.drain(r.acked, drainTimeout)
	logf("gap: %d writes %.3fs, drain %.3fs", n, written.Sub(start).Seconds(), time.Since(written).Seconds())
	return nil
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

// pullWork is the catch-up work counter: updates received by pull plus
// snapshots served, over the open replicas.
func pullWork(c *cluster) float64 {
	return c.counter(live.MetricPullUpdates) + c.counter(live.MetricSnapshotServed)
}

// modelMessages is the §4.2 analytic push cost of one update in a cluster
// of n replicas at the daemon's fanout and PF schedule.
func modelMessages(n int) (float64, error) {
	fan := math.Min(float64(daemonDefaults.Fanout), float64(n-1))
	res, err := analytic.Push(analytic.PushParams{
		R: n, ROn0: n, Sigma: 1, Fr: fan / float64(n),
		PF: pf.Geometric{Base: daemonDefaults.PF}, PartialList: true,
	})
	if err != nil {
		return 0, err
	}
	return res.TotalMessages(), nil
}

// --- small measurement helpers ---

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type gcSample struct{ gc, total float64 }

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func gcCPUShare(before gcSample) float64 {
	now := readGC()
	if d := now.total - before.total; d > 0 {
		return (now.gc - before.gc) / d
	}
	return 0
}

// latencies groups request latencies (ms) by kind. A failed request
// counts as missing every latency limit.
func latencies(ops []op, results []result) map[opKind][]float64 {
	out := map[opKind][]float64{}
	for i, o := range ops {
		ms := math.Inf(1)
		if results[i].ok {
			ms = float64(results[i].latency()) / float64(time.Millisecond)
		}
		out[o.kind] = append(out[o.kind], ms)
	}
	return out
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// pct returns the q-quantile of xs by nearest rank, 0 for no samples.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return pct(xs, 0.5) }
