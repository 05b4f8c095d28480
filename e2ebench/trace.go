package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pgossip/update/internal/store"
	"github.com/p2pgossip/update/internal/wal"
	"github.com/p2pgossip/update/internal/wire"
)

// Tracer phases.
const (
	spanOff int32 = iota
	spanWindow
	spanReads
)

// spanHeader carries a client request's span id to the server-side span.
const spanHeader = "X-Bench-Span"

// layers are the serving-path modules CPU and lock wait are charged to,
// plus the buckets for samples with no repository frame.
var layers = []string{"serve", "pushpull", "live", "engine", "store", "version", "wire", "wal", "metrics", "other", "http", "runtime", "loadgen"}

// tracer records spans at the seams the benchmark can reach from outside
// the program: the client request, Server.ServeHTTP, the inbound gossip
// Handler, transport sends, and (through the recorders) Watch events.
// Spans are kept in memory and written out when the run ends.
type tracer struct {
	// phase gates recording: spanWindow records every span, spanReads
	// (the read phase) only client and serve spans.
	phase   atomic.Int32
	epoch   time.Time
	mu      sync.Mutex
	serve   []serveSpan
	clients []clientSpan
	recvs   []recvSpan
	sends   []time.Duration
	envs    []wire.Envelope // captured inbound pushes, for the codec replay
}

type serveSpan struct {
	ID    int64  `json:"id"`
	Kind  string `json:"kind"`
	Phase int32  `json:"phase"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

type clientSpan struct {
	ID     int64  `json:"id"`
	Kind   string `json:"kind"`
	Due    int64  `json:"due_ns"`
	Sent   int64  `json:"sent_ns"`
	End    int64  `json:"end_ns"`
	OK     bool   `json:"ok"`
	Origin string `json:"origin,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
}

type recvSpan struct {
	Replica int    `json:"replica"`
	Kind    string `json:"kind"`
	Origin  string `json:"origin,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	Start   int64  `json:"start_ns"`
	Dur     int64  `json:"dur_ns"`
}

const maxEnvelopes = 20000

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		phase := t.phase.Load()
		if phase == spanOff {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		dur := time.Since(start)
		id, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		kind := "put"
		switch {
		case r.Method == http.MethodGet:
			kind = "get"
		case r.URL.Path == "/v1/query":
			kind = "query"
		}
		t.mu.Lock()
		t.serve = append(t.serve, serveSpan{ID: id, Kind: kind, Phase: phase, Start: int64(start.Sub(t.epoch)), Dur: int64(dur)})
		t.mu.Unlock()
	})
}

func (t *tracer) client(id int64, k opKind, res result) {
	if t.phase.Load() == spanOff {
		return
	}
	t.mu.Lock()
	t.clients = append(t.clients, clientSpan{
		ID: id, Kind: k.String(), Due: int64(res.due), Sent: int64(res.sent), End: int64(res.end),
		OK: res.ok, Origin: res.ref.Origin, Seq: res.ref.Seq,
	})
	t.mu.Unlock()
}

func (t *tracer) recv(idx int, env *wire.Envelope, start time.Time, dur time.Duration) {
	if t.phase.Load() != spanWindow {
		return
	}
	s := recvSpan{Replica: idx, Kind: env.Kind.String(), Start: int64(start.Sub(t.epoch)), Dur: int64(dur)}
	t.mu.Lock()
	defer t.mu.Unlock()
	if env.Kind == wire.KindPush {
		s.Origin, s.Seq = env.Update.Origin, env.Update.Seq
		if len(t.envs) < maxEnvelopes {
			cp := *env
			cp.RF = append([]string(nil), env.RF...)
			t.envs = append(t.envs, cp)
		}
	}
	t.recvs = append(t.recvs, s)
}

func (t *tracer) send(d time.Duration) {
	if t.phase.Load() != spanWindow {
		return
	}
	t.mu.Lock()
	t.sends = append(t.sends, d)
	t.mu.Unlock()
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.clients {
		_ = enc.Encode(struct {
			Span string `json:"span"`
			clientSpan
		}{"client", s})
	}
	for _, s := range t.serve {
		_ = enc.Encode(struct {
			Span string `json:"span"`
			serveSpan
		}{"serve", s})
	}
	for _, s := range t.recvs {
		_ = enc.Encode(struct {
			Span string `json:"span"`
			recvSpan
		}{"recv", s})
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profiler collects the CPU profile and enables the mutex and block
// profiles for the measured window.
type profiler struct{ cpu bytes.Buffer }

type profiles struct{ cpu, mutex, block *profile }

const (
	mutexFraction = 5
	blockRateNS   = 10000
)

func startProfiles() *profiler {
	p := &profiler{}
	runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRateNS)
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: cpu profile: %v\n", err)
	}
	return p
}

func (p *profiler) stop() (*profiles, error) {
	pprof.StopCPUProfile()
	var mu, bl bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&mu, 0); err != nil {
		return nil, err
	}
	if err := pprof.Lookup("block").WriteTo(&bl, 0); err != nil {
		return nil, err
	}
	runtime.SetMutexProfileFraction(0)
	runtime.SetBlockProfileRate(0)
	out := &profiles{}
	var err error
	if out.cpu, err = parseProfile(p.cpu.Bytes()); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if out.mutex, err = parseProfile(mu.Bytes()); err != nil {
		return nil, fmt.Errorf("mutex profile: %w", err)
	}
	if out.block, err = parseProfile(bl.Bytes()); err != nil {
		return nil, fmt.Errorf("block profile: %w", err)
	}
	return out, nil
}

// layerWindow derives the traced run's per-layer metrics for the window.
func (r *runner) layerWindow(before, after counters, writes, ops float64, cpu time.Duration, gcShare, hist float64, p *profiles) {
	m, t := r.out.layer, r.tracer
	t.mu.Lock()
	var recv, send []float64
	for _, s := range t.recvs {
		recv = append(recv, float64(s.Dur)/1e3)
	}
	for _, d := range t.sends {
		send = append(send, float64(d)/1e3)
	}
	t.mu.Unlock()

	m["live.recv_busy_us_p50"], m["live.recv_busy_us_p99"] = pct(recv, 0.50), pct(recv, 0.99)
	m["live.send_busy_us_p50"] = pct(send, 0.50)
	if calls := after.sendCalls - before.sendCalls; calls > 0 {
		m["live.frames_per_write"] = float64(after.frames-before.frames) / float64(calls)
	}
	m["live.coalesced_per_update"] = (after.coalesced - before.coalesced) / writes
	m["live.send_failed"] = after.sendFailed - before.sendFailed
	m["pushpull.watch_dropped"] = after.watchDropped
	m["engine.dup_per_update"] = (after.pushDup - before.pushDup) / writes
	msgs := (after.pushSent - before.pushSent) / writes
	if model, err := modelMessages(len(r.c.up())); err == nil && model > 0 {
		m["engine.model_msgs_per_update"] = model
		m["engine.msgs_vs_model"] = msgs / model
	}
	m["version.history_len_mean"] = hist
	if pf := after.pushFrames - before.pushFrames; pf > 0 {
		m["wire.push_frame_bytes_mean"] = float64(after.pushBytes-before.pushBytes) / float64(pf)
	}
	if fs := after.fsyncs - before.fsyncs; fs > 0 {
		m["wal.records_per_fsync"] = (after.walRecs - before.walRecs) / fs
	}
	if recs := after.walRecs - before.walRecs; recs > 0 {
		m["wal.bytes_per_record"] = (after.walBytes - before.walBytes) / recs
	}
	var resident float64
	up := r.c.up()
	for _, rep := range up {
		resident += float64(rep.node.Store().UpdateCount())
	}
	m["store.resident_updates"] = resident / float64(len(up))
	m["gc.cpu_share"] = gcShare
	m["loadgen.late_ms_p99"] = float64(r.out.lateP99) / float64(time.Millisecond)

	// CPU: every sample is charged to one bucket, so the buckets sum to
	// the traced run's cpu_us_per_op by construction.
	cpuPerOp := cpu.Seconds() * 1e6 / ops
	m["trace.cpu_us_per_op"] = cpuPerOp
	byCPU := p.cpu.byLayer(nil)
	total := 0.0
	for _, v := range byCPU {
		total += v
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = byCPU[l] / total
		}
		m[l+".cpu_us_per_op"] = share * cpuPerOp
	}
	locks := p.mutex.byLayer(nil)
	for _, l := range []string{"live", "store", "metrics"} {
		m[l+".lock_wait_us_per_op"] = locks[l] / 1e3 / ops
	}
	// The log's own flusher goroutine blocks by design; count only waits
	// on the request and ingest paths.
	io := p.block.byLayer(func(stack []string) bool { return outermostLayer(stack) != "wal" })
	m["wal.io_wait_us_per_op"] = io["wal"] / 1e3 / ops
}

// layerServe derives the serve-side span metrics once the read phase is
// over: PUTs from the window, GETs from the window where it reads and from
// the read phase elsewhere (as the end-to-end GET metrics), queries from
// the read phase.
func (r *runner) layerServe() {
	m, t := r.out.layer, r.tracer
	getPhase := spanReads
	if r.w.getShare > 0 {
		getPhase = spanWindow
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var put, get, query, overhead []float64
	serveByID := map[int64]float64{}
	for _, s := range t.serve {
		us := float64(s.Dur) / 1e3
		serveByID[s.ID] = us
		switch {
		case s.Kind == "put" && s.Phase == spanWindow:
			put = append(put, us)
		case s.Kind == "get" && s.Phase == getPhase:
			get = append(get, us)
		case s.Kind == "query" && s.Phase == spanReads:
			query = append(query, us)
		}
	}
	for _, c := range t.clients {
		if s, ok := serveByID[c.ID]; ok && c.OK {
			overhead = append(overhead, float64(c.End-c.Sent)/1e3-s)
		}
	}
	m["serve.put_busy_us_p50"], m["serve.put_busy_us_p99"] = pct(put, 0.50), pct(put, 0.99)
	m["serve.get_busy_us_p50"] = pct(get, 0.50)
	m["serve.query_busy_us_p99"] = pct(query, 0.99)
	m["http.overhead_us_p50"] = pct(overhead, 0.50)
}

// replays re-runs captured streams through single layers: the store
// apply path, the wire codec, the WAL append path, and the snapshot codec.
func (r *runner) replays() error {
	m := r.out.layer
	rep := r.c.reps[0]
	rep.rec.mu.Lock()
	updates := append([]store.Update(nil), rep.rec.updates...)
	rep.rec.mu.Unlock()

	st := store.NewSharded(0)
	m["store.apply_replay_us_p50"] = chunked(len(updates), func(i int) { st.ApplyObserved(updates[i]) }) / 1e3

	r.tracer.mu.Lock()
	envs := r.tracer.envs
	r.tracer.mu.Unlock()
	var stream []byte
	m["wire.encode_replay_ns"] = chunked(len(envs), func(i int) {
		f, err := wire.NewFrame(&envs[i])
		if err != nil {
			return
		}
		stream = append(stream, f.Bytes()...)
		f.Release()
	})
	fr := wire.NewFrameReader(bytes.NewReader(stream))
	var env wire.Envelope
	m["wire.decode_replay_ns"] = chunked(len(envs), func(int) { _ = fr.ReadEnvelope(&env) })

	dir := filepath.Join(r.root, "replay-wal")
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncInterval, Interval: daemonDefaults.FsyncInterval, SegmentBytes: daemonDefaults.WALSegment})
	if err != nil {
		return err
	}
	m["wal.append_replay_us_p50"] = chunked(len(updates), func(i int) { _ = l.Append(updates[i]) }) / 1e3
	if err := l.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}

	var buf bytes.Buffer
	start := time.Now()
	if err := rep.node.WriteSnapshot(&buf); err != nil {
		return err
	}
	m["store.snapshot_encode_ms"] = float64(time.Since(start)) / 1e6
	m["store.snapshot_bytes"] = float64(buf.Len())
	start = time.Now()
	if _, _, err := store.DecodeSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		return err
	}
	m["store.snapshot_decode_ms"] = float64(time.Since(start)) / 1e6
	return nil
}

// chunked times f over 0..n-1 in chunks and returns the median per-call
// nanoseconds across chunks, so one slow chunk (a GC, a preemption) does
// not set the figure.
func chunked(n int, f func(i int)) float64 {
	const chunk = 256
	var per []float64
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		start := time.Now()
		for i := lo; i < hi; i++ {
			f(i)
		}
		per = append(per, float64(time.Since(start))/float64(hi-lo))
	}
	return median(per)
}
