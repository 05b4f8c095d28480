// Package serve exposes a pushpull.Node over HTTP: a key-value edge
// (PUT/GET/DELETE /v1/kv/{key}), k-replica queries (POST /v1/query), a
// server-sent-event stream over Node.Watch (GET /v1/watch), peer and
// snapshot management, Prometheus metrics, and the scrape surface the
// multi-process soak harness checks its invariants against (GET /v1/state).
//
// The package is the process boundary between protocol replicas and real
// clients: cmd/pushpulld mounts a Server on a listener, internal/cluster
// drives fleets of those daemons through this API, and an operator points
// Prometheus at /metrics. Handlers only call the public Node API, so
// everything observable here is observable to any embedder too.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	pushpull "github.com/p2pgossip/update"
	"github.com/p2pgossip/update/internal/metrics"
	"github.com/p2pgossip/update/internal/wire"
)

// HTTP counter-name prefixes reported into the node's metrics registry.
// Full names append a route tag, e.g. "http.requests.kv.get"; they ride the
// same registry as the live.* protocol counters and reach Prometheus
// through the same exporter.
const (
	// MetricHTTPRequests counts requests per route ("http.requests.<route>").
	MetricHTTPRequests = "http.requests"
	// MetricHTTPErrors counts 5xx responses per route ("http.errors.<route>").
	MetricHTTPErrors = "http.errors"
	// MetricHTTPLatencyMS accumulates handler wall time in milliseconds per
	// route ("http.latency_ms.<route>"); divide by the request counter for
	// the mean.
	MetricHTTPLatencyMS = "http.latency_ms"
)

// maxBodyBytes caps PUT /v1/kv values and POST bodies. Snapshot uploads are
// exempt (they carry whole logs).
const maxBodyBytes = 4 << 20

// Config assembles a Server.
type Config struct {
	// Node is the replica being served. Required.
	Node *pushpull.Node
	// Metrics is the registry the node was opened with (WithMetrics); the
	// server adds its HTTP counters to it and /metrics exports it. Optional:
	// when nil, /metrics serves gauges only.
	Metrics *pushpull.Metrics
	// Restored is the number of updates the process restored from a
	// snapshot before serving; /v1/state republishes it so the soak
	// harness can reconcile apply counters across restarts.
	Restored int
	// StartUnready makes /readyz fail until SetReady(true); the daemon
	// uses it to gate readiness on peer wiring.
	StartUnready bool
}

// Server is the HTTP edge over one Node. Create with New, mount via
// Handler (it is an http.Handler itself), and flip availability with
// SetReady during shutdown.
type Server struct {
	node     *pushpull.Node
	reg      *pushpull.Metrics
	exporter *metrics.Exporter
	mux      *http.ServeMux
	ready    atomic.Bool
	restored int
	started  time.Time
}

// New builds a Server over cfg.Node. Every counter name the node can ever
// report is pre-registered at zero so /metrics exposes the full protocol
// surface from the first scrape, not only the counters that happen to have
// fired.
func New(cfg Config) (*Server, error) {
	if cfg.Node == nil {
		return nil, fmt.Errorf("serve: Config.Node is required")
	}
	s := &Server{
		node:     cfg.Node,
		reg:      cfg.Metrics,
		mux:      http.NewServeMux(),
		restored: cfg.Restored,
		started:  time.Now(),
	}
	s.ready.Store(!cfg.StartUnready)
	if s.reg != nil {
		for _, name := range pushpull.MetricNames() {
			s.reg.Add(name, 0)
		}
	}
	s.exporter = metrics.NewExporter(s.reg, "pushpull")
	s.exporter.AddGauge("store.updates", "Resident update-log entries (post-compaction).",
		func() float64 { return float64(s.node.Store().UpdateCount()) })
	s.exporter.AddGauge("store.live_keys", "Keys with a live winning revision.",
		func() float64 { return float64(len(s.node.Keys())) })
	s.exporter.AddGauge("peers", "Known peer addresses.",
		func() float64 { return float64(len(s.node.Peers())) })
	s.exporter.AddGauge("ready", "1 when /readyz would succeed.",
		func() float64 {
			if s.ready.Load() {
				return 1
			}
			return 0
		})
	s.exporter.AddGauge("uptime_seconds", "Seconds since the server was built.",
		func() float64 { return time.Since(s.started).Seconds() })

	s.mux.HandleFunc("/v1/kv/", s.route("kv", s.handleKV))
	s.mux.HandleFunc("/v1/query", s.route("query", s.handleQuery))
	s.mux.HandleFunc("/v1/watch", s.route("watch", s.handleWatch))
	s.mux.HandleFunc("/v1/peers", s.route("peers", s.handlePeers))
	s.mux.HandleFunc("/v1/snapshot", s.route("snapshot", s.handleSnapshot))
	s.mux.HandleFunc("/v1/pull", s.route("pull", s.handlePull))
	s.mux.HandleFunc("/v1/state", s.route("state", s.handleState))
	s.mux.HandleFunc("/healthz", s.route("healthz", s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.route("readyz", s.handleReadyz))
	s.mux.HandleFunc("/metrics", s.route("metrics", s.handleMetrics))
	return s, nil
}

// Handler returns the server's HTTP handler (the server itself).
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetReady flips the /readyz probe; the daemon marks itself unready while
// draining so load balancers stop routing before the listener closes.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// statusWriter captures the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streaming works through the
// instrumentation layer.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// route wraps a handler with the per-route request, error, and latency
// counters. The method tag is appended for the kv route only, where one
// path serves three verbs.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	if s.reg == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		tag := name
		if name == "kv" {
			tag = name + "." + strings.ToLower(r.Method)
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.reg.Inc(MetricHTTPRequests + "." + tag)
		s.reg.Add(MetricHTTPLatencyMS+"."+tag, float64(time.Since(start))/float64(time.Millisecond))
		if sw.status >= 500 {
			s.reg.Inc(MetricHTTPErrors + "." + tag)
		}
	}
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// PutResult identifies the update a PUT or DELETE created: the (origin,
// seq) ref is the cluster-wide identity the soak harness tracks deliveries
// by.
type PutResult struct {
	Origin string `json:"origin"`
	Seq    uint64 `json:"seq"`
	Key    string `json:"key"`
	Delete bool   `json:"delete,omitempty"`
}

// handleKV dispatches /v1/kv/{key}. Keys may contain slashes; everything
// after the prefix is the key, so the paper's path-style keys ("users/a/x")
// work without escaping.
func (s *Server) handleKV(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/v1/kv/")
	if key == "" {
		writeError(w, http.StatusBadRequest, "empty key")
		return
	}
	switch r.Method {
	case http.MethodGet:
		rev, ok := s.node.Get(key)
		if !ok {
			writeError(w, http.StatusNotFound, "key %q not found", key)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Pushpull-Stamp", rev.Stamp.UTC().Format(time.RFC3339Nano))
		w.Header().Set("X-Pushpull-Branches", strconv.Itoa(s.node.Store().BranchCount(key)))
		_, _ = w.Write(rev.Value)
	case http.MethodPut, http.MethodPost:
		value, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeError(w, http.StatusRequestEntityTooLarge, "read value: %v", err)
			return
		}
		u, err := s.node.Publish(r.Context(), key, value)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "publish: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, PutResult{Origin: u.Origin, Seq: u.Seq, Key: u.Key})
	case http.MethodDelete:
		u, err := s.node.Delete(r.Context(), key)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "delete: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, PutResult{Origin: u.Origin, Seq: u.Seq, Key: u.Key, Delete: true})
	default:
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed on /v1/kv/", r.Method)
	}
}

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	Key string `json:"key"`
	// K is the number of replicas consulted (§4.4); 0 means 3.
	K int `json:"k,omitempty"`
}

// QueryResponse mirrors pushpull.QueryOutcome. Value is base64 in JSON (Go
// []byte encoding).
type QueryResponse struct {
	Found       bool   `json:"found"`
	Value       []byte `json:"value,omitempty"`
	Responses   int    `json:"responses"`
	Unconfident int    `json:"unconfident"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST /v1/query")
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.Key == "" {
		writeError(w, http.StatusBadRequest, "empty key")
		return
	}
	if req.K <= 0 {
		req.K = 3
	}
	out, err := s.node.Query(r.Context(), req.Key, req.K)
	if err != nil && !out.Found {
		writeError(w, http.StatusNotFound, "query: %v", err)
		return
	}
	resp := QueryResponse{
		Found:       out.Found,
		Responses:   out.Responses,
		Unconfident: out.Unconfident,
	}
	if out.Found {
		resp.Value = out.Revision.Value
	}
	writeJSON(w, http.StatusOK, resp)
}

// PeersResponse is the GET /v1/peers body.
type PeersResponse struct {
	Self  string   `json:"self"`
	Peers []string `json:"peers"`
}

// PeersRequest is the POST /v1/peers body; listed addresses are added to
// the membership view (peer-list churn is additive — the protocol retires
// dead peers through the §6 suspicion machinery, not an API).
type PeersRequest struct {
	Peers []string `json:"peers"`
}

func (s *Server) handlePeers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, PeersResponse{Self: s.node.Addr(), Peers: s.node.Peers()})
	case http.MethodPost:
		var req PeersRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "decode request: %v", err)
			return
		}
		s.node.AddPeers(req.Peers...)
		writeJSON(w, http.StatusOK, PeersResponse{Self: s.node.Addr(), Peers: s.node.Peers()})
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST /v1/peers")
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := s.node.WriteSnapshot(w); err != nil {
			// Headers are gone; all we can do is abort the stream.
			writeError(w, http.StatusInternalServerError, "write snapshot: %v", err)
		}
	case http.MethodPut, http.MethodPost:
		// A snapshot larger than one catch-up frame could never have
		// travelled between replicas either.
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxFrameBytes))
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeError(w, status, "restore snapshot: read body: %v", err)
			return
		}
		err = s.node.RestoreSnapshot(bytes.NewReader(raw))
		switch {
		case errors.Is(err, pushpull.ErrWAL):
			writeError(w, http.StatusInternalServerError, "restore snapshot: %v", err)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, "restore snapshot: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]int{"updates": s.node.Store().UpdateCount()})
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or PUT /v1/snapshot")
	}
}

// handlePull triggers one anti-entropy pull batch immediately, on top of
// the periodic schedule — the operator's (and soak harness's) catch-up
// lever.
func (s *Server) handlePull(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST /v1/pull")
		return
	}
	if err := s.node.Pull(r.Context()); err != nil {
		writeError(w, http.StatusServiceUnavailable, "pull: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"pulled": true})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, "draining\n")
		return
	}
	_, _ = io.WriteString(w, "ready\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.exporter.WritePrometheus(w)
}

// State is the scrape surface the soak harness checks cluster invariants
// against: the vector clock and log digest decide convergence, the ref
// frontier decides delivery, and update/apply accounting decides the
// no-duplicate-application check — all without in-process pointers.
type State struct {
	// Addr is the gossip (origin) address of the replica.
	Addr string `json:"addr"`
	// Clock is the replica's vector clock: contiguous per-origin frontiers.
	Clock map[string]uint64 `json:"clock"`
	// UpdateCount is the number of updates in the local log.
	UpdateCount int `json:"update_count"`
	// Restored is how many of those were restored from a snapshot at
	// process start (their applies predate this process's counters).
	Restored int `json:"restored"`
	// LiveKeys is the number of keys with a live winning revision.
	LiveKeys int `json:"live_keys"`
	// Digest is a SHA-256 over the full update log in (origin, seq) order —
	// equal digests mean byte-identical replica state.
	Digest string `json:"digest"`
	// Counters is a snapshot of the metrics registry (empty when the node
	// runs uninstrumented).
	Counters map[string]float64 `json:"counters"`
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /v1/state")
		return
	}
	st := s.node.Store()
	state := State{
		Addr:        s.node.Addr(),
		Clock:       st.Clock(),
		UpdateCount: st.UpdateCount(),
		Restored:    s.restored,
		LiveKeys:    len(s.node.Keys()),
		Digest:      digest(st),
	}
	if s.reg != nil {
		state.Counters = s.reg.Counters()
	}
	writeJSON(w, http.StatusOK, state)
}

// digest hashes the full update log in its canonical (origin, seq) order:
// converged replicas produce identical digests, diverged ones cannot
// collide short of SHA-256 breaking. Stamps are included — they are set
// once by the origin and travel with the update, so replicas agree on
// them.
func digest(st pushpull.Store) string {
	h := sha256.New()
	var num [8]byte
	writeBytes := func(b []byte) {
		binary.BigEndian.PutUint64(num[:], uint64(len(b)))
		h.Write(num[:])
		h.Write(b)
	}
	for _, u := range st.MissingFor(nil) {
		writeBytes([]byte(u.Origin))
		binary.BigEndian.PutUint64(num[:], u.Seq)
		h.Write(num[:])
		writeBytes([]byte(u.Key))
		writeBytes(u.Value)
		if u.Delete {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
		binary.BigEndian.PutUint64(num[:], uint64(u.Stamp.UnixNano()))
		h.Write(num[:])
		for _, id := range u.Version {
			h.Write(id[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
