package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p2pgossip/update/internal/serve"
	"github.com/p2pgossip/update/internal/store"
)

type opKind int

const (
	opPut opKind = iota
	opGet
	opQuery
)

func (k opKind) String() string { return [...]string{"put", "get", "query"}[k] }

// op is one scheduled client request.
type op struct {
	kind    opKind
	replica int // index into the phase's target replicas
	key     string
	value   []byte
	due     time.Duration // offset from the phase start (open loop)
}

// result is what one request observed. Times are offsets from the run's
// epoch; latency runs from due to the end of the response.
type result struct {
	ok        bool
	due, sent time.Duration
	end       time.Duration
	ref       store.Ref // PUT: the update the server acknowledged
}

func (r result) latency() time.Duration { return r.end - r.due }

// requestTimeout fails a request that hangs, so a stuck replica shows as
// failures instead of stalling the run.
const requestTimeout = 10 * time.Second

// client drives replicas over keep-alive HTTP connections: at most
// GOMAXPROCS of them per replica.
type client struct {
	hc     *http.Client
	ledger ledger
	epoch  time.Time
	tracer *tracer
	nextID atomic.Int64
}

func newClient(epoch time.Time, led ledger, tr *tracer) *client {
	n := runtime.GOMAXPROCS(0)
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     n,
				MaxIdleConnsPerHost: n,
				DisableCompression:  true,
			},
			Timeout: requestTimeout,
		},
		ledger: led,
		epoch:  epoch,
		tracer: tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request to base and checks its response.
func (c *client) do(o *op, base string, due time.Duration) result {
	res := result{due: due, sent: time.Since(c.epoch)}
	var req *http.Request
	var err error
	switch o.kind {
	case opPut:
		req, err = http.NewRequest(http.MethodPut, base+"/v1/kv/"+o.key, bytes.NewReader(o.value))
	case opGet:
		req, err = http.NewRequest(http.MethodGet, base+"/v1/kv/"+o.key, nil)
	case opQuery:
		body, _ := json.Marshal(serve.QueryRequest{Key: o.key, K: 2})
		req, err = http.NewRequest(http.MethodPost, base+"/v1/query", bytes.NewReader(body))
	}
	if err != nil {
		res.end = time.Since(c.epoch)
		return res
	}
	var id int64
	if c.tracer != nil {
		id = c.nextID.Add(1)
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode/100 == 2 {
			res.ok = c.check(o, body, &res)
		}
	}
	res.end = time.Since(c.epoch)
	if c.tracer != nil {
		c.tracer.client(id, o.kind, res)
	}
	return res
}

// check validates a 2xx response body against the ledger.
func (c *client) check(o *op, body []byte, res *result) bool {
	switch o.kind {
	case opPut:
		var pr serve.PutResult
		if json.Unmarshal(body, &pr) != nil || pr.Origin == "" || pr.Seq == 0 || pr.Key != o.key {
			return false
		}
		res.ref = store.Ref{Origin: pr.Origin, Seq: pr.Seq}
		return true
	case opGet:
		return c.ledger.written(o.key, body)
	default:
		var qr serve.QueryResponse
		return json.Unmarshal(body, &qr) == nil && qr.Found && c.ledger.written(o.key, qr.Value)
	}
}

// openLoop sends ops on their schedule regardless of completions, one
// goroutine per request, and returns each request's result and how late
// the generator dispatched it.
func (c *client) openLoop(ops []op, urls []string) ([]result, []time.Duration) {
	results := make([]result, len(ops))
	late := make([]time.Duration, len(ops))
	start := time.Now()
	startOff := start.Sub(c.epoch)
	var wg sync.WaitGroup
	for i := range ops {
		due := start.Add(ops[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.do(&ops[i], urls[ops[i].replica], startOff+ops[i].due)
		}(i)
	}
	wg.Wait()
	return results, late
}

// closedLoop sends ops as fast as workers per replica allow; set-up
// phases and the rejoin gap use it.
func (c *client) closedLoop(ops []op, urls []string) []result {
	results := make([]result, len(ops))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0)*len(urls); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = c.do(&ops[i], urls[ops[i].replica], time.Since(c.epoch))
			}
		}()
	}
	for i := range ops {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// gen draws a phase's requests from the workload seed.
type gen struct {
	rng    *rand.Rand
	ledger ledger
	unique int // keys handed out by fresh()
}

const valueBytes = 100

func (g *gen) value(key string) []byte {
	v := make([]byte, valueBytes)
	g.rng.Read(v)
	g.ledger.add(key, v)
	return v
}

func (g *gen) fresh(prefix string) string {
	g.unique++
	return fmt.Sprintf("%s/%07d", prefix, g.unique)
}

func (g *gen) put(key string, replica int) op {
	return op{kind: opPut, replica: replica, key: key, value: g.value(key)}
}

// schedule spaces n requests evenly at rate per second, round-robin over
// replicas targets, with pick choosing each request.
func schedule(n int, rate float64, targets int, pick func(i, replica int) op) []op {
	ops := make([]op, n)
	step := time.Duration(float64(time.Second) / rate)
	for i := range ops {
		ops[i] = pick(i, i%targets)
		ops[i].due = time.Duration(i) * step
	}
	return ops
}

// acked returns the refs of the acknowledged writes among results.
func acked(results []result) []store.Ref {
	var out []store.Ref
	for _, r := range results {
		if r.ok && r.ref.Seq != 0 {
			out = append(out, r.ref)
		}
	}
	return out
}

func failures(results []result) int {
	n := 0
	for _, r := range results {
		if !r.ok {
			n++
		}
	}
	return n
}
