package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/p2pgossip/update/internal/serve"
)

// State is the per-member scrape surface; re-exported so harness callers
// need not import internal/serve.
type State = serve.State

// Client speaks the internal/serve HTTP edge of one daemon.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient wraps an HTTP address ("127.0.0.1:8080") in a client.
func NewClient(addr string) *Client {
	return &Client{
		base: "http://" + addr,
		hc:   &http.Client{Timeout: 10 * time.Second},
	}
}

// Base returns the client's base URL.
func (c *Client) Base() string { return c.base }

func (c *Client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

func (c *Client) doJSON(method, path string, body []byte, into any) error {
	code, out, err := c.do(method, path, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("cluster: %s %s: %d %s", method, path, code, bytes.TrimSpace(out))
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(out, into)
}

// Put writes key=value through the edge and returns the assigned ref.
func (c *Client) Put(key string, value []byte) (serve.PutResult, error) {
	var res serve.PutResult
	err := c.doJSON(http.MethodPut, "/v1/kv/"+key, value, &res)
	return res, err
}

// Delete tombstones key.
func (c *Client) Delete(key string) (serve.PutResult, error) {
	var res serve.PutResult
	err := c.doJSON(http.MethodDelete, "/v1/kv/"+key, nil, &res)
	return res, err
}

// Get reads key; ok is false when the key has no live revision.
func (c *Client) Get(key string) (value []byte, ok bool, err error) {
	code, out, err := c.do(http.MethodGet, "/v1/kv/"+key, nil)
	if err != nil {
		return nil, false, err
	}
	switch code {
	case http.StatusOK:
		return out, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("cluster: GET /v1/kv/%s: %d %s", key, code, bytes.TrimSpace(out))
	}
}

// Query runs a §4.4 k-replica freshest-version query through this member.
func (c *Client) Query(key string, k int) (serve.QueryResponse, error) {
	var res serve.QueryResponse
	body, err := json.Marshal(serve.QueryRequest{Key: key, K: k})
	if err != nil {
		return res, err
	}
	err = c.doJSON(http.MethodPost, "/v1/query", body, &res)
	return res, err
}

// State scrapes /v1/state.
func (c *Client) State() (State, error) {
	var st State
	err := c.doJSON(http.MethodGet, "/v1/state", nil, &st)
	return st, err
}

// AddPeers teaches the member additional gossip addresses.
func (c *Client) AddPeers(peers []string) (serve.PeersResponse, error) {
	var res serve.PeersResponse
	body, err := json.Marshal(serve.PeersRequest{Peers: peers})
	if err != nil {
		return res, err
	}
	err = c.doJSON(http.MethodPost, "/v1/peers", body, &res)
	return res, err
}

// Pull triggers one anti-entropy batch now.
func (c *Client) Pull() (bool, error) {
	var res map[string]bool
	if err := c.doJSON(http.MethodPost, "/v1/pull", nil, &res); err != nil {
		return false, err
	}
	return res["pulled"], nil
}

// Ready reports whether /readyz returns 200.
func (c *Client) Ready() bool {
	code, _, err := c.do(http.MethodGet, "/readyz", nil)
	return err == nil && code == http.StatusOK
}
