package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/serve"
)

// startDaemon runs the daemon in-process and returns its bound HTTP base
// URL plus a shutdown function that performs the graceful-drain path.
func startDaemon(t *testing.T, args ...string) (string, func() int) {
	t.Helper()
	pr, pw := io.Pipe()
	stop := make(chan struct{})
	code := make(chan int, 1)
	go func() {
		code <- run(append([]string{"-http", "127.0.0.1:0", "-gossip", "127.0.0.1:0"}, args...),
			pw, io.Discard, stop)
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("daemon never became ready: %v", err)
	}
	httpAddr, _, err := parseReadyLine(line)
	if err != nil {
		t.Fatal(err)
	}
	var stopped bool
	shutdown := func() int {
		if stopped {
			return 0
		}
		stopped = true
		close(stop)
		select {
		case c := <-code:
			return c
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not drain")
			return -1
		}
	}
	t.Cleanup(func() { shutdown() })
	return "http://" + httpAddr, shutdown
}

func parseReadyLine(line string) (httpAddr, gossipAddr string, err error) {
	fields := strings.Fields(strings.TrimSpace(line))
	for _, f := range fields {
		if v, ok := strings.CutPrefix(f, "http="); ok {
			httpAddr = v
		}
		if v, ok := strings.CutPrefix(f, "gossip="); ok {
			gossipAddr = v
		}
	}
	if httpAddr == "" || gossipAddr == "" {
		return "", "", fmt.Errorf("malformed ready line %q", line)
	}
	return httpAddr, gossipAddr, nil
}

// TestDaemonServesAndSnapshotsAcrossRestart: the daemon answers its
// probes and writes, its janitor folds the log into a checkpoint snapshot,
// and a new incarnation restores that checkpoint.
func TestDaemonServesAndSnapshotsAcrossRestart(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	base, shutdown := startDaemon(t, "-wal-dir", walDir, "-fsync", "never",
		"-wal-checkpoint", "1", "-janitor-interval", "20ms")

	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", probe, resp.StatusCode)
		}
	}

	req, _ := http.NewRequest(http.MethodPut, base+"/v1/kv/boot/count", bytes.NewReader([]byte("1")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d", resp.StatusCode)
	}

	// Any resident log exceeds a 1-byte threshold, so the next janitor
	// pass must leave a checkpoint snapshot behind.
	snap := filepath.Join(walDir, "checkpoint.snap")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if fi, err := os.Stat(snap); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never wrote a checkpoint snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := shutdown(); code != 0 {
		t.Fatalf("daemon exit code %d", code)
	}

	base2, _ := startDaemon(t, "-wal-dir", walDir, "-fsync", "never")
	resp, err = http.Get(base2 + "/v1/kv/boot/count")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "1" {
		t.Fatalf("restored get: %d %q", resp.StatusCode, body)
	}
	resp, err = http.Get(base2 + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	var state serve.State
	err = json.NewDecoder(resp.Body).Decode(&state)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if state.Restored != 1 || state.UpdateCount != 1 {
		t.Fatalf("state after restore = %+v", state)
	}
}

func TestDaemonWALRecoversAcrossRestart(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	base, shutdown := startDaemon(t, "-wal-dir", walDir, "-fsync", "never")

	req, _ := http.NewRequest(http.MethodPut, base+"/v1/kv/boot/count", bytes.NewReader([]byte("1")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d", resp.StatusCode)
	}
	if code := shutdown(); code != 0 {
		t.Fatalf("daemon exit code %d", code)
	}

	// A new incarnation replays the WAL: same value, counted as restored.
	base2, _ := startDaemon(t, "-wal-dir", walDir, "-fsync", "never")
	resp, err = http.Get(base2 + "/v1/kv/boot/count")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "1" {
		t.Fatalf("recovered get: %d %q", resp.StatusCode, body)
	}
	resp, err = http.Get(base2 + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	var state serve.State
	err = json.NewDecoder(resp.Body).Decode(&state)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if state.Restored != 1 || state.UpdateCount != 1 {
		t.Fatalf("state after wal recovery = %+v", state)
	}
}

// TestDaemonRejectsLegacyGobCheckpoint: a WAL checkpoint in the gob-era
// format 1 stops startup with exit status 1 and the migration message, not
// a silent empty start that would drop acknowledged writes.
func TestDaemonRejectsLegacyGobCheckpoint(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("..", "..", "internal", "store", "testdata", "legacy-gob-v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(t.TempDir(), "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(walDir, "checkpoint.snap"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	code := run([]string{"-http", "127.0.0.1:0", "-gossip", "127.0.0.1:0", "-wal-dir", walDir},
		io.Discard, &stderr, nil)
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "Migrating gob snapshots/checkpoints") {
		t.Fatalf("stderr does not name the migration: %q", stderr.String())
	}
}

// TestDaemonDropsSlowHeaderClients: a client that opens a connection and
// never finishes its request headers is disconnected after
// readHeaderTimeout instead of holding the connection forever.
func TestDaemonDropsSlowHeaderClients(t *testing.T) {
	t.Parallel()
	base, _ := startDaemon(t)
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: pushpulld\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after the partial request", time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the header timeout", waited)
	}
}

func TestDaemonRejectsBadFsyncPolicy(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	code := run([]string{"-http", "127.0.0.1:0", "-gossip", "127.0.0.1:0", "-wal-dir", dir, "-fsync", "sometimes"},
		io.Discard, io.Discard, nil)
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestDaemonBadFlags(t *testing.T) {
	if code := run([]string{"-definitely-not-a-flag"}, io.Discard, io.Discard, nil); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestSplitPeers(t *testing.T) {
	got := splitPeers(" a:1, ,b:2,,")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("splitPeers = %v", got)
	}
	if splitPeers("") != nil {
		t.Fatal("splitPeers(\"\") should be nil")
	}
}
