package main

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/live"
)

// TestTapForwardsFrameSenders: without both fast paths live.NewReplica
// would fall back to per-destination Send and the benchmark would measure
// a different program.
func TestTapForwardsFrameSenders(t *testing.T) {
	var tr live.Transport = &tapTransport{}
	if _, ok := tr.(live.FrameSender); !ok {
		t.Error("tapTransport does not implement live.FrameSender")
	}
	if _, ok := tr.(live.FrameBatchSender); !ok {
		t.Error("tapTransport does not implement live.FrameBatchSender")
	}
}

// TestShortBroadcastRun runs broadcast-unique briefly, traced, and checks
// the figures that are exact on it: every push frame the transport saw is
// one live.push.sent, each write costs exactly two pushes (one per peer),
// and every history has length 1.
func TestShortBroadcastRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 3-replica cluster for several seconds")
	}
	w, _ := findWorkload("broadcast-unique")
	w.rate = 500
	out, err := run(w, 7, 1, filepath.Join(t.TempDir(), "run"), 1, newTracer(time.Now()))
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.watchDropped != 0 {
		t.Fatalf("failed=%d watch_dropped=%g, want 0", out.failed, out.watchDropped)
	}
	if out.envelopeSends != 0 {
		t.Errorf("%d envelopes took the per-destination Send path", out.envelopeSends)
	}
	if out.pushFrames == 0 || float64(out.pushFrames) != out.pushSent {
		t.Errorf("push frames %d, live.push.sent %g: want equal and non-zero", out.pushFrames, out.pushSent)
	}
	if got := out.e2e["msgs_per_update"]; got != 2 {
		t.Errorf("msgs_per_update = %v, want exactly 2", got)
	}
	if got := out.layer["version.history_len_mean"]; got != 1 {
		t.Errorf("version.history_len_mean = %v, want exactly 1", got)
	}
	for _, m := range endToEnd {
		if _, ok := out.e2e[m.name]; !ok {
			t.Errorf("end-to-end metric %s not reported", m.name)
		}
	}
}
