// Command e2ebench is the repository's end-to-end benchmark: whole
// pushpulld replicas assembled in one process, driven open-loop through
// their HTTP edge. See README.md for the workloads and metrics, and run it
// through run.sh, which builds it from the checkout first:
//
//	bash e2ebench/run.sh --workload broadcast-unique --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics; progress and a readable summary go to standard
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported figure and its unit.
type metric struct {
	name, unit string
}

// endToEnd are reported by untraced runs, on every workload. They are the
// figures that hold still from run to run on a shared 2-vCPU host.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"msgs_per_update", "count"},
	{"push_reach", "ratio"},
	{"wire_bytes_per_update", "B"},
	{"disk_bytes_per_update", "B"},
	{"heap_mb", "MB"},
}

// wallClock are the end-to-end figures whose run-to-run spread on a shared
// host is too wide for a bound (CPU steal moves them; see README.md).
// Every run measures them and prints them in its summary; traced runs
// report them, prefixed "e2e.", from their untraced reference pass.
var wallClock = []metric{
	{"put_p50_ms", "ms"},
	{"put_p99_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"visible_p99_ms", "ms"},
	{"get_p50_ms", "ms"},
	{"get_p99_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"recover_s", "s"},
	{"catchup_s", "s"},
}

// perLayer are reported by traced runs, on every workload.
var perLayer = func() []metric {
	out := []metric{
		{"serve.put_busy_us_p50", "us"},
		{"serve.put_busy_us_p99", "us"},
		{"serve.get_busy_us_p50", "us"},
		{"serve.query_busy_us_p99", "us"},
		{"http.overhead_us_p50", "us"},
		{"pushpull.watch_dropped", "count"},
		{"live.recv_busy_us_p50", "us"},
		{"live.recv_busy_us_p99", "us"},
		{"live.send_busy_us_p50", "us"},
		{"live.frames_per_write", "count"},
		{"live.coalesced_per_update", "count"},
		{"live.send_failed", "count"},
		{"live.lock_wait_us_per_op", "us"},
		{"engine.dup_per_update", "count"},
		{"engine.model_msgs_per_update", "count"},
		{"engine.msgs_vs_model", "ratio"},
		{"engine.pull_updates", "count"},
		{"store.lock_wait_us_per_op", "us"},
		{"store.apply_replay_us_p50", "us"},
		{"store.resident_updates", "count"},
		{"store.snapshot_bytes", "B"},
		{"store.snapshot_encode_ms", "ms"},
		{"store.snapshot_decode_ms", "ms"},
		{"version.history_len_mean", "count"},
		{"wire.push_frame_bytes_mean", "B"},
		{"wire.encode_replay_ns", "ns"},
		{"wire.decode_replay_ns", "ns"},
		{"wal.records_per_fsync", "count"},
		{"wal.io_wait_us_per_op", "us"},
		{"wal.bytes_per_record", "B"},
		{"wal.append_replay_us_p50", "us"},
		{"wal.replay_records_per_s", "1/s"},
		{"metrics.lock_wait_us_per_op", "us"},
		{"gc.cpu_share", "ratio"},
		{"loadgen.late_ms_p99", "ms"},
		{"trace.cpu_us_per_op", "us"},
		{"trace.overhead", "ratio"},
	}
	for _, l := range layers {
		out = append(out, metric{l + ".cpu_us_per_op", "us"})
	}
	for _, m := range wallClock {
		out = append(out, metric{"e2e." + m.name, m.unit})
	}
	return out
}()

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "broadcast-unique", "workload to run")
		seed    = fs.Int64("seed", 1, "workload seed: picks keys, values and the op mix")
		seconds = fs.Int("seconds", 10, "length of the measured window")
		trace   = fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	root := filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	defer os.RemoveAll(root)

	var (
		out    *outcome
		err    error
		report []metric
		values map[string]float64
	)
	if *trace == 0 {
		out, err = run(w, *seed, *seconds, root, setupTrials, nil)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
			return 1
		}
		report, values = endToEnd, out.e2e
		summary(stderr, "wall-clock (not gated)", wallClock, out.e2e)
	} else {
		// An untraced pass first, on the same inputs, is the reference
		// for trace.overhead.
		ref, err := run(w, *seed, *seconds, filepath.Join(root, "ref"), 1, nil)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
			return 1
		}
		tr := newTracer(time.Now())
		out, err = run(w, *seed, *seconds, filepath.Join(root, "traced"), 1, tr)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s traced: %v\n", w.name, err)
			return 1
		}
		out.attempted += ref.attempted
		out.failed += ref.failed
		out.watchDropped += ref.watchDropped
		out.layer["trace.overhead"] = out.cpuPerOp / ref.cpuPerOp
		for _, m := range wallClock {
			out.layer["e2e."+m.name] = ref.e2e[m.name]
		}
		spans := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d", w.name, *seed))
		if err := tr.write(spans); err != nil {
			fmt.Fprintf(stderr, "e2ebench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "e2ebench: spans written to %s\n", spans)
		report, values = perLayer, out.layer
	}
	return emit(stdout, stderr, w.name, out, report, values)
}

// finite keeps a result encodable: a failed request counts as missing
// every latency limit, which the quantiles carry as +Inf.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e12
	}
	return v
}

// summary prints metrics sorted by name for a reader.
func summary(w io.Writer, title string, ms []metric, values map[string]float64) {
	sorted := append([]metric(nil), ms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	fmt.Fprintf(w, "  %s:\n", title)
	for _, m := range sorted {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.name, finite(values[m.name]), m.unit)
	}
}

// emit prints the readable summary to stderr and the result line to
// stdout.
func emit(stdout, stderr io.Writer, name string, out *outcome, report []metric, values map[string]float64) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(report))
	for _, m := range report {
		ms[m.name] = value{finite(values[m.name]), m.unit}
	}
	fmt.Fprintf(stderr, "e2ebench: %s attempted=%d failed=%d watch_dropped=%g\n", name, out.attempted, out.failed, out.watchDropped)
	summary(stderr, "reported", report, values)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0 && out.watchDropped == 0, out.attempted, out.failed, ms})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
