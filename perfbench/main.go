// Command perfbench is livegraph's end-to-end benchmark. It measures the
// paper's two claims on one store: serving LinkBench TAO and DFLT
// transactions through the HTTP server (§7.1–7.2), and running analytics
// on fresh data while writes continue (§7.4).
//
// Each run builds one workload from its seed, measures it for a fixed
// number of seconds, checks that every answer was correct, and prints the
// metrics by name with their units. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// benchmark times each layer with its own wrappers and prints the
// per-layer metrics instead. Run it from the repository root:
//
//	bash perfbench/run.sh --workload lb-tao --seed 1 --seconds 25 --trace 0
//
// --workload all runs every workload in turn, each ending with its own
// JSON line.
//
// A failed correctness check prints "correct": false and exits with
// status 1; a run that cannot be set up exits with status 2.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. The names and units
// match BENCHMARK.json; the smoke test checks that they do.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"traverse_p50_ms", "ms"},
	{"bfs_ms", "ms"},
	{"capacity_ops_s", "1/s"},
	{"heap_peak_mb", "MB"},
}

// The tail latencies are per-layer metrics: on the shared 2-core
// reference machine their run-to-run spread (0.3–0.7 of the median) is
// wider than any bound a gating metric may have, so they are reported,
// from the traced run, without one.
var perLayer = []metricDef{
	{"latency.read_p995_ms", "ms"},
	{"latency.write_p995_ms", "ms"},
	{"latency.traverse_p995_ms", "ms"},
	{"loadgen.lateness_p99_ms", "ms"},
	{"server.handler_read_us", "us"},
	{"server.handler_tx_us", "us"},
	{"server.wire_us", "us"},
	{"server.resp_bytes_per_read", "bytes"},
	{"server.req_bytes_per_tx", "bytes"},
	{"server.dials_per_kop", "count"},
	{"commit.slot_wait_us", "us"},
	{"commit.latency_us", "us"},
	{"commit.apply_us", "us"},
	{"commit.group_size", "count"},
	{"commit.abort_frac", "ratio"},
	{"wal.append_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.bytes_per_commit", "bytes"},
	{"disk.syncs_per_commit", "count"},
	{"disk.sync_us", "us"},
	{"disk.write_amp", "ratio"},
	{"core.scan_ns_per_edge", "ns"},
	{"core.point_read_ns", "ns"},
	{"traverse.hop_us", "us"},
	{"traverse.edges_per_s", "1/s"},
	{"traverse.bottomup_frac", "ratio"},
	{"analytics.bfs_edges_per_s", "1/s"},
	{"maint.pass_s", "s"},
	{"maint.dead_frac", "ratio"},
	{"maint.bytes_reclaimed", "bytes"},
	{"ckpt.delta_ms", "ms"},
	{"ckpt.bytes", "bytes"},
	{"storage.bytes_per_edge", "bytes"},
	{"recovery.reopen_s", "s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"trace.overhead_frac", "ratio"},
	{"write.unattributed_frac", "ratio"},
}

// config is one run's parameters: the workload's fixed shape plus the
// command line's seed, duration and trace switch.
type config struct {
	workload
	seed    int64
	seconds float64
	trace   bool
	// dataDir holds the durable workload's files; it is removed when the
	// run ends.
	dataDir string
}

// report is what a workload run hands back: the operation tally, every
// metric it measured, and the correctness checks that failed.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	// notApplicable lists per-layer metrics whose layer this workload
	// does not exercise; they are reported as 0.
	notApplicable []string
	// samples records how many observations each quantile rests on.
	samples map[string]int

	mu       sync.Mutex // fail and note may be called from several goroutines
	mismatch []string
	// notes are observations worth reading that do not fail the run.
	notes []string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	r.mismatch = append(r.mismatch, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all (one after another)")
	seed := fs.Int64("seed", 1, "seed for the graph and the operation streams")
	seconds := fs.Float64("seconds", 25, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []workload{w}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dir, err := os.MkdirTemp(".", ".perfbench-data-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	status := 0
	for _, w := range selected {
		cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, dataDir: dir}
		status = max(status, runWorkload(context.Background(), cfg, stdout, stderr))
	}
	return status
}

// runWorkload runs one configured workload and prints its report. It
// returns the process exit status.
func runWorkload(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	printHeader(stdout, cfg)
	rep, err := cfg.run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.name, err)
		return 2
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int64                      `json:"attempted"`
		Failed    int64                      `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: len(rep.mismatch) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]json.RawMessage{}}
	for _, m := range defs {
		v, ok := rep.metrics[m.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", cfg.name, m.name)
			return 2
		}
		fmt.Fprintf(stdout, "  %-28s %16.6g %s%s\n", m.name, v, m.unit, sampleNote(rep, m.name))
		out.Metrics[m.name] = json.RawMessage(fmt.Sprintf(`{"value": %s, "unit": %q}`, formatValue(v), m.unit))
	}
	if cfg.trace && len(rep.notApplicable) > 0 {
		sort.Strings(rep.notApplicable)
		fmt.Fprintf(stdout, "  not exercised by %s (reported as 0): %s\n", cfg.name, strings.Join(rep.notApplicable, " "))
	}
	fmt.Fprintf(stdout, "  attempted %d operations, %d failed (fail_frac %.6g)\n", rep.attempted, rep.failed, failFrac(rep))
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "  note: %s\n", n)
	}
	for _, m := range rep.mismatch {
		fmt.Fprintf(stdout, "  CHECK FAILED: %s\n", m)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func failFrac(r *report) float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

func sampleNote(r *report, name string) string {
	if n, ok := r.samples[name]; ok {
		return fmt.Sprintf("  (n=%d)", n)
	}
	return ""
}

// formatValue prints a float with all its digits, as JSON.
func formatValue(v float64) string {
	b, _ := json.Marshal(v) // finite floats always marshal
	return string(b)
}

// printHeader records the machine fingerprint and the workload's shape
// ahead of the results, so every result line can be traced to the
// hardware and inputs it came from.
func printHeader(w io.Writer, cfg config) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", cfg.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "  machine: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(w, "  graph: %s\n", cfg.graphDesc())
	fmt.Fprintf(w, "  storage: %s\n", cfg.storageDesc())
	fmt.Fprintf(w, "  load: %s\n", cfg.loadDesc)
	fmt.Fprintf(w, "  why: %s\n", cfg.why)
	fmt.Fprintf(w, "  started %s\n", time.Now().UTC().Format(time.RFC3339))
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
