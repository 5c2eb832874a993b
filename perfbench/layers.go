package main

import (
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"livegraph/internal/core"
	"livegraph/internal/disk"
	"livegraph/internal/obs"
)

// This file holds the traced run's instruments. They live in the
// benchmark, wrapped around the calls into each layer — the HTTP handler,
// the client's dialer, the durable backend — or read the engine's own
// registry and the Go runtime before and after the measured phases.

// handlerTimer wraps the server's http.Handler and times each request the
// handler serves, split into reads (GET) and transactions (POST /v1/tx),
// with the bytes each moves. on switches timing off for the untimed
// windows the tracing-overhead estimate compares against.
type handlerTimer struct {
	next http.Handler
	on   atomic.Bool

	readNs, readN, respBytes atomic.Int64
	txNs, txN, reqBytes      atomic.Int64
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	switch {
	case r.Method == http.MethodGet:
		cw := &countingResponse{ResponseWriter: w}
		h.next.ServeHTTP(cw, r)
		h.readNs.Add(int64(time.Since(t0)))
		h.readN.Add(1)
		h.respBytes.Add(cw.n)
	case r.Method == http.MethodPost && r.URL.Path == "/v1/tx":
		cr := &countingBody{ReadCloser: r.Body}
		r.Body = cr
		h.next.ServeHTTP(w, r)
		h.txNs.Add(int64(time.Since(t0)))
		h.txN.Add(1)
		h.reqBytes.Add(cr.n)
	default:
		h.next.ServeHTTP(w, r)
	}
}

type countingResponse struct {
	http.ResponseWriter
	n int64
}

func (c *countingResponse) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

// dialCounter counts the TCP connections the benchmark's client opens:
// connection churn seen from outside the server.
type dialCounter struct {
	d     net.Dialer
	dials atomic.Int64
}

func (c *dialCounter) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c.dials.Add(1)
	return c.d.DialContext(ctx, network, addr)
}

// diskTimer wraps a disk.Backend (passed to the engine through
// Options.Backend) and counts every byte and sync the durable layer
// issues, timing the WAL shard syncs.
type diskTimer struct {
	disk.Backend
	logBytes, otherBytes atomic.Int64
	logSyncs, logSyncNs  atomic.Int64
	otherSyncs           atomic.Int64
}

func (b *diskTimer) OpenLog(path string, geo disk.LogGeometry) (disk.LogFile, error) {
	f, err := b.Backend.OpenLog(path, geo)
	if err != nil {
		return nil, err
	}
	return &timedLog{LogFile: f, b: b}, nil
}

func (b *diskTimer) CreateAtomic(path string) (disk.AtomicFile, error) {
	f, err := b.Backend.CreateAtomic(path)
	if err != nil {
		return nil, err
	}
	return &countedAtomic{AtomicFile: f, b: b}, nil
}

func (b *diskTimer) SyncDir(dir string) error {
	b.otherSyncs.Add(1)
	return b.Backend.SyncDir(dir)
}

type timedLog struct {
	disk.LogFile
	b *diskTimer
}

func (l *timedLog) Write(p []byte) (int, error) {
	n, err := l.LogFile.Write(p)
	l.b.logBytes.Add(int64(n))
	return n, err
}

func (l *timedLog) Sync() error {
	t0 := time.Now()
	err := l.LogFile.Sync()
	l.b.logSyncNs.Add(int64(time.Since(t0)))
	l.b.logSyncs.Add(1)
	return err
}

type countedAtomic struct {
	disk.AtomicFile
	b *diskTimer
}

func (a *countedAtomic) Write(p []byte) (int, error) {
	n, err := a.AtomicFile.Write(p)
	a.b.otherBytes.Add(int64(n))
	return n, err
}

// Commit is fsync(file) + rename + fsync(dir): two syncs.
func (a *countedAtomic) Commit() error {
	a.b.otherSyncs.Add(2)
	return a.AtomicFile.Commit()
}

// diskCounts is a point-in-time copy of a diskTimer's counters.
type diskCounts struct {
	bytes, syncs, logSyncs, logSyncNs int64
}

func (b *diskTimer) counts() diskCounts {
	if b == nil {
		return diskCounts{}
	}
	return diskCounts{
		bytes:     b.logBytes.Load() + b.otherBytes.Load(),
		syncs:     b.logSyncs.Load() + b.otherSyncs.Load(),
		logSyncs:  b.logSyncs.Load(),
		logSyncNs: b.logSyncNs.Load(),
	}
}

// engineDelta is the change in the engine's own registry (g.Obs()) across
// the measured phases.
type engineDelta struct{ before, after map[string]obs.SnapshotValue }

func (d engineDelta) value(name string) float64 {
	return d.after[name].Value - d.before[name].Value
}

// hist returns the sample count and summed time of a histogram's delta.
func (d engineDelta) hist(name string) (n float64, sum time.Duration) {
	a, b := d.after[name].Hist, d.before[name].Hist
	if a == nil {
		return 0, 0
	}
	n, sum = float64(a.Count), time.Duration(a.SumNs)
	if b != nil {
		n -= float64(b.Count)
		sum -= time.Duration(b.SumNs)
	}
	return n, sum
}

// histMeanUs is the mean of a histogram's delta in microseconds.
func (d engineDelta) histMeanUs(name string) float64 {
	n, sum := d.hist(name)
	if n == 0 {
		return 0
	}
	return us(sum) / n
}

// addEngineLayers fills the commit, wal, maint and ckpt metrics from the
// engine registry delta.
func addEngineLayers(rep *report, d engineDelta) {
	commits := d.value("lg_core_commits_total")
	aborts := d.value("lg_core_aborts_total")
	_, slotSum := d.hist("lg_commit_slot_wait_seconds")
	groups, _ := d.hist("lg_commit_apply_seconds")
	m := rep.metrics
	m["commit.slot_wait_us"] = perUnit(us(slotSum), commits)
	m["commit.latency_us"] = d.histMeanUs("lg_commit_latency_seconds")
	m["commit.apply_us"] = d.histMeanUs("lg_commit_apply_seconds")
	m["commit.group_size"] = perUnit(commits, groups)
	m["commit.abort_frac"] = perUnit(aborts, commits+aborts)
	m["wal.append_us"] = d.histMeanUs("lg_wal_append_seconds")
	m["wal.fsync_us"] = d.histMeanUs("lg_wal_fsync_seconds")
	m["wal.bytes_per_commit"] = perUnit(d.value("lg_wal_appended_bytes_total"), commits)
	passes := d.value("lg_maint_passes_total")
	m["maint.pass_s"] = perUnit(d.value("lg_maint_pass_seconds_total"), passes)
	m["maint.dead_frac"] = perUnit(d.value("lg_maint_entries_dead_total"), d.value("lg_maint_entries_scanned_total"))
	m["maint.bytes_reclaimed"] = d.value("lg_maint_bytes_reclaimed_total")
	m["ckpt.delta_ms"] = d.histMeanUs("lg_ckpt_delta_seconds") / 1000
	if groups == 0 {
		rep.notApplicable = append(rep.notApplicable, "commit.apply_us", "commit.group_size")
	}
	if n, _ := d.hist("lg_wal_fsync_seconds"); n == 0 {
		rep.notApplicable = append(rep.notApplicable, "wal.append_us", "wal.fsync_us", "wal.bytes_per_commit")
	}
	if passes == 0 {
		rep.notApplicable = append(rep.notApplicable, "maint.pass_s", "maint.dead_frac", "maint.bytes_reclaimed")
	}
}

// addDiskLayers fills the disk metrics from the backend wrapper's
// counters; payload is the user bytes the acknowledged writes carried.
func addDiskLayers(rep *report, before, after diskCounts, commits, payload float64) {
	m := rep.metrics
	m["disk.syncs_per_commit"] = perUnit(float64(after.syncs-before.syncs), commits)
	m["disk.sync_us"] = perUnit(us(time.Duration(after.logSyncNs-before.logSyncNs)), float64(after.logSyncs-before.logSyncs))
	m["disk.write_amp"] = perUnit(float64(after.bytes-before.bytes), payload)
	if after.syncs == before.syncs {
		rep.notApplicable = append(rep.notApplicable, "disk.syncs_per_commit", "disk.sync_us", "disk.write_amp")
	}
}

func perUnit(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// runtimeStats reads the Go runtime counters the runtime.* metrics are
// deltas of.
type runtimeStats struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	pauses          *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeStats{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		pauses:     s[3].Value.Float64Histogram(),
	}
}

// addRuntimeLayers fills the runtime metrics; ops is the number of
// operations the measured phases completed.
func addRuntimeLayers(rep *report, before, after runtimeStats, ops float64) {
	m := rep.metrics
	m["runtime.gc_cpu_frac"] = perUnit(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	m["runtime.alloc_bytes_per_op"] = perUnit(float64(after.allocBytes-before.allocBytes), ops)
	m["runtime.gc_pause_p99_us"] = pauseQuantile(before.pauses, after.pauses, 0.99) * 1e6
}

// pauseQuantile is the q-quantile (seconds) of the pauses recorded
// between two reads of a runtime histogram, taking each bucket's upper
// bound (its lower bound for the open last bucket).
func pauseQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(after.Counts))
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return after.Buckets[i]
			}
			return hi
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// settle quiesces the process before each measured phase: a maintenance
// pass drains the dirty set and a full collection clears the heap. Every
// phase then starts from the same state, not at a random point of a
// compaction or collection cycle an earlier phase started; the background
// work a phase generates itself still runs inside it. It returns the live
// Go heap the collection found: at these quiescent points it holds the
// graph and the benchmark's inputs and nothing in flight, so its peak
// moves only when the program keeps more memory.
func settle(g *core.Graph) (liveBytes uint64) {
	g.CompactNow()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak tracks the largest live heap settle has seen.
type heapPeak uint64

func (h *heapPeak) settle(g *core.Graph) { *h = max(*h, heapPeak(settle(g))) }

func (h heapPeak) mb() float64 { return float64(h) / (1 << 20) }

// rttTimer sums client-side round trips for the requests sent while
// tracing is on, the minuend of server.wire_us.
type rttTimer struct{ ns, n atomic.Int64 }

func (r *rttTimer) add(d time.Duration) {
	r.ns.Add(int64(d))
	r.n.Add(1)
}
