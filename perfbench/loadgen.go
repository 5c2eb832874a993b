package main

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// latencies collects raw samples from concurrent workers; quantiles are
// computed exactly from them at the end of a phase.
type latencies struct {
	mu sync.Mutex
	d  []time.Duration
}

func (l *latencies) add(d ...time.Duration) {
	l.mu.Lock()
	l.d = append(l.d, d...)
	l.mu.Unlock()
}

func (l *latencies) snapshot() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.d...)
}

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks, or 0 for no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

// rounds is how many times a run repeats its phases. The latencies and
// bfs_ms are the median of their per-round values, so a burst of load
// from a neighbour on the shared machine spoils one round rather than the
// run; lb-* capacity pools the windows of all rounds, and heap_peak_mb
// is the peak over them.
const rounds = 5

// roundValues collects each end-to-end metric's per-round values and the
// number of samples behind them.
type roundValues map[string]*roundValue

type roundValue struct {
	vals    []float64
	samples int
}

func (r roundValues) add(name string, v float64, samples int) {
	rv := r[name]
	if rv == nil {
		rv = &roundValue{}
		r[name] = rv
	}
	rv.vals = append(rv.vals, v)
	rv.samples += samples
}

// tailQuantile is the tail percentile the end-to-end latencies report:
// p99.5, not p99. Sources are degree-weighted, and the hottest vertex of
// a Kronecker graph draws 1.0–1.3% of the requests, which puts p99 right
// on the edge of that vertex's (slowest) population: p99 then flips
// between two populations from run to run. p99.5 sits inside it.
const tailQuantile = 0.995

// latency adds one round's <kind>_p50_ms and <kind>_p995_ms.
func (r roundValues) latency(kind string, ds []time.Duration) {
	r.add(kind+"_p50_ms", ms(quantile(ds, 0.5)), len(ds))
	r.add(kind+"_p995_ms", ms(quantile(ds, tailQuantile)), len(ds))
}

// setMedians reports each metric as the median over rounds. The tail
// latencies go under their per-layer names.
func (r roundValues) setMedians(rep *report) {
	for name, rv := range r {
		if strings.HasSuffix(name, "_p995_ms") {
			name = "latency." + name
		}
		rep.metrics[name] = medianFloat(rv.vals)
		rep.samples[name] = rv.samples
	}
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// openLoop issues rate×dur operations on a fixed schedule: operation i is
// due at start + i/rate, whatever happened to earlier ones. One scheduler
// goroutine hands due operations to workers executors, so a stalled
// request delays later ones only by occupying an executor, and do times
// each operation from its due time (sched). The returned lateness is how
// far behind schedule the scheduler itself handed each operation over —
// the generator's own error, separate from the program's queueing.
//
// Operations still queued when the phase overruns its duration by a
// factor of four are handed to do with late=true so the caller can count
// them failed without sending them; the phase then ends promptly.
func openLoop(ctx context.Context, rate float64, dur time.Duration, workers int,
	do func(i int, sched time.Time, late bool)) (lateness []time.Duration) {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	type job struct {
		i     int
		sched time.Time
	}
	// Sized to the number of sends, so the scheduler never blocks on a
	// busy executor pool and keeps to its schedule.
	jobs := make(chan job, n)
	start := time.Now()
	giveUp := start.Add(4 * dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				do(j.i, j.sched, time.Now().After(giveUp) || ctx.Err() != nil)
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	lateness = make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		lateness = append(lateness, time.Since(sched))
		jobs <- job{i, sched}
	}
	close(jobs)
	wg.Wait()
	return lateness
}

// closedLoop runs workers goroutines that each issue their next operation
// as soon as the previous one completes, for dur. It returns the
// throughput of each window-long slice of the phase (ops/s); the caller
// reports their median, which a transient stall of the shared machine
// moves far less than it moves the mean. onWindow, when non-nil, is
// called at the start of each window with its index (the traced run uses
// it to alternate tracing on and off).
func closedLoop(ctx context.Context, dur, window time.Duration, workers int,
	onWindow func(w int), do func(i int64)) (rates []float64) {
	var done atomic.Int64
	var next atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if onWindow != nil {
		onWindow(0)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				do(next.Add(1) - 1)
				done.Add(1)
			}
		}()
	}
	deadline := time.Now().Add(dur)
	last, lastT := int64(0), time.Now()
	for k := 1; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
		time.Sleep(time.Until(lastT.Add(window)))
		cur, now := done.Load(), time.Now()
		rates = append(rates, float64(cur-last)/now.Sub(lastT).Seconds())
		last, lastT = cur, now
		if onWindow != nil {
			onWindow(k)
		}
	}
	close(stop)
	wg.Wait()
	return rates
}
