package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"livegraph/internal/core"
	"livegraph/internal/disk"
	"livegraph/internal/server"
	"livegraph/internal/workload/kron"
	"livegraph/internal/workload/linkbench"
)

// lbOp is one generated LinkBench operation.
type lbOp struct {
	op       linkbench.Op
	src, dst int64
}

// getLinksLimit is LinkBench's GET_LINKS_LIST page size.
const getLinksLimit = 10000

// Each capacity phase reports the median throughput of capWindow
// slices, after dropping the first capWarmup of them.
const (
	capWindow = 250 * time.Millisecond
	capWarmup = 1
)

// genOps draws n operations from mix. Sources are degree-weighted over
// the base graph. ADD_LINK i targets dstBase+i: the caller passes 2^scale
// plus the number of operations generated for earlier phases, so every
// added link has its own destination at or above 2^scale, no DELETE_LINK
// or UPDATE_LINK (whose targets stay below 2^scale) ever touches one, and
// each can be checked after a reopen.
func genOps(mix linkbench.Mix, bg baseGraph, seed int64, phase int, n int, dstBase int64) []lbOp {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(phase)))
	srcs := kron.NewDegreeSampler(bg.raw, seed*7_919+int64(phase))
	var cum []float64
	var total float64
	for _, w := range mix.Weights {
		total += w
		cum = append(cum, total)
	}
	ops := make([]lbOp, n)
	for i := range ops {
		r := rng.Float64() * total
		op := linkbench.OpGetLinkList
		for k, c := range cum {
			if r < c {
				op = linkbench.Op(k)
				break
			}
		}
		o := lbOp{op: op, src: srcs.Next()}
		switch op {
		case linkbench.OpGetLink, linkbench.OpDeleteLink, linkbench.OpUpdateLink:
			o.dst = rng.Int63n(bg.n)
		case linkbench.OpAddLink:
			// Dense IDs rather than LinkBench's 2^40 space: WAL replay
			// raises the vertex count past every edge destination and then
			// walks each ID up to it, so a reopen would take time in
			// proportion to the largest ID (README.md, "Findings").
			o.dst = dstBase + int64(i)
		}
		ops[i] = o
	}
	return ops
}

// lbClient is the benchmark's op dispatcher: it maps each LinkBench
// operation to one call on server.Client and decides what counts as a
// correct answer. A 404 from GET_LINK (the link is absent) is a correct
// answer; a transport error, a timeout, any 5xx, a 409 left after the
// client's retries, or any other status is a failure.
type lbClient struct {
	// c sends every operation except DELETE_LINK, which goes through del.
	// Both share one transport. A delete of an absent link commits a
	// transaction that writes nothing, so keeping it apart lets
	// c.LastEpoch() be the newest epoch acknowledged to a transaction that
	// certainly wrote to the log.
	c, del *server.Client

	ackedTx      atomic.Int64 // acknowledged write transactions
	failedTx     atomic.Int64 // write transactions that failed
	payloadBytes atomic.Int64 // user bytes carried by acknowledged writes

	mu    sync.Mutex
	links []kron.Edge // acknowledged ADD_LINKs

	// Traced runs: client round trips of requests sent while the handler
	// timer was on.
	timer          *handlerTimer
	readRTT, txRTT rttTimer
}

var statusRE = regexp.MustCompile(`\(http (\d+)\)$`)

// httpStatus extracts the status code from a server.Client API error, or
// 0 for a transport error.
func httpStatus(err error) int {
	m := statusRE.FindStringSubmatch(err.Error())
	if m == nil {
		return 0
	}
	code, _ := strconv.Atoi(m[1])
	return code
}

// do performs o and reports whether it was a write and whether it failed.
func (l *lbClient) do(o lbOp) (write bool, err error) {
	traced := l.timer != nil && l.timer.on.Load()
	t0 := time.Now()
	var payload []byte
	if o.op.IsWrite() && o.op != linkbench.OpDeleteLink {
		payload = basePayload(o.dst)
	}
	c := l.c
	switch o.op {
	case linkbench.OpGetNode:
		_, err = c.Vertex(o.src)
	case linkbench.OpGetLink:
		_, err = c.Edge(o.src, int64(lbLabel), o.dst)
		if err != nil && httpStatus(err) == http.StatusNotFound {
			err = nil // absent link: a correct answer
		}
	case linkbench.OpGetLinkList:
		_, err = c.Neighbors(o.src, int64(lbLabel), getLinksLimit)
	case linkbench.OpCountLinks:
		_, err = c.Degree(o.src, int64(lbLabel))
	case linkbench.OpAddNode:
		write = true
		_, err = c.Tx(server.Op{Op: "addVertex", Data: payload})
	case linkbench.OpUpdateNode:
		write = true
		_, err = c.Tx(server.Op{Op: "putVertex", ID: o.src, Data: payload})
	case linkbench.OpAddLink, linkbench.OpUpdateLink:
		write = true
		_, err = c.Tx(server.Op{Op: "upsertEdge", Src: o.src, Label: int64(lbLabel), Dst: o.dst, Props: payload})
	case linkbench.OpDeleteLink:
		write = true
		_, err = l.del.Tx(server.Op{Op: "deleteEdge", Src: o.src, Label: int64(lbLabel), Dst: o.dst})
	default:
		err = fmt.Errorf("unknown op %v", o.op)
	}
	if traced {
		if write {
			l.txRTT.add(time.Since(t0))
		} else {
			l.readRTT.add(time.Since(t0))
		}
	}
	if write {
		if err != nil {
			l.failedTx.Add(1)
		} else {
			l.ackedTx.Add(1)
			l.payloadBytes.Add(int64(len(payload)))
			if o.op == linkbench.OpAddLink {
				l.mu.Lock()
				l.links = append(l.links, kron.Edge{Src: o.src, Dst: o.dst})
				l.mu.Unlock()
			}
		}
	}
	return write, err
}

// tally counts attempted and failed operations across concurrent workers.
type tally struct{ attempted, failed atomic.Int64 }

func (t *tally) note(err error) {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
	}
}

var errLate = errors.New("not sent: phase overran its schedule")

// runLinkBench runs lb-tao or lb-dflt-durable. Each round runs the mix
// over loopback HTTP in an open loop, a closed-loop capacity phase, for
// lb-tao an open-loop probe of the mix's write ops, and in-process
// analytics on the served graph.
func runLinkBench(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	bg := genGraph(cfg.scale, cfg.seed)
	var backend disk.Backend
	var dt *diskTimer
	if cfg.durable {
		backend = disk.NewReal()
		if cfg.trace {
			dt = &diskTimer{Backend: backend}
			backend = dt
		}
	}
	g, dir, setupT, err := setup(bg, cfg.dataDir, backend)
	if err != nil {
		return nil, err
	}
	open := true
	defer func() {
		if open {
			g.Close()
		}
	}()
	rep.metrics["setup_s"] = setupT.Seconds()

	var handler http.Handler = server.New(g)
	var ht *handlerTimer
	if cfg.trace {
		ht = &handlerTimer{next: handler}
		ht.on.Store(true)
		handler = ht
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	shutdown := func() {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
		<-served
	}
	serving := true
	defer func() {
		if serving {
			shutdown()
		}
	}()

	nproc := runtime.NumCPU()
	dc := &dialCounter{}
	tr := &http.Transport{DialContext: dc.DialContext, MaxIdleConns: nproc, MaxIdleConnsPerHost: nproc}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	c := server.NewClient("http://" + ln.Addr().String())
	del := server.NewClient(c.Base)
	c.HC, del.HC = hc, hc
	lc := &lbClient{c: c, del: del, timer: ht}

	// Each round's share of time per phase. lb-tao's mix has too few
	// writes for a write latency (0.2%), so it adds a write probe; the
	// analytics phase gives the lb-* workloads the traversal and BFS
	// metrics every workload must report.
	round := time.Duration(cfg.seconds*float64(time.Second)) / rounds
	openDur, capDur, writeDur, olapDur := round*8/20, round*6/20, round*3/20, round*3/20
	if cfg.writeRate == 0 {
		openDur, capDur, writeDur = round*9/20, round*8/20, 0
	}
	// ADD_LINK destinations are numbered densely across phases, in the
	// order the phases' operations are generated.
	nextDst := bg.n
	gen := func(mix linkbench.Mix, phase, n int) []lbOp {
		ops := genOps(mix, bg, cfg.seed, phase, n, nextDst)
		nextDst += int64(n)
		return ops
	}
	capOps := gen(*cfg.mix, 0, 1<<16)
	wmix := linkbench.Mix{Name: cfg.mix.Name + "-writes"}
	for k, w := range cfg.mix.Weights {
		if linkbench.Op(k).IsWrite() {
			wmix.Weights[k] = w
		}
	}
	// The traced run alternates the handler timer on and off per capacity
	// window; the ratio of the two window medians is the tracing overhead.
	var onWindow func(int)
	if ht != nil {
		onWindow = func(w int) { ht.on.Store(w%2 == 0) }
	}

	var heap heapPeak
	rt0 := readRuntime()
	e0 := g.Obs().Snapshot()
	d0 := dt.counts()
	var t tally
	var lateness latencies
	var timedOn, timedOff []float64 // traced capacity windows
	var ar analystResult
	var openOps []lbOp
	var capWindows []float64
	rv := roundValues{}
	for k := 0; k < rounds; k++ {
		heap.settle(g)
		var reads, writes latencies
		// The mix at a fixed rate.
		ops := gen(*cfg.mix, 1+2*k, int(cfg.openRate*openDur.Seconds()))
		openOps = append(openOps, ops...)
		ckptDone := checkpointMidway(cfg.durable, c, openDur, &t)
		late := openLoop(ctx, cfg.openRate, openDur, nproc, func(i int, sched time.Time, tooLate bool) {
			if tooLate {
				t.note(errLate)
				return
			}
			w, err := lc.do(ops[i])
			t.note(err)
			if err != nil {
				return
			}
			if w {
				writes.add(time.Since(sched))
			} else {
				reads.add(time.Since(sched))
			}
		})
		lateness.add(late...)
		ckptDone()

		// Capacity: nproc connections in a closed loop. The first window
		// ramps up and is dropped.
		heap.settle(g)
		rr := closedLoop(ctx, capDur, capWindow, nproc, onWindow, func(i int64) {
			_, err := lc.do(capOps[i%int64(len(capOps))])
			t.note(err)
		})
		if ht != nil {
			ht.on.Store(true)
		}
		warm := min(capWarmup, len(rr)-1)
		for i, r := range rr[warm:] {
			if (i+warm)%2 == 0 {
				timedOn = append(timedOn, r)
			} else {
				timedOff = append(timedOff, r)
			}
		}
		capWindows = append(capWindows, rr[warm:]...)

		// lb-tao: the mix's writes alone, at a fixed rate, so write
		// latency rests on enough samples.
		if writeDur > 0 {
			wops := gen(wmix, 2+2*k, int(cfg.writeRate*writeDur.Seconds()))
			heap.settle(g)
			late := openLoop(ctx, cfg.writeRate, writeDur, nproc, func(i int, sched time.Time, tooLate bool) {
				if tooLate {
					t.note(errLate)
					return
				}
				_, err := lc.do(wops[i])
				t.note(err)
				if err == nil {
					writes.add(time.Since(sched))
				}
			})
			lateness.add(late...)
		}
		rv.latency("read", reads.snapshot())
		rv.latency("write", writes.snapshot())

		// Analytics in process on the graph being served, HTTP idle.
		heap.settle(g)
		r := runAnalyst(ctx, g, bg, cfg, k, olapDur, nil, rep)
		r.addRound(rv)
		ar.merge(r)
	}
	serving = false
	shutdown()
	e1 := g.Obs().Snapshot()
	d1 := dt.counts()
	rt1 := readRuntime()
	heap.settle(g)
	rep.metrics["heap_peak_mb"] = heap.mb()
	rv.setMedians(rep)
	// Capacity is the median of every round's windows pooled: a window
	// slowed by a stall of the shared disk or processor moves it less than
	// it moves the median of a round's few windows.
	rep.metrics["capacity_ops_s"] = medianFloat(capWindows)
	rep.samples["capacity_ops_s"] = len(capWindows)
	httpOps := t.attempted.Load()
	rep.attempted, rep.failed = httpOps+ar.attempted, t.failed.Load()+ar.failed

	checkCommits(rep, lc.ackedTx.Load(), lc.failedTx.Load(), engineDelta{e0, e1}.value("lg_core_commits_total"))

	if cfg.trace {
		addEngineLayers(rep, engineDelta{e0, e1})
		addDiskLayers(rep, d0, d1, engineDelta{e0, e1}.value("lg_core_commits_total"), float64(lc.payloadBytes.Load()))
		addRuntimeLayers(rep, rt0, rt1, float64(rep.attempted))
		ar.addLayers(rep)
		// Here the tracing overhead is the HTTP wrappers' (replacing the
		// EXPLAIN one addLayers set).
		addServerLayers(rep, ht, lc, dc, timedOn, timedOff, httpOps)
		rep.metrics["loadgen.lateness_p99_ms"] = ms(quantile(lateness.snapshot(), 0.99))
		scan, point := replayReads(g, openOps)
		rep.metrics["core.scan_ns_per_edge"] = scan
		rep.metrics["core.point_read_ns"] = point
		rep.metrics["storage.bytes_per_edge"] = bytesPerEdge(g)
		ckptLayers(rep, engineDelta{e0, e1}, cfg.durable)
	}

	rep.metrics["recovery.reopen_s"] = 0
	if !cfg.durable {
		rep.notApplicable = append(rep.notApplicable, "recovery.reopen_s")
		return rep, nil
	}
	liveVertices := g.NumVertices()
	open = false
	if err := g.Close(); err != nil {
		return nil, fmt.Errorf("close before reopen: %w", err)
	}
	lc.mu.Lock()
	links := lc.links
	lc.mu.Unlock()
	re, err := checkDurable(dir, links, c.LastEpoch())
	if err != nil {
		rep.fail("%v", err)
	}
	rep.metrics["recovery.reopen_s"] = re.took.Seconds()
	// The notes are findings, not failed checks: no acknowledged change is
	// lost. See README.md, "Findings".
	if newest := del.LastEpoch(); re.epoch < newest {
		rep.note("after reopen: read epoch %d is older than epoch %d acknowledged to a "+
			"DELETE_LINK; the commits after %d wrote nothing to the WAL, so their epochs were not durable",
			re.epoch, newest, re.epoch)
	}
	if re.vertices != liveVertices {
		rep.note("after reopen: %d vertex IDs, the served graph had %d; WAL replay counts edge destinations as vertices",
			re.vertices, liveVertices)
	}
	return rep, nil
}

// addServerLayers fills the server.* metrics, the tracing overhead and
// the unattributed share of client write latency.
// on and off are the capacity windows with the handler timer on and off.
func addServerLayers(rep *report, ht *handlerTimer, lc *lbClient, dc *dialCounter, on, off []float64, httpOps int64) {
	m := rep.metrics
	readN, txN := float64(ht.readN.Load()), float64(ht.txN.Load())
	m["server.handler_read_us"] = perUnit(us(time.Duration(ht.readNs.Load())), readN)
	m["server.handler_tx_us"] = perUnit(us(time.Duration(ht.txNs.Load())), txN)
	m["server.resp_bytes_per_read"] = perUnit(float64(ht.respBytes.Load()), readN)
	m["server.req_bytes_per_tx"] = perUnit(float64(ht.reqBytes.Load()), txN)
	clientNs := lc.readRTT.ns.Load() + lc.txRTT.ns.Load()
	clientN := float64(lc.readRTT.n.Load() + lc.txRTT.n.Load())
	m["server.wire_us"] = perUnit(us(time.Duration(clientNs-ht.readNs.Load()-ht.txNs.Load())), clientN)
	m["server.dials_per_kop"] = perUnit(float64(dc.dials.Load()), float64(httpOps)/1000)
	txClient := perUnit(float64(lc.txRTT.ns.Load()), float64(lc.txRTT.n.Load()))
	m["write.unattributed_frac"] = 1 - perUnit(perUnit(float64(ht.txNs.Load()), txN), txClient)
	m["trace.overhead_frac"] = 1 - perUnit(medianFloat(on), medianFloat(off))
}

// ckptLayers fills ckpt.*; the checkpoint byte count is the gauge for
// the last checkpoint of the run.
func ckptLayers(rep *report, d engineDelta, ran bool) {
	rep.metrics["ckpt.bytes"] = d.after["lg_ckpt_last_bytes"].Value
	if !ran {
		rep.metrics["ckpt.bytes"] = 0
		rep.notApplicable = append(rep.notApplicable, "ckpt.delta_ms", "ckpt.bytes")
	}
}

// checkpointMidway posts one checkpoint halfway through a phase of length
// dur, when enabled, so every round sees the same background work at the
// same point; wait returns once it has finished. It counts as an
// attempted operation.
func checkpointMidway(enabled bool, c *server.Client, dur time.Duration, t *tally) (wait func()) {
	if !enabled {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(dur / 2)
		t.note(c.Checkpoint())
	}()
	return func() { <-done }
}

// replayReads replays the read operations of a generated stream in
// process, without HTTP: the cost of the engine's read path alone. It
// returns the scan cost per edge visited by GET_LINKS_LIST and the cost of
// one point read (GET_NODE, GET_LINK, COUNT_LINKS), each timed inside an
// already open read transaction.
func replayReads(g *core.Graph, ops []lbOp) (scanNsPerEdge, pointNs float64) {
	var scanNs, edges, pNs, points int64
	for _, o := range ops {
		tx, err := g.BeginRead()
		if err != nil {
			continue
		}
		t0 := time.Now()
		switch o.op {
		case linkbench.OpGetLinkList:
			it := tx.Neighbors(core.VertexID(o.src), lbLabel)
			k := int64(0)
			for k < getLinksLimit && it.Next() {
				k++
			}
			scanNs += int64(time.Since(t0))
			edges += k
		case linkbench.OpGetNode:
			tx.GetVertex(core.VertexID(o.src))
			pNs += int64(time.Since(t0))
			points++
		case linkbench.OpGetLink:
			tx.GetEdge(core.VertexID(o.src), lbLabel, core.VertexID(o.dst))
			pNs += int64(time.Since(t0))
			points++
		case linkbench.OpCountLinks:
			tx.Degree(core.VertexID(o.src), lbLabel)
			pNs += int64(time.Since(t0))
			points++
		}
		tx.Commit()
	}
	return perUnit(float64(scanNs), float64(edges)), perUnit(float64(pNs), float64(points))
}

// bytesPerEdge is the allocator's live bytes per visible edge.
func bytesPerEdge(g *core.Graph) float64 {
	snap, err := g.Snapshot()
	if err != nil {
		return 0
	}
	defer snap.Release()
	var edges int64
	for v := int64(0); v < snap.NumVertices(); v++ {
		edges += int64(snap.Degree(core.VertexID(v), lbLabel))
	}
	return perUnit(g.Obs().Snapshot()["lg_alloc_bytes"].Value, float64(edges))
}
