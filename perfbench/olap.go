package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"livegraph/internal/analytics"
	"livegraph/internal/core"
	"livegraph/internal/workload/kron"
	"livegraph/internal/workload/linkbench"
)

// boundedView is the BFS view of a snapshot: it hides edges to vertex IDs
// at or above n, the snapshot's vertex count. On the lb-* workloads,
// ADD_LINK destinations are IDs past every allocated vertex, which BFS's
// distance array cannot index; on fresh-olap every edge is inside.
type boundedView struct {
	analytics.SnapshotView
	n int64
}

func (v boundedView) NumVertices() int64 { return v.n }

func (v boundedView) ScanOut(src int64, fn func(dst int64) bool) {
	v.SnapshotView.ScanOut(src, func(dst int64) bool {
		return dst >= v.n || fn(dst)
	})
}

// analystResult is what the analyst loop measured.
type analystResult struct {
	attempted, failed int64
	trav, bfs         []time.Duration
	// busy is the time spent in traversals and BFS passes, excluding the
	// untimed correctness checks between them.
	busy time.Duration

	// Traced runs: every other traversal runs with EXPLAIN.
	explained, plain []time.Duration
	hops, bottomUp   int
	hopTime          time.Duration
	examined         int64 // edges examined by explained hops
	bfsEdges         int64 // edges inside the reached set, summed over passes
}

// checkEvery is how often (in traversals) the analyst compares a
// traversal with the naive reference.
const checkEvery = 16

// runAnalyst runs the analyst for dur, one round of a run: a closed loop of two-hop Dedup
// traversals from degree-weighted sources, each on a fresh snapshot, with
// a direction-optimizing BFS every cfg.bfsEvery traversals. ackedEpoch,
// when non-nil, is the newest epoch a concurrent writer has had
// acknowledged; every snapshot must be at least as fresh as the value
// read just before it was taken.
func runAnalyst(ctx context.Context, g *core.Graph, bg baseGraph, cfg config, round int, dur time.Duration,
	ackedEpoch *atomic.Int64, rep *report) analystResult {
	var ar analystResult
	srcs := kron.NewDegreeSampler(bg.raw, cfg.seed*31+int64(round))
	bfsChecked := false
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		floor := g.ReadEpoch()
		if ackedEpoch != nil {
			floor = ackedEpoch.Load()
		}
		snap, err := g.Snapshot()
		ar.attempted++
		if err != nil {
			ar.failed++
			continue
		}
		if snap.ReadEpoch() < floor {
			rep.fail("snapshot epoch %d older than acknowledged epoch %d", snap.ReadEpoch(), floor)
		}
		src := core.VertexID(srcs.Next())
		t := core.Traverse(src).Out(lbLabel).Out(lbLabel).Dedup()
		explain := cfg.trace && i%2 == 1
		var res []core.VertexID
		var ex *core.Explain
		t0 := time.Now()
		if explain {
			res, ex, err = t.RunExplain(ctx, snap)
		} else {
			res, err = t.Run(ctx, snap)
		}
		d := time.Since(t0)
		ar.busy += d
		if err != nil {
			ar.failed++
			snap.Release()
			continue
		}
		ar.trav = append(ar.trav, d)
		if cfg.trace {
			if explain {
				ar.explained = append(ar.explained, d)
				ar.noteExplain(ex)
			} else {
				ar.plain = append(ar.plain, d)
			}
		}
		if i%checkEvery == 0 {
			if err := checkTwoHop(snap, src, res); err != nil {
				rep.fail("%v", err)
			}
		}
		if cfg.bfsEvery > 0 && i%cfg.bfsEvery == 0 {
			ar.attempted++
			view := boundedView{analytics.SnapshotView{Snap: snap, Label: lbLabel}, snap.NumVertices()}
			t0 := time.Now()
			dist := analytics.BFSDir(view, int64(src), 0, core.DirectionAuto)
			d := time.Since(t0)
			ar.busy += d
			ar.bfs = append(ar.bfs, d)
			if cfg.trace {
				ar.bfsEdges += reachedEdges(snap, dist)
			}
			if !bfsChecked {
				bfsChecked = true
				if err := checkBFS(snap, view.n, src, dist); err != nil {
					rep.fail("%v", err)
				}
			}
		}
		snap.Release()
	}
	return ar
}

func (ar *analystResult) noteExplain(ex *core.Explain) {
	for _, h := range ex.Hops {
		if h.Kind != "out" {
			continue
		}
		ar.hops++
		ar.hopTime += time.Duration(h.DurationNs)
		if h.Direction == "bottomup" {
			ar.bottomUp++
			ar.examined += h.HintProbes
		} else {
			ar.examined += int64(h.FrontierOut) + h.DedupHits
		}
	}
}

// reachedEdges counts the edges leaving the vertices a BFS reached (the
// Graph500 "traversed edges" of the pass).
func reachedEdges(snap *core.Snapshot, dist []int64) int64 {
	var n int64
	for v, d := range dist {
		if d >= 0 {
			n += int64(snap.Degree(core.VertexID(v), lbLabel))
		}
	}
	return n
}

// addRound adds the round's traversal and BFS metrics.
func (ar *analystResult) addRound(rv roundValues) {
	rv.latency("traverse", ar.trav)
	rv.add("bfs_ms", ms(quantile(ar.bfs, 0.5)), len(ar.bfs))
}

// merge folds another round into ar.
func (ar *analystResult) merge(o analystResult) {
	ar.attempted += o.attempted
	ar.failed += o.failed
	ar.trav = append(ar.trav, o.trav...)
	ar.bfs = append(ar.bfs, o.bfs...)
	ar.busy += o.busy
	ar.explained = append(ar.explained, o.explained...)
	ar.plain = append(ar.plain, o.plain...)
	ar.hops += o.hops
	ar.bottomUp += o.bottomUp
	ar.hopTime += o.hopTime
	ar.examined += o.examined
	ar.bfsEdges += o.bfsEdges
}

// addLayers sets the traced traversal and analytics metrics.
func (ar *analystResult) addLayers(rep *report) {
	m := rep.metrics
	m["traverse.hop_us"] = perUnit(us(ar.hopTime), float64(ar.hops))
	m["traverse.edges_per_s"] = perUnit(float64(ar.examined), ar.hopTime.Seconds())
	m["traverse.bottomup_frac"] = perUnit(float64(ar.bottomUp), float64(ar.hops))
	m["analytics.bfs_edges_per_s"] = perUnit(float64(ar.bfsEdges), sum(ar.bfs).Seconds())
	if len(ar.plain) > 0 && len(ar.explained) > 0 {
		m["trace.overhead_frac"] = ms(quantile(ar.explained, 0.5))/ms(quantile(ar.plain, 0.5)) - 1
	}
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// runFreshOLAP runs fresh-olap: the analyst loop and one writer
// goroutine at the same time, in process. The writer commits 1-edge
// inserts on a fixed schedule and reads each edge back in a new read
// transaction; the analyst's snapshots must include every insert
// acknowledged before they were taken.
func runFreshOLAP(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	bg := genGraph(cfg.scale, cfg.seed)
	g, _, setupT, err := setup(bg, cfg.dataDir, nil)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	rep.metrics["setup_s"] = setupT.Seconds()
	round := time.Duration(cfg.seconds*float64(time.Second)) / rounds

	var heap heapPeak
	rt0 := readRuntime()
	e0 := g.Obs().Snapshot()
	var acked, failedTx, acks atomic.Int64
	acked.Store(g.ReadEpoch())
	var lateness, allWrites latencies
	var wt tally
	var ar analystResult
	var inserted []kron.Edge
	added := map[kron.Edge]bool{}
	rv := roundValues{}
	for k := 0; k < rounds; k++ {
		ins := genInserts(bg, cfg.seed, k, int(cfg.insertRate*round.Seconds()), added)
		base := bg.n + int64(len(inserted))
		inserted = append(inserted, ins...)
		var writes, reads latencies
		heap.settle(g)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			late := openLoop(ctx, cfg.insertRate, round, 1, func(i int, sched time.Time, tooLate bool) {
				if tooLate {
					wt.note(errLate)
					return
				}
				e, props := ins[i], basePayload(base+int64(i))
				epoch, err := insertEdge(g, e, props)
				wt.note(err)
				if err != nil {
					failedTx.Add(1)
					return
				}
				writes.add(time.Since(sched))
				acks.Add(1)
				for cur := acked.Load(); epoch > cur && !acked.CompareAndSwap(cur, epoch); cur = acked.Load() {
				}
				t0 := time.Now()
				err = readBack(g, e, props)
				wt.note(err)
				if err != nil {
					rep.fail("%v", err)
					return
				}
				reads.add(time.Since(t0))
			})
			lateness.add(late...)
		}()
		r := runAnalyst(ctx, g, bg, cfg, k, round, &acked, rep)
		wg.Wait()
		rv.latency("read", reads.snapshot())
		rv.latency("write", writes.snapshot())
		r.addRound(rv)
		// The analyst is the closed loop here: its throughput over the
		// time it spent traversing is this workload's capacity.
		rv.add("capacity_ops_s", perUnit(float64(len(r.trav)), r.busy.Seconds()), len(r.trav))
		allWrites.add(writes.snapshot()...)
		ar.merge(r)
	}
	e1 := g.Obs().Snapshot()
	rt1 := readRuntime()
	heap.settle(g)
	rep.metrics["heap_peak_mb"] = heap.mb()
	rv.setMedians(rep)
	rep.attempted = wt.attempted.Load() + ar.attempted
	rep.failed = wt.failed.Load() + ar.failed
	checkCommits(rep, acks.Load(), failedTx.Load(), engineDelta{e0, e1}.value("lg_core_commits_total"))

	if cfg.trace {
		addEngineLayers(rep, engineDelta{e0, e1})
		addDiskLayers(rep, diskCounts{}, diskCounts{}, 0, 0)
		addRuntimeLayers(rep, rt0, rt1, float64(rep.attempted))
		rep.metrics["loadgen.lateness_p99_ms"] = ms(quantile(lateness.snapshot(), 0.99))
		for _, name := range []string{"server.handler_read_us", "server.handler_tx_us", "server.wire_us",
			"server.resp_bytes_per_read", "server.req_bytes_per_tx", "server.dials_per_kop"} {
			rep.metrics[name] = 0
			rep.notApplicable = append(rep.notApplicable, name)
		}
		// No HTTP: the whole write is the commit, so what the commit
		// stages leave uncovered is the in-process transaction work.
		_, commitSum := engineDelta{e0, e1}.hist("lg_commit_latency_seconds")
		rep.metrics["write.unattributed_frac"] = 1 - perUnit(float64(commitSum), float64(sum(allWrites.snapshot())))
		ar.addLayers(rep)
		scan, point := replayScans(g, inserted)
		rep.metrics["core.scan_ns_per_edge"] = scan
		rep.metrics["core.point_read_ns"] = point
		rep.metrics["storage.bytes_per_edge"] = bytesPerEdge(g)
		ckptLayers(rep, engineDelta{e0, e1}, false)
		rep.metrics["recovery.reopen_s"] = 0
		rep.notApplicable = append(rep.notApplicable, "recovery.reopen_s")
	}
	return rep, nil
}

// genInserts draws round's n writer inputs: degree-weighted sources and
// uniform destinations, each redrawn until the edge is in neither the
// base graph nor added, so every commit is a true insertion. It records
// the drawn edges in added.
func genInserts(bg baseGraph, seed int64, round, n int, added map[kron.Edge]bool) []kron.Edge {
	ins := make([]kron.Edge, n)
	srcs := kron.NewDegreeSampler(bg.raw, seed*131+int64(round))
	rng := rand.New(rand.NewSource(seed*137 + int64(round)))
	for i := range ins {
		e := kron.Edge{Src: srcs.Next(), Dst: rng.Int63n(bg.n)}
		for bg.has(e) || added[e] {
			e.Dst = rng.Int63n(bg.n)
		}
		added[e] = true
		ins[i] = e
	}
	return ins
}

// insertEdge commits one true insertion and returns its commit epoch.
func insertEdge(g *core.Graph, e kron.Edge, props []byte) (int64, error) {
	tx, err := g.Begin()
	if err != nil {
		return 0, err
	}
	if err := tx.InsertEdge(core.VertexID(e.Src), lbLabel, core.VertexID(e.Dst), props); err != nil {
		tx.Abort()
		return 0, err
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return tx.CommitEpoch(), nil
}

// replayScans scans the writer's source vertices in process: the read
// path's cost per edge, and one GetVertex per source as the point read.
func replayScans(g *core.Graph, ins []kron.Edge) (scanNsPerEdge, pointNs float64) {
	ops := make([]lbOp, 0, 2*len(ins))
	for _, e := range ins {
		ops = append(ops, lbOp{op: linkbench.OpGetLinkList, src: e.Src}, lbOp{op: linkbench.OpGetNode, src: e.Src})
	}
	return replayReads(g, ops)
}
