package main

import (
	"context"
	"fmt"

	"livegraph/internal/workload/linkbench"
)

// workload is one named traffic shape. Everything here is fixed per
// workload; only the seed, the duration and the trace switch vary between
// runs, so runs of the same workload on different commits compare.
type workload struct {
	name string
	why  string
	// loadDesc states the load model, rates and their rationale.
	loadDesc string
	run      func(ctx context.Context, cfg config) (*report, error)

	scale int // vertices = 2^scale, edges ≈ 4 × vertices
	// durable puts the graph on a real-disk WAL under dataDir and posts
	// POST /v1/checkpoint midway through every open-loop phase.
	durable bool

	// LinkBench workloads (HTTP).
	mix       *linkbench.Mix
	openRate  float64 // open-loop ops/s of the mix
	writeRate float64 // open-loop ops/s of the write probe (0: none)

	// Analytics: two-hop traversals and BFS on fresh snapshots.
	bfsEvery   int     // one BFS per this many traversals
	insertRate float64 // fresh-olap: open-loop 1-edge inserts per second
}

func (w workload) graphDesc() string {
	return fmt.Sprintf("Kronecker scale %d (%d vertices, ~%d edges, avg degree 4, %d B payloads)",
		w.scale, 1<<w.scale, 4<<w.scale, payloadSize)
}

func (w workload) storageDesc() string {
	if w.durable {
		return "durable: disk.NewReal() backend, backend-default WAL shards, one fsync per commit group"
	}
	return "in memory (no WAL)"
}

// httpOpenRate is the open-loop rate of the HTTP workloads: about 15% of
// the closed-loop capacity both LinkBench mixes reach over loopback HTTP
// on the reference machine (~3.3k ops/s on 2 cores), so the latencies
// describe a lightly loaded server rather than a queue. The open loop
// has nproc executors; when the shared reference machine slowed for
// minutes (capacity ~1.4k instead of ~4k ops/s), requests queued for
// them at 30% of capacity: lb-dflt-durable's read p50 was 17.4 ms at
// 1000 ops/s and 2.1 ms at 500 ops/s on the same seed, so at 30% the
// latencies followed the neighbours' load rather than the program.
const httpOpenRate = 500

// freshInsertRate is fresh-olap's insert rate: the write transactions
// per second lb-dflt-durable's open loop commits (httpOpenRate ×
// DFLT's 30% write share), so the analyst reads data changing as fast as
// the served LinkBench load changes it. It is ~0.2% of what one
// in-process writer commits alone (~70k 1-edge inserts/s at scale 18 on
// the reference machine), so the writer takes little processor time from
// the analyst.
var freshInsertRate = httpOpenRate * writeShare(linkbench.DFLT)

// writeShare is the fraction of mix's operations that write.
func writeShare(mix linkbench.Mix) float64 {
	var writes, total float64
	for k, w := range mix.Weights {
		total += w
		if linkbench.Op(k).IsWrite() {
			writes += w
		}
	}
	return writes / total
}

// The analyst runs one BFS per bfsEvery traversals. Measured on the
// reference machine, a BFS pass costs about as much as 90 two-hop
// traversals at scale 16 (42 ms vs 0.47 ms) and 170 at scale 18 (230 ms
// vs 1.37 ms), so one BFS per 64 or 128 traversals gives BFS a little
// over half of the analyst's time: each round's bfs_ms then rests on
// about ten passes, and its traversal latencies on hundreds.
var workloads = []workload{
	{
		name: "lb-tao",
		why: "HTTP/JSON layer and scan-response encoding dominate; commit path bypassed. " +
			"Scale 16 fits in L3. A commit-path change should not move it.",
		loadDesc: "LinkBench TAO mix over loopback HTTP: open loop at 500 ops/s (~15% of the ~3.3k ops/s " +
			"capacity measured on a 2-core box), closed-loop capacity with nproc connections, an open-loop " +
			"probe of TAO's write ops at the same rate, then in-process analytics on the served graph " +
			"(a BFS every 64th two-hop traversal, a little over half the analyst's time)",
		run:       runLinkBench,
		scale:     16,
		mix:       &linkbench.TAO,
		openRate:  httpOpenRate,
		writeRate: httpOpenRate,
		bfsEvery:  64,
	},
	{
		name: "lb-dflt-durable",
		why: "Only workload with slot wait, locks, WAL append, fsync, apply, compaction and " +
			"checkpoints on the write path, beside the same scans as lb-tao.",
		loadDesc: "LinkBench DFLT mix (30% writes) over loopback HTTP on a durable graph: open loop at " +
			"500 ops/s (~15% of the ~3.3k ops/s capacity measured on a 2-core box), closed-loop capacity " +
			"with nproc connections, POST /v1/checkpoint midway through each open-loop phase (once per " +
			"round: every 5 s at --seconds 25), then in-process analytics (a BFS every 64th two-hop traversal)",
		run:      runLinkBench,
		scale:    16,
		durable:  true,
		mix:      &linkbench.DFLT,
		openRate: httpOpenRate,
		bfsEvery: 64,
	},
	{
		name: "fresh-olap",
		why: "TEL scans, traversal executor, morsel/sparsebit and BFS dominate on a graph larger " +
			"than L3; HTTP bypassed. An HTTP-layer change should not move it.",
		loadDesc: "embedded library: one analyst runs two-hop Dedup traversals (and a BFS every 128th, a " +
			"little over half its time) in a closed loop on fresh snapshots while one writer commits " +
			"new 1-edge inserts in an open loop at 150/s (lb-dflt-durable's write rate: 500 ops/s × " +
			"DFLT's 30% writes; ~0.2% of one writer's ~70k/s in-process capacity), reading each back",
		run:        runFreshOLAP,
		scale:      18,
		bfsEvery:   128,
		insertRate: freshInsertRate,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
