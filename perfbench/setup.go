package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"livegraph/internal/core"
	"livegraph/internal/disk"
	"livegraph/internal/workload/kron"
)

const (
	// payloadSize is the vertex and link property size (LinkBench's
	// default payload class).
	payloadSize = 64
	// lbLabel is the single edge label every workload uses.
	lbLabel = core.Label(0)
	// loadBatch is how many vertices or edges one setup transaction adds.
	loadBatch = 4096
	// setupLoads is how many times setup loads the base graph; setup_s
	// is the median, steady against one slow load.
	setupLoads = 3
)

// baseGraph is a workload's generated input: a Kronecker edge list over
// vertices [0, n), deduplicated and sorted by source for batched loading,
// plus a degree-weighted source sampler seed over the raw list.
type baseGraph struct {
	n     int64
	raw   []kron.Edge // as generated: the degree-weighted sampling pool
	edges []kron.Edge // distinct (src, dst) pairs, sorted
}

func genGraph(scale int, seed int64) baseGraph {
	raw := kron.Generate(scale, 4, seed, kron.DefaultParams)
	edges := append([]kron.Edge(nil), raw...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	uniq := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	return baseGraph{n: int64(1) << scale, raw: raw, edges: uniq}
}

// has reports whether e is an edge of the base graph.
func (bg baseGraph) has(e kron.Edge) bool {
	i := sort.Search(len(bg.edges), func(i int) bool {
		x := bg.edges[i]
		return x.Src > e.Src || (x.Src == e.Src && x.Dst >= e.Dst)
	})
	return i < len(bg.edges) && bg.edges[i] == e
}

// basePayload is the property payload of base vertex or edge i; it is
// derived from i so reads can be checked without storing expectations.
func basePayload(i int64) []byte {
	p := make([]byte, payloadSize)
	for k := range p {
		p[k] = byte(i>>(8*(k%8))) ^ byte(k)
	}
	return p
}

// loadBase loads bg into g through ordinary write transactions, batched
// loadBatch operations at a time with a maintenance pass after each edge
// batch, and checkpoints a durable graph so the measured phases start
// from a base snapshot.
func loadBase(g *core.Graph, bg baseGraph) error {
	for lo := int64(0); lo < bg.n; lo += loadBatch {
		hi := min(lo+loadBatch, bg.n)
		tx, err := g.Begin()
		if err != nil {
			return err
		}
		for v := lo; v < hi; v++ {
			id, err := tx.AddVertex(basePayload(v))
			if err != nil {
				tx.Abort()
				return err
			}
			if int64(id) != v {
				tx.Abort()
				return fmt.Errorf("setup: vertex %d got ID %d", v, id)
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("setup: vertices [%d,%d): %w", lo, hi, err)
		}
	}
	for lo := 0; lo < len(bg.edges); lo += loadBatch {
		hi := min(lo+loadBatch, len(bg.edges))
		tx, err := g.Begin()
		if err != nil {
			return err
		}
		for i, e := range bg.edges[lo:hi] {
			// The list is deduplicated, so true insertion is exact.
			if err := tx.InsertEdge(core.VertexID(e.Src), lbLabel, core.VertexID(e.Dst), basePayload(int64(lo+i))); err != nil {
				tx.Abort()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("setup: edges [%d,%d): %w", lo, hi, err)
		}
		// A maintenance pass after every batch recycles the blocks the
		// batch's TEL upgrades superseded before the next batch allocates.
		// Left to the background scheduler, how much of that garbage is
		// reused depends on timing, and so does whether the arena reserves
		// another slab: the loaded graph's footprint would vary from run
		// to run by a slab pair (README.md, "Findings").
		g.CompactNow()
	}
	if g.Dir() != "" {
		return g.Checkpoint()
	}
	return nil
}

// setup loads the base graph setupLoads times, each into a fresh graph,
// and returns the last one together with the median load time. A non-nil
// backend makes the graphs durable, each in its own directory under root.
func setup(bg baseGraph, root string, backend disk.Backend) (g *core.Graph, dir string, median time.Duration, err error) {
	var took []float64
	for k := 0; k < setupLoads; k++ {
		if g != nil {
			if err := g.Close(); err != nil {
				return nil, "", 0, err
			}
			if dir != "" {
				os.RemoveAll(dir)
			}
		}
		opts := core.Options{}
		if backend != nil {
			dir = filepath.Join(root, fmt.Sprintf("graph-%d", k))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, "", 0, err
			}
			opts.Dir, opts.Backend = dir, backend
		}
		t0 := time.Now()
		g, err = core.Open(opts)
		if err != nil {
			return nil, "", 0, err
		}
		if err := loadBase(g, bg); err != nil {
			g.Close()
			return nil, "", 0, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return g, dir, time.Duration(medianFloat(took) * float64(time.Second)), nil
}
