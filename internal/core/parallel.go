package core

// The morsel-driven hop executor. Every expanding step of a traversal —
// top-down hop, bottom-up hop, Filter — is a body handed to morsel.Run:
// the step's input is split into morsels that workers claim from an
// atomic cursor (internal/morsel), so a hub vertex hiding in one morsel
// stalls one worker while the rest keep claiming. Sequential execution is
// the one-worker case: a single morsel spanning the whole input, run on
// the calling goroutine, whose buffer is the step's result. This is the
// workload the paper's evaluation runs multi-threaded over snapshots
// (§7.4). The only shared mutable state between workers is:
//
//   - the dedup set: a lock-striped sparse bitset (internal/sparsebit);
//   - two atomic budgets, charged only when set: the next-frontier size
//     (MaxFrontier) and the result count (Limit on the final hop), so
//     early termination is seen by every worker within stopCheckEdges
//     scanned edges.
//
// Morsel buffers are reassembled in morsel order, which makes a parallel
// hop without Dedup/Limit byte-identical to the sequential one.

import (
	"context"
	"sync/atomic"

	"livegraph/internal/morsel"
	"livegraph/internal/sparsebit"
)

// stopCheckEdges bounds how many items (frontier vertices plus scanned
// edges, or bottom-up candidates) a morsel processes between looks at
// ctx and the shared budgets, so cancellation and budget exhaustion
// interrupt even a single enormous adjacency list.
const stopCheckEdges = 1024

const (
	// morselEdges is the degree-driven sizing target: a morsel should
	// scan about this many edges, so hub-heavy labels get finer morsels.
	morselEdges = 512
	// engageMinFloor bounds how far degree statistics may lower the
	// parallel-engage threshold on hub-heavy labels.
	engageMinFloor = 4
)

// hopExec is one run's executor: the state its hops share (dedup set,
// per-worker iterators, morsel output slots, morsel bodies) plus the
// current hop's inputs, which the bodies read. Allocated once per run, so
// hops after the first add no executor allocations.
type hopExec struct {
	ctx        context.Context
	r          Reader
	into       edgeIterSource // nil for foreign Readers: scans fall back to Neighbors
	g          *Graph         // nil for foreign Readers: no bottom-up, no statistics
	par        int
	morselN    int // Traversal.MorselSize
	engageMin  int // frontier width that repays worker dispatch
	minMorsel  int // adaptive morsel-width floor
	countStats bool
	limit      int64
	maxF       int64
	seen       *sparsebit.Set // nil unless the traversal dedups
	fbits      *sparsebit.Set // bottom-up frontier bitset, built on first use

	// One iterator per worker and one output slot per morsel; the
	// one-worker case uses the inline arrays and allocates neither.
	iters []workerIter
	iter0 [1]workerIter
	outs  [][]VertexID
	out0  [1][]VertexID

	// The current hop.
	frontier []VertexID
	cands    []VertexID
	rv       *revLabel
	label    Label
	keep     func(int64) bool // fused FilterDst predicate
	pred     func(Reader, VertexID) bool
	capped   bool

	produced   atomic.Int64 // results emitted (Limit budget, capped hop)
	grown      atomic.Int64 // next-frontier size (MaxFrontier budget)
	dedupHits  atomic.Int64 // countStats only
	candidates atomic.Int64
	probes     atomic.Int64

	topDownBody, bottomUpBody, filterBody func(w, m, lo, hi int) error
}

// workerIter is one worker's scan iterator, padded so that neighbouring
// workers' iterators never share a cache line: the scan position is
// written once per edge.
type workerIter struct {
	EdgeIter
	_ [64]byte
}

// hopStats is what one step reports for EXPLAIN; runSteps copies it into
// the step's HopPlan.
type hopStats struct {
	workers, morselSize, morsels int // set when the step fanned out
	dedupHits                    int64
	candidates, probes           int64
}

func (t *Traversal) newHopExec(ctx context.Context, r Reader, par int, countStats bool) *hopExec {
	x := &hopExec{
		ctx: ctx, r: r, par: par, morselN: t.morselN, countStats: countStats,
		limit: int64(t.limit), maxF: int64(t.maxFrontier),
		// In memory, expanding one vertex costs sub-microsecond scans, so
		// only DefaultSize-wide frontiers repay worker dispatch.
		engageMin: morsel.DefaultSize, minMorsel: 8,
	}
	x.into, _ = r.(edgeIterSource)
	if gs, ok := r.(graphSource); ok {
		x.g = gs.graph()
		if x.g.opts.PageCache != nil {
			// Under the out-of-core simulation one expansion can stall
			// milliseconds on page faults, and overlapping those waits is
			// the whole point: even an 8-vertex frontier fans out.
			x.engageMin, x.minMorsel = 8, 1
		}
	}
	if t.dedup {
		x.seen = sparsebit.New(4 * par)
	}
	x.iters, x.outs = x.iter0[:], x.out0[:]
	return x
}

// schedule picks the pool for one step over n items: the worker count and
// morsel width. A step too narrow to repay worker dispatch runs as one
// morsel on the calling goroutine. Otherwise morsels are the explicit
// MorselSize, or at most morsel.DefaultSize — lowered so one morsel scans
// about morselEdges edges when the label's live average degree is known —
// shrunk until the input splits into about four morsels per worker. The
// engage threshold is engageMin vertices, lowered (to at least
// engageMinFloor) for labels whose average degree makes even a narrow
// frontier expensive to expand.
func (x *hopExec) schedule(n int, avgDeg float64) (workers, size int) {
	if x.par <= 1 {
		return 1, n
	}
	if mn := x.morselN; mn > 0 {
		if n > mn {
			return x.par, mn
		}
		return 1, n
	}
	engage, maxSize := x.engageMin, morsel.DefaultSize
	if avgDeg > 1 {
		if e := int(8 * morselEdges / avgDeg); e < engage {
			engage = max(e, engageMinFloor)
		}
		if target := int(morselEdges / avgDeg); target < maxSize {
			maxSize = target
		}
	}
	if n < engage {
		return 1, n
	}
	return x.par, morsel.SizeFor(n, x.par, x.minMorsel, maxSize)
}

// fanStats reports a step's pool in EXPLAIN terms: nothing for the
// one-worker case.
func fanStats(n, workers, size int) hopStats {
	if workers <= 1 {
		return hopStats{}
	}
	return hopStats{workers: workers, morselSize: size, morsels: (n + size - 1) / size}
}

// pool runs body over n items and reassembles the morsel outputs in
// morsel order. A single morsel's buffer is returned as is.
func (x *hopExec) pool(n, workers, size int, body func(w, m, lo, hi int) error) ([]VertexID, error) {
	count := 0
	if n > 0 {
		count = (n + size - 1) / size
	}
	if cap(x.outs) < count {
		x.outs = make([][]VertexID, count)
	}
	x.outs = x.outs[:count]
	clear(x.outs)
	if len(x.iters) < workers {
		x.iters = make([]workerIter, workers)
	}
	x.produced.Store(0)
	x.grown.Store(0)
	x.dedupHits.Store(0)
	x.candidates.Store(0)
	x.probes.Store(0)
	if err := morsel.Run(x.ctx, n, size, workers, body); err != nil {
		return nil, err
	}
	if count == 1 {
		return x.outs[0], nil
	}
	total := 0
	for _, o := range x.outs {
		total += len(o)
	}
	next := make([]VertexID, 0, total)
	for _, o := range x.outs {
		next = append(next, o...)
	}
	return next, nil
}

// emit appends d to a morsel's buffer under the hop's budgets. On a capped
// hop the Limit slot is claimed before MaxFrontier is charged: results the
// limit discards must not count toward MaxFrontier. morsel.Stop reports a
// filled Limit.
func (x *hopExec) emit(buf []VertexID, d VertexID) ([]VertexID, error) {
	if x.capped {
		n := x.produced.Add(1)
		if n > x.limit {
			return buf, morsel.Stop
		}
		if x.maxF > 0 && x.grown.Add(1) > x.maxF {
			return buf, ErrFrontierTooLarge
		}
		buf = append(buf, d)
		if n == x.limit {
			return buf, morsel.Stop
		}
		return buf, nil
	}
	if x.maxF > 0 && x.grown.Add(1) > x.maxF {
		return buf, ErrFrontierTooLarge
	}
	return append(buf, d), nil
}

// poll is a long morsel's cooperative stop check: ctx cancellation, or a
// budget some worker has exhausted (that worker reports the outcome).
func (x *hopExec) poll() error {
	if err := x.ctx.Err(); err != nil {
		return err
	}
	if x.capped && x.produced.Load() >= x.limit {
		return morsel.Stop
	}
	if x.maxF > 0 && x.grown.Load() > x.maxF {
		return morsel.Stop
	}
	return nil
}

// bind points the executor at one stepOut. es.keep, the fused FilterDst
// predicate, runs inside the TEL scan loop of a top-down hop and
// pre-filters the candidates of a bottom-up one.
func (x *hopExec) bind(es *execStep, capped bool) {
	x.label, x.capped, x.keep = es.label, capped, nil
	if keep := es.keep; keep != nil {
		x.keep = func(d int64) bool { return keep(VertexID(d)) }
	}
}

// topDown expands one stepOut forward: every frontier vertex's adjacency
// list is scanned.
func (x *hopExec) topDown(frontier []VertexID, es *execStep, capped bool, avgDeg float64) ([]VertexID, hopStats, error) {
	workers, size := x.schedule(len(frontier), avgDeg)
	x.bind(es, capped)
	x.frontier = frontier
	if x.topDownBody == nil {
		x.topDownBody = x.topDownMorsel
	}
	next, err := x.pool(len(frontier), workers, size, x.topDownBody)
	st := fanStats(len(frontier), workers, size)
	st.dedupHits = x.dedupHits.Load()
	return next, st, err
}

func (x *hopExec) topDownMorsel(w, m, lo, hi int) error {
	label, keep, seen, countHits := x.label, x.keep, x.seen, x.countStats
	budgeted := x.capped || x.maxF > 0
	own := &x.iters[w].EdgeIter
	buf := make([]VertexID, 0, hi-lo)
	var (
		err   error
		hits  int64
		polls int
	)
scan:
	for _, v := range x.frontier[lo:hi] {
		if polls++; polls%stopCheckEdges == 0 {
			if err = x.poll(); err != nil {
				break
			}
		}
		it := own
		if x.into != nil {
			x.into.neighborsInto(it, v, label)
		} else {
			it = x.r.Neighbors(v, label)
		}
		for it.advance(keep) {
			if polls++; polls%stopCheckEdges == 0 {
				if err = x.poll(); err != nil {
					break scan
				}
			}
			d := it.Dst()
			if seen != nil && seen.TestAndSet(int64(d)) {
				if countHits {
					hits++
				}
				continue
			}
			if !budgeted {
				buf = append(buf, d)
			} else if buf, err = x.emit(buf, d); err != nil {
				break scan
			}
		}
	}
	x.outs[m] = buf
	if countHits {
		x.dedupHits.Add(hits)
	}
	return err
}

// advance steps the iterator, with the destination predicate pushed into
// the scan when one is fused (nil keep is the plain path).
func (e *EdgeIter) advance(keep func(int64) bool) bool {
	if keep == nil {
		return e.Next()
	}
	return e.nextWhere(keep)
}

// filter runs a Filter step in place, preserving frontier order. A
// FilterParallel predicate may fan out over the pool; a plain Filter's
// predicate may be stateful, so it runs as one morsel on the calling
// goroutine.
func (x *hopExec) filter(frontier []VertexID, es *execStep) ([]VertexID, hopStats, error) {
	workers, size := 1, len(frontier)
	if es.filterPar {
		workers, size = x.schedule(len(frontier), 0)
	}
	x.frontier, x.pred = frontier, es.filter
	if x.filterBody == nil {
		x.filterBody = x.filterMorsel
	}
	next, err := x.pool(len(frontier), workers, size, x.filterBody)
	return next, fanStats(len(frontier), workers, size), err
}

// filterMorsel compacts its own range of the frontier in place; the
// survivors never move past their original positions, so morsels write
// disjoint ranges.
func (x *hopExec) filterMorsel(_, m, lo, hi int) error {
	kept := x.frontier[lo:lo]
	for _, v := range x.frontier[lo:hi] {
		if x.pred(x.r, v) {
			kept = append(kept, v)
		}
	}
	x.outs[m] = kept
	return nil
}
