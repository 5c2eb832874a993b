package core

// The composable traversal API: multi-hop reads — friends-of-friends,
// fraud-ring walks, temporal audits — expressed as a builder that compiles
// to nested purely sequential TEL scans. A traversal never materialises
// more state than the current frontier slice (plus, with Dedup, one seen
// set per hop), so the paper's central access pattern — stream over a
// contiguous log, decide visibility from data already in cache — is
// preserved hop by hop. Because execution takes any Reader, one traversal
// runs unchanged inside a transaction (*Tx, seeing its own writes), on a
// pinned analytics snapshot (*Snapshot), or against a past epoch via AsOf.
//
// Execution is *adaptive*, steered by the per-label degree statistics the
// engine maintains at apply time (stats.go):
//
//   - hops fan out over the morsel executor's workers (parallel.go) when
//     the Reader is safe for concurrent use and the frontier's estimated
//     work repays worker dispatch, with morsel widths sized so each
//     morsel scans about 512 edges;
//   - a deduplicating hop switches to bottom-up (direction-optimizing)
//     expansion when the frontier is dense against the label's candidate
//     set (bottomup.go) — probing hinted destinations against a frozen
//     frontier bitset instead of scanning every frontier TEL forward;
//   - pure destination predicates (FilterDst) are pushed down into the
//     TEL scan loop itself, so rejected edges never surface.
//
// Every adaptive choice changes only the execution schedule, never the
// result semantics, and RunExplain reports what was chosen per hop.

import (
	"context"
	"errors"
	"runtime"
	"time"

	"livegraph/internal/obs"
)

// ErrAsOfMismatch is returned by Traversal.Run when AsOf was set but the
// supplied Reader observes a different epoch; run the traversal with
// RunGraph, or pin a snapshot at the requested epoch first.
var ErrAsOfMismatch = errors.New("livegraph: traversal AsOf epoch differs from the reader's epoch")

// ErrFrontierTooLarge is returned by a traversal whose intermediate
// frontier outgrew the MaxFrontier bound — a safety valve for servers
// running untrusted multi-hop queries, where a few hops on a dense graph
// can otherwise expand multiplicatively without bound.
var ErrFrontierTooLarge = errors.New("livegraph: traversal frontier exceeded MaxFrontier; narrow the walk with Dedup, Filter or Limit")

// ErrBottomUpUnsupported is returned when Direction(DirectionBottomUp)
// forces bottom-up expansion on a traversal that cannot run it: bottom-up
// emits each destination at most once (it requires Dedup) and probes the
// graph's reverse hint index (it requires a graph-backed Reader, a *Tx or
// a *Snapshot). Adaptive runs never hit this error —
// with the prerequisites missing they silently stay top-down.
var ErrBottomUpUnsupported = errors.New("livegraph: bottom-up expansion requires Dedup and a graph-backed Reader with the reverse index enabled")

// Direction selects the expansion strategy for a traversal's hops.
type Direction int

const (
	// DirectionAuto (the default) picks per hop: bottom-up when the
	// degree statistics say the frontier is dense against the label's
	// candidate set, top-down otherwise.
	DirectionAuto Direction = iota
	// DirectionTopDown forces classic forward expansion: scan every
	// frontier vertex's adjacency list.
	DirectionTopDown
	// DirectionBottomUp forces bottom-up expansion on every hop; see
	// ErrBottomUpUnsupported for its prerequisites.
	DirectionBottomUp
)

const (
	stepOut = iota
	stepFilter
	stepFilterDst
)

type travStep struct {
	kind      int
	label     Label                           // stepOut
	filter    func(r Reader, v VertexID) bool // stepFilter
	filterPar bool                            // stepFilter: safe for concurrent calls
	keep      func(v VertexID) bool           // stepFilterDst
}

// execStep is one step of the compiled plan: original steps with every
// FilterDst predicate in the filter run after a hop fused into that hop's
// scan (predicate pushdown). Compiled at build time (recompile), so Run
// does no planning work.
type execStep struct {
	kind      int
	si        int // index of the originating step (EXPLAIN alignment)
	label     Label
	filter    func(r Reader, v VertexID) bool
	filterPar bool
	keep      func(v VertexID) bool // fused/standalone destination predicate
	pushdown  int                   // FilterDst predicates fused into this hop
	fusedSi   []int                 // their original step indices
	reordered bool                  // a fused predicate overtook a Filter
}

// Traversal is a multi-hop traversal specification built by chaining Out,
// Filter, Dedup, Limit and AsOf onto Traverse's result:
//
//	recs, err := core.Traverse(u).
//	    Out(lFriend).Out(lFriend).     // two hops
//	    Filter(func(r core.Reader, v core.VertexID) bool { return v != u }).
//	    Dedup().Limit(10).
//	    Run(ctx, tx)
//
// Building mutates the receiver (each method returns it for chaining); a
// built Traversal is immutable during Run and may be executed many times,
// concurrently, against different Readers.
type Traversal struct {
	src         []VertexID
	steps       []travStep
	plan        []execStep
	limit       int
	maxFrontier int
	parallel    int
	morselN     int
	asOf        int64
	hasAsOf     bool
	dedup       bool
	direction   Direction
}

// Traverse starts a traversal from the given source vertices.
func Traverse(src ...VertexID) *Traversal {
	return &Traversal{src: append([]VertexID(nil), src...)}
}

// Out expands the frontier one hop along label: every visible (v,label,*)
// edge of every frontier vertex, scanned newest first.
func (t *Traversal) Out(label Label) *Traversal {
	t.steps = append(t.steps, travStep{kind: stepOut, label: label})
	t.recompile()
	return t
}

// Filter keeps only frontier vertices for which fn returns true. fn
// receives the executing Reader, so it can consult vertex payloads or edge
// properties at the traversal's snapshot. fn always runs on the caller's
// goroutine, post-expansion, in frontier order — it may be stateful; use
// FilterParallel for thread-safe predicates worth fanning out, and
// FilterDst for pure destination-ID predicates the engine can push into
// the scans.
func (t *Traversal) Filter(fn func(r Reader, v VertexID) bool) *Traversal {
	t.steps = append(t.steps, travStep{kind: stepFilter, filter: fn})
	t.recompile()
	return t
}

// FilterParallel is Filter for predicates that are safe to call from
// multiple goroutines concurrently: on wide frontiers over a concurrency-
// safe Reader the predicate runs on the morsel worker pool (frontier order
// is preserved). Semantically identical to Filter otherwise.
func (t *Traversal) FilterParallel(fn func(r Reader, v VertexID) bool) *Traversal {
	t.steps = append(t.steps, travStep{kind: stepFilter, filter: fn, filterPar: true})
	t.recompile()
	return t
}

// FilterDst keeps only frontier vertices whose *ID* satisfies fn. fn must
// be a pure function of the vertex ID — no Reader access, no side effects,
// safe from any goroutine — which is what lets the planner push it down
// into the TEL scan loop of the preceding hop (rejected edges never
// surface or count against budgets) and evaluate it before any adjacent
// Filter in the same run. The surviving result set is always identical to
// running the predicates in written order; only evaluation order and
// per-predicate side effects (which fn must not have) can differ. See
// Explain's pushdown/reordered fields for what the planner did.
func (t *Traversal) FilterDst(fn func(v VertexID) bool) *Traversal {
	t.steps = append(t.steps, travStep{kind: stepFilterDst, keep: fn})
	t.recompile()
	return t
}

// Dedup makes every hop emit each destination vertex at most once, keeping
// frontiers small on dense graphs. Without it a vertex reachable along
// multiple paths appears once per path (multiplicity semantics).
func (t *Traversal) Dedup() *Traversal {
	t.dedup = true
	return t
}

// Limit caps the number of results. When the final step is a hop, the
// underlying scans stop as soon as n results exist.
func (t *Traversal) Limit(n int) *Traversal {
	t.limit = n
	return t
}

// MaxFrontier bounds the size every intermediate frontier may reach;
// exceeding it aborts the run with ErrFrontierTooLarge. Zero means
// unbounded (the default for trusted, in-process callers). The bound
// applies to frontiers as actually materialised: destinations a pushed-
// down FilterDst rejects inside the scan never count.
func (t *Traversal) MaxFrontier(n int) *Traversal {
	t.maxFrontier = n
	return t
}

// Parallel sets the worker-pool width for frontier expansion; 0 (the
// default) defers to the graph's Options.TraversalParallelism, which
// itself defaults to GOMAXPROCS. Every hop runs on the same morsel
// executor (parallel.go), and 1 is its one-worker case: each hop is a
// single morsel spanning the whole frontier, run on the calling
// goroutine.
//
// Parallel hops require a Reader that is safe for concurrent use (one
// implementing ParallelReader, like *Snapshot); on any other Reader — a
// *Tx in particular — every hop runs on the calling goroutine regardless
// of this setting. Narrow frontiers that would not repay worker dispatch
// also run as one morsel on the calling goroutine.
//
// Without Dedup or Limit, a parallel run returns exactly the sequential
// result in the same order (morsel outputs are reassembled in frontier
// order). With Dedup the result is the same *set* but first-claimant
// ordering may differ; with Limit the result is some size-limit subset of
// the sequential result rather than its prefix.
func (t *Traversal) Parallel(n int) *Traversal {
	t.parallel = n
	return t
}

// MorselSize overrides the number of frontier vertices per work morsel
// of a hop that fans out; a frontier no wider than n runs as one morsel
// on the calling goroutine. Zero (the default) sizes morsels adaptively:
// morsel.DefaultSize at most, shrunk until the frontier splits into about
// four morsels per worker — or, when the label's degree statistics are
// available, until a morsel scans about 512 edges. Smaller morsels
// balance skewed frontiers at the cost of more claim traffic; mostly a
// tuning and testing knob.
func (t *Traversal) MorselSize(n int) *Traversal {
	t.morselN = n
	return t
}

// Direction overrides the expansion strategy for every hop of this
// traversal: DirectionAuto (the default) decides per hop from the degree
// statistics, DirectionTopDown and DirectionBottomUp force one strategy —
// the A/B lever for benchmarks and the equivalence suite.
func (t *Traversal) Direction(d Direction) *Traversal {
	t.direction = d
	return t
}

// AsOf runs the traversal against the graph as of a past epoch — temporal
// time travel over the TELs' own version history. Execute with RunGraph
// (which pins a snapshot at the epoch, subject to Options.HistoryRetention
// — see ErrHistoryGone), or with Run against a Reader already at that
// epoch.
func (t *Traversal) AsOf(epoch int64) *Traversal {
	t.asOf = epoch
	t.hasAsOf = true
	return t
}

// recompile rebuilds the execution plan from the step list; called by
// every step-appending builder method so Run never plans.
//
// The only rewrite is predicate pushdown: within each contiguous run of
// filter steps following a hop, FilterDst predicates are fused into the
// hop's scan (composed with AND) and the remaining Filter steps keep their
// original relative order after it. A fused predicate that textually
// followed a Filter in the run is thereby evaluated earlier — legal
// because FilterDst predicates are pure (see FilterDst) — and the plan
// marks the hop reordered. Filter runs not preceded by a hop (at the very
// front of the traversal) execute as written.
func (t *Traversal) recompile() {
	t.plan = t.plan[:0]
	n := len(t.steps)
	for i := 0; i < n; {
		st := &t.steps[i]
		if st.kind != stepOut {
			t.plan = append(t.plan, execStep{
				kind: st.kind, si: i,
				filter: st.filter, filterPar: st.filterPar, keep: st.keep,
			})
			i++
			continue
		}
		es := execStep{kind: stepOut, si: i, label: st.label}
		var rest []execStep
		sawFilter := false
		j := i + 1
		for ; j < n && t.steps[j].kind != stepOut; j++ {
			fs := &t.steps[j]
			if fs.kind == stepFilterDst {
				es.keep = andKeep(es.keep, fs.keep)
				es.pushdown++
				es.fusedSi = append(es.fusedSi, j)
				if sawFilter {
					es.reordered = true
				}
			} else {
				sawFilter = true
				rest = append(rest, execStep{kind: stepFilter, si: j, filter: fs.filter, filterPar: fs.filterPar})
			}
		}
		t.plan = append(t.plan, es)
		t.plan = append(t.plan, rest...)
		i = j
	}
}

// andKeep composes destination predicates left to right.
func andKeep(a, b func(VertexID) bool) func(VertexID) bool {
	if a == nil {
		return b
	}
	return func(v VertexID) bool { return a(v) && b(v) }
}

// Run executes the traversal against r and returns the final frontier.
// Cancelling ctx stops the traversal between scans.
func (t *Traversal) Run(ctx context.Context, r Reader) ([]VertexID, error) {
	if t.hasAsOf && r.ReadEpoch() != t.asOf {
		return nil, ErrAsOfMismatch
	}
	return t.run(ctx, r, nil)
}

// RunExplain is Run with plan annotation: the traversal executes normally
// and the returned Explain carries per-hop frontier sizes, expansion
// directions, dedup hits, morsel widths and budget cuts. The plan is
// returned even when execution fails (with Explain.Error set), so a budget
// abort still shows which hop blew up.
func (t *Traversal) RunExplain(ctx context.Context, r Reader) ([]VertexID, *Explain, error) {
	ex := t.Explain()
	if t.hasAsOf && r.ReadEpoch() != t.asOf {
		ex.Error = ErrAsOfMismatch.Error()
		return nil, ex, ErrAsOfMismatch
	}
	res, err := t.run(ctx, r, ex)
	ex.Executed = true
	ex.ResultCount = len(res)
	if err != nil {
		ex.Error = err.Error()
	}
	return res, ex, err
}

// RunGraph pins a snapshot of g — at the AsOf epoch if one was set, at the
// latest epoch otherwise — executes the traversal on it, and releases it.
func (t *Traversal) RunGraph(ctx context.Context, g *Graph) ([]VertexID, error) {
	var (
		s   *Snapshot
		err error
	)
	if t.hasAsOf {
		s, err = g.SnapshotAtCtx(ctx, t.asOf)
	} else {
		s, err = g.SnapshotCtx(ctx)
	}
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return t.run(ctx, s, nil)
}

// effectiveParallelism resolves the worker-pool width for this run:
// the builder's Parallel setting, falling back to the graph's
// Options.TraversalParallelism, falling back to GOMAXPROCS — and clamped
// to 1 whenever the Reader is not marked safe for concurrent use.
func (t *Traversal) effectiveParallelism(r Reader) int {
	if _, ok := r.(ParallelReader); !ok {
		return 1
	}
	p := t.parallel
	if p == 0 {
		if gs, ok := r.(graphSource); ok {
			p = gs.graph().opts.TraversalParallelism
		}
	}
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return p
}

// run executes the traversal. ex, when non-nil, receives per-hop runtime
// statistics (RunExplain); it must come from t.Explain() so its Hops line
// up with t.steps. Observability — the lg_traversal_* histograms, a
// sampled "traverse" span with per-hop children, and slow-op capture —
// engages when r is backed by a graph whose instruments are enabled.
func (t *Traversal) run(ctx context.Context, r Reader, ex *Explain) ([]VertexID, error) {
	var o *graphObs
	if gs, ok := r.(graphSource); ok {
		o = gs.graph().ob
	}
	var tracer *obs.Tracer
	if o != nil {
		tracer = o.tracer
	}
	tctx, tsp := tracer.StartSpan(ctx, "traverse")
	var t0 time.Time
	if o != nil {
		t0 = time.Now()
	}
	res, err := t.runSteps(tctx, r, ex, o)
	if o != nil {
		d := time.Since(t0)
		o.travRun.Record(d)
		if tsp == nil {
			tracer.SlowOp("traverse", d,
				obs.Int("hops", int64(len(t.steps))), obs.Int("results", int64(len(res))))
		}
	}
	if tsp != nil {
		tsp.SetAttr(obs.Int("hops", int64(len(t.steps))), obs.Int("results", int64(len(res))))
		if err != nil {
			tsp.SetAttr(obs.String("error", err.Error()))
		}
	}
	tsp.End()
	return res, err
}

func (t *Traversal) runSteps(ctx context.Context, r Reader, ex *Explain, o *graphObs) ([]VertexID, error) {
	frontier := append([]VertexID(nil), t.src...)
	lastExec := len(t.plan) - 1
	par := t.effectiveParallelism(r)
	if ex != nil {
		ex.Parallelism = par
	}
	stats, _ := r.(degreeStatsSource)
	// One executor serves the whole run: its dedup set's pages, scan
	// iterators and morsel slots are reused hop after hop, so a multi-hop
	// traversal stops allocating once it has touched its working set.
	x := t.newHopExec(ctx, r, par, ex != nil)
	for pi := range t.plan {
		es := &t.plan[pi]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var hp *HopPlan
		if ex != nil {
			hp = &ex.Hops[es.si]
			hp.FrontierIn = len(frontier)
		}
		var hopStart time.Time
		if o != nil || hp != nil {
			hopStart = time.Now()
		}
		var (
			next []VertexID
			st   hopStats
			err  error
		)
		switch es.kind {
		case stepFilter:
			next, st, err = x.filter(frontier, es)
		case stepFilterDst:
			// A standalone destination predicate (no hop to fuse into):
			// a pure in-place sweep.
			next = frontier[:0]
			for _, v := range frontier {
				if es.keep(v) {
					next = append(next, v)
				}
			}
		case stepOut:
			// Short-circuit the scans only when this hop produces the
			// final result set; earlier hops must stay complete because a
			// later filter may drop vertices.
			capped := t.limit > 0 && pi == lastExec
			var ls LabelStats
			if stats != nil {
				ls = stats.DegreeStats(es.label)
			}
			bottomUp, cerr := t.chooseBottomUp(x.g, len(frontier), ls)
			if cerr != nil {
				return nil, cerr
			}
			if t.dedup {
				x.seen.Reset() // dedup is per hop
			}
			_, hsp := obs.StartSpan(ctx, "traverse.hop")
			dir := "topdown"
			if bottomUp {
				dir = "bottomup"
				next, st, err = x.bottomUp(frontier, es, capped)
			} else {
				next, st, err = x.topDown(frontier, es, capped, ls.AvgDegree)
			}
			if hp != nil {
				hp.Direction = dir
				switch {
				case errors.Is(err, ErrFrontierTooLarge):
					hp.BudgetCut = "maxFrontier"
				case capped && err == nil && len(next) >= t.limit:
					hp.BudgetCut = "limit"
				}
			}
			if o != nil {
				o.travHop.Record(time.Since(hopStart))
			}
			if hsp != nil {
				if bottomUp {
					hsp.SetAttr(obs.String("direction", dir))
				} else if st.workers > 1 {
					hsp.SetAttr(obs.String("engine", "morsel"),
						obs.Int("workers", int64(st.workers)), obs.Int("morselSize", int64(st.morselSize)))
				}
				hsp.SetAttr(obs.Int("frontierIn", int64(len(frontier))),
					obs.Int("frontierOut", int64(len(next))), obs.Int("dedupHits", st.dedupHits))
				if err != nil {
					hsp.SetAttr(obs.String("error", err.Error()))
				}
			}
			hsp.End()
		}
		if hp != nil {
			hp.FrontierOut = len(next)
			hp.DurationNs = time.Since(hopStart).Nanoseconds()
			if st.workers > 1 {
				hp.Parallel = true
				hp.Workers, hp.MorselSize, hp.Morsels = st.workers, st.morselSize, st.morsels
			}
			hp.DedupHits, hp.Candidates, hp.HintProbes = st.dedupHits, st.candidates, st.probes
		}
		if err != nil {
			return nil, err
		}
		frontier = next
	}
	if t.limit > 0 && len(frontier) > t.limit {
		frontier = frontier[:t.limit]
	}
	return frontier, nil
}
