package core

// Bottom-up (direction-optimizing) frontier expansion, after Beamer's
// direction-optimizing BFS: when the frontier is dense against a label's
// destination set, scanning every frontier vertex's adjacency list forward
// mostly rediscovers vertices already found — and, parallel, hammers the
// shared dedup bitset. The bottom-up pass inverts the loop: walk the
// *candidate* destinations (the label's hinted-destination registry —
// every dst that ever had an edge, wherever in the ID space it lives),
// probe each candidate's hinted sources against a frozen frontier bitset
// with lock-free Peeks, and confirm the first hit through the ordinary
// forward read path (Reader.GetEdge — full MVCC visibility at the
// traversal's epoch, own-writes semantics inside a Tx, AsOf epochs on a
// pinned snapshot). A candidate stops at its first confirmed hit, so each
// destination is emitted at most once — which is why bottom-up requires
// Dedup — and emission follows the registry's (stable, append-only)
// order, reassembled in morsel order when the pass fans out. The only
// shared mutable state between workers is the pair of budget atomics;
// there is no dedup-set contention at all.

import "livegraph/internal/sparsebit"

// Bottom-up morsels range over the candidate registry; every entry is a
// real hinted destination (at least one Peek, often a confirming read),
// so morsels are coarser than frontier morsels but not by orders of
// magnitude.
const (
	bottomUpMorselMin = 1 << 8
	bottomUpMorselMax = 1 << 14
)

const (
	// bottomUpAlpha and bottomUpBeta are the direction switch's density
	// factors (see chooseBottomUp).
	bottomUpAlpha = 8.0
	bottomUpBeta  = 3.0
	// bottomUpMinFrontier keeps trivially narrow frontiers top-down: below
	// it the frontier bitset build alone outweighs any probe savings.
	bottomUpMinFrontier = 16
)

func bottomUpMorselSize(n, workers int) int {
	size := n / (4 * workers)
	if size < bottomUpMorselMin {
		size = bottomUpMorselMin
	}
	if size > bottomUpMorselMax {
		size = bottomUpMorselMax
	}
	return size
}

// chooseBottomUp decides one hop's expansion direction. A forced
// DirectionBottomUp without the prerequisites is an error; DirectionAuto
// applies the Beamer-style density test against the label's statistics:
// go bottom-up when the frontier's estimated outgoing edges exceed
// bottomUpAlpha × the hinted candidate count (probing candidates beats
// scanning the frontier) and make up more than 1/bottomUpBeta of the
// label's total edges (the frontier genuinely covers the label, so
// candidate probes hit).
func (t *Traversal) chooseBottomUp(g *Graph, frontierLen int, ls LabelStats) (bool, error) {
	canBU := t.dedup && g != nil
	switch t.direction {
	case DirectionTopDown:
		return false, nil
	case DirectionBottomUp:
		if !canBU {
			return false, ErrBottomUpUnsupported
		}
		return true, nil
	}
	if !canBU || frontierLen < bottomUpMinFrontier {
		return false, nil
	}
	if ls.Targets <= 0 || ls.Lists <= 0 {
		return false, nil
	}
	avg := ls.AvgDegree
	if avg < 1 {
		avg = 1
	}
	mf := float64(frontierLen) * avg
	return mf > bottomUpAlpha*float64(ls.Targets) && bottomUpBeta*mf > float64(ls.Edges), nil
}

// bottomUp expands one stepOut bottom-up, probing the label's candidate
// destinations against the frontier. The frontier bitset is built here
// single-threaded and only Peek-ed by the workers — the
// frozen-set contract sparsebit.Peek requires.
func (x *hopExec) bottomUp(frontier []VertexID, es *execStep, capped bool) ([]VertexID, hopStats, error) {
	rv := x.g.rev.Get(int64(es.label))
	if rv == nil {
		return nil, hopStats{}, nil // label never had an edge: no candidates
	}
	if x.fbits == nil {
		// One stripe suffices: the build is single-threaded.
		x.fbits = sparsebit.New(1)
	}
	x.fbits.Reset()
	for _, v := range frontier {
		x.fbits.TestAndSet(int64(v))
	}
	cands := rv.candidates()
	workers, size := 1, len(cands)
	if x.par > 1 && len(cands) >= 2*bottomUpMorselMin {
		workers, size = x.par, bottomUpMorselSize(len(cands), x.par)
	}
	x.bind(es, capped)
	x.cands, x.rv = cands, rv
	if x.bottomUpBody == nil {
		x.bottomUpBody = x.bottomUpMorsel
	}
	next, err := x.pool(len(cands), workers, size, x.bottomUpBody)
	return next, hopStats{candidates: x.candidates.Load(), probes: x.probes.Load()}, err
}

func (x *hopExec) bottomUpMorsel(_, m, lo, hi int) error {
	keep := x.keep
	var (
		buf        []VertexID
		err        error
		nc, probes int64
	)
	for i, cv := range x.cands[lo:hi] {
		if i > 0 && i%stopCheckEdges == 0 {
			if err = x.poll(); err != nil {
				break
			}
		}
		if keep != nil && !keep(int64(cv)) {
			continue
		}
		hit, p := probeCandidate(x.r, x.rv, cv, x.label, x.fbits)
		nc++
		probes += p
		if !hit {
			continue
		}
		if buf, err = x.emit(buf, cv); err != nil {
			break
		}
	}
	x.outs[m] = buf
	if x.countStats {
		x.candidates.Add(nc)
		x.probes.Add(probes)
	}
	return err
}

// probeCandidate reports whether candidate c has a confirmed in-edge from
// the frontier, and how many hint probes it spent.
func probeCandidate(r Reader, rv *revLabel, c VertexID, label Label, fbits *sparsebit.Set) (hit bool, probes int64) {
	ra := rv.hints(c)
	if ra == nil {
		return false, 0
	}
	for _, src := range ra.snapshot() {
		probes++
		if !fbits.Peek(int64(src)) {
			continue
		}
		if _, err := r.GetEdge(src, label, c); err != nil {
			continue
		}
		return true, probes
	}
	return false, probes
}
