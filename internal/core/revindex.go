package core

// The reverse hint index: for every (dst, label) pair, the set of source
// vertices that have ever committed an edge src -[label]-> dst. It is what
// makes bottom-up (direction-optimizing) expansion possible on a storage
// layout that only materialises out-adjacency: instead of scanning every
// frontier vertex's TEL forward, a bottom-up pass walks *candidate*
// destinations and asks "does any frontier vertex point at me?" — a few
// bitset probes against the frontier plus one confirming forward GetEdge.
//
// Hints are a *superset* index, which keeps maintenance nearly free:
//
//   - entries are added at the WORK phase of a writing transaction (while
//     the source vertex lock is held) and never removed — an aborted
//     transaction or a later edge deletion leaves a stale hint behind;
//   - a hint therefore proves nothing by itself. Every bottom-up probe
//     that matches the frontier bitset is confirmed through the ordinary
//     forward read path (Reader.GetEdge), which applies full MVCC
//     visibility at the traversal's epoch. Stale hints cost one Bloom
//     probe; they can never surface a phantom edge.
//
// The index is keyed by label (dense, like the per-label statistics) and
// *sparse* in dst: a hash map of hinted destinations plus an append-only
// candidate registry per label. Sparseness matters twice. Destination IDs
// are arbitrary int64s — the engine permits edges to vertices that were
// never allocated (LinkBench's workload writes links against a 2^40 ID
// space), so a dense dst-indexed array would explode. And the candidate
// registry makes the bottom-up sweep O(hinted destinations), not
// O(vertex ID space): the sweep visits exactly the dsts that could have
// in-edges, wherever in the ID space they live.
//
// Why work-phase insertion is safe for readers: a snapshot that can see an
// edge observed a read epoch >= the edge's commit epoch, and the committer
// publishes that epoch (atomic store) strictly after the work phase that
// added the hint returned — so by happens-before, any edge visible to a
// snapshot already has its hint in the index. Compaction and vertex
// deletion never touch hints (stale-superset again). The index is rebuilt
// in one pass after recovery, where checkpoint-loaded TELs bypass the
// write path (see rebuildTraversalIndexes).

import (
	"sync"
)

// revSeenThreshold is the hint-list length at which a revAdj switches from
// linear-scan dedup to a map. Most (dst,label) pairs have a handful of
// in-edges; the map only materialises for genuine fan-in hubs.
const revSeenThreshold = 16

// revAdj is the hint list for one (dst, label) pair.
type revAdj struct {
	mu   sync.RWMutex
	srcs []VertexID
	seen map[VertexID]struct{} // nil until srcs outgrows revSeenThreshold
}

// add appends src if it is not already hinted.
func (ra *revAdj) add(src VertexID) {
	ra.mu.Lock()
	if ra.seen != nil {
		if _, ok := ra.seen[src]; ok {
			ra.mu.Unlock()
			return
		}
		ra.seen[src] = struct{}{}
	} else {
		for _, s := range ra.srcs {
			if s == src {
				ra.mu.Unlock()
				return
			}
		}
		if len(ra.srcs) >= revSeenThreshold {
			ra.seen = make(map[VertexID]struct{}, 2*len(ra.srcs))
			for _, s := range ra.srcs {
				ra.seen[s] = struct{}{}
			}
			ra.seen[src] = struct{}{}
		}
	}
	ra.srcs = append(ra.srcs, src)
	ra.mu.Unlock()
}

// snapshot returns the current hint slice. Appends only ever extend the
// list past the returned length (elements are never rewritten), so the
// slice header captured under the lock stays valid to read forever.
func (ra *revAdj) snapshot() []VertexID {
	ra.mu.RLock()
	s := ra.srcs
	ra.mu.RUnlock()
	return s
}

// revLabel is one label's reverse index: the dst -> hint-list map, plus
// the append-only registry of distinct hinted destinations that the
// bottom-up sweep iterates. len(dsts) is the Targets statistic.
type revLabel struct {
	index sync.Map // VertexID (dst) -> *revAdj
	mu    sync.RWMutex
	dsts  []VertexID
}

// candidates returns the current candidate registry, with the same
// append-only slice-header discipline as revAdj.snapshot.
func (rv *revLabel) candidates() []VertexID {
	rv.mu.RLock()
	s := rv.dsts
	rv.mu.RUnlock()
	return s
}

// hints returns dst's hint list, nil when dst carries none.
func (rv *revLabel) hints(dst VertexID) *revAdj {
	if v, ok := rv.index.Load(dst); ok {
		return v.(*revAdj)
	}
	return nil
}

// revFor returns label's reverse index, creating it on first use.
func (g *Graph) revFor(label Label) *revLabel {
	if rv := g.rev.Get(int64(label)); rv != nil {
		return rv
	}
	rv := &revLabel{}
	if !g.rev.CompareAndSwap(int64(label), nil, rv) {
		rv = g.rev.Get(int64(label))
	}
	return rv
}

// revAdd records the hint "src points at dst along label". Called from the
// edge write path (work phase, source vertex lock held) and from the live
// replication apply; recovery goes through rebuildTraversalIndexes
// instead.
func (g *Graph) revAdd(dst VertexID, label Label, src VertexID) {
	rv := g.revFor(label)
	if v, ok := rv.index.Load(dst); ok {
		v.(*revAdj).add(src)
		return
	}
	v, loaded := rv.index.LoadOrStore(dst, &revAdj{})
	if !loaded {
		// This call materialised the destination: register the candidate
		// exactly once and tick the per-label target counter.
		rv.mu.Lock()
		rv.dsts = append(rv.dsts, dst)
		rv.mu.Unlock()
		g.statsTarget(label)
	}
	v.(*revAdj).add(src)
}

// inHints returns the hinted in-neighbor candidates of (v, label): a
// superset of the true in-neighbors at any epoch. Callers must confirm
// each candidate through the forward read path. Nil when v has none.
func (g *Graph) inHints(v VertexID, label Label) []VertexID {
	rv := g.rev.Get(int64(label))
	if rv == nil {
		return nil
	}
	ra := rv.hints(v)
	if ra == nil {
		return nil
	}
	return ra.snapshot()
}
