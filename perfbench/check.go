package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"livegraph/internal/core"
	"livegraph/internal/disk"
	"livegraph/internal/workload/kron"
)

// The correctness checks. Each returns an error describing the first
// mismatch; the workloads turn errors into report.fail, which makes the
// run print "correct": false and exit non-zero.

// checkCommits compares the write transactions the clients saw
// acknowledged with the engine's commit counter over the same interval.
// A failed write (say, a timeout) may or may not have committed, so each
// one widens the accepted range by one.
func checkCommits(rep *report, acked, failedWrites int64, committed float64) {
	if err := commitsMatch(acked, failedWrites, int64(committed)); err != nil {
		rep.fail("%v", err)
	}
}

func commitsMatch(acked, failedWrites, committed int64) error {
	if committed < acked || committed > acked+failedWrites {
		return fmt.Errorf("commit count: %d write transactions acknowledged (%d failed), engine committed %d",
			acked, failedWrites, committed)
	}
	return nil
}

// reopened describes the graph checkDurable recovered.
type reopened struct {
	epoch, vertices int64
	took            time.Duration // core.Open: checkpoint load and WAL replay
}

// checkDurable reopens the durable graph in dir from its files and checks
// that every acknowledged ADD_LINK is there with its payload, and that the
// recovered read epoch covers maxEpoch, the newest epoch acknowledged to a
// transaction that wrote to the log.
func checkDurable(dir string, links []kron.Edge, maxEpoch int64) (reopened, error) {
	t0 := time.Now()
	g, err := core.Open(core.Options{Dir: dir, Backend: disk.NewReal()})
	if err != nil {
		return reopened{}, fmt.Errorf("reopen %s: %w", dir, err)
	}
	defer g.Close()
	re := reopened{epoch: g.ReadEpoch(), vertices: g.NumVertices(), took: time.Since(t0)}
	return re, durableMatch(g, links, maxEpoch)
}

func durableMatch(g *core.Graph, links []kron.Edge, maxEpoch int64) error {
	if e := g.ReadEpoch(); e < maxEpoch {
		return fmt.Errorf("after reopen: read epoch %d is older than acknowledged epoch %d", e, maxEpoch)
	}
	tx, err := g.BeginRead()
	if err != nil {
		return err
	}
	defer tx.Commit()
	for _, l := range links {
		props, err := tx.GetEdge(core.VertexID(l.Src), lbLabel, core.VertexID(l.Dst))
		if err != nil {
			return fmt.Errorf("after reopen: acknowledged link %d->%d: %v", l.Src, l.Dst, err)
		}
		if !bytes.Equal(props, basePayload(l.Dst)) {
			return fmt.Errorf("after reopen: acknowledged link %d->%d has wrong payload", l.Src, l.Dst)
		}
	}
	return nil
}

// readBack checks, in a new read transaction, that e is src's newest link
// and carries props: an acknowledged insert is visible to the next reader.
func readBack(g *core.Graph, e kron.Edge, props []byte) error {
	tx, err := g.BeginRead()
	if err != nil {
		return err
	}
	defer tx.Commit()
	it := tx.Neighbors(core.VertexID(e.Src), lbLabel)
	if !it.Next() {
		return fmt.Errorf("read-back: %d has no links after inserting %d->%d", e.Src, e.Src, e.Dst)
	}
	if int64(it.Dst()) != e.Dst || !bytes.Equal(it.Props(), props) {
		return fmt.Errorf("read-back: newest link of %d is ->%d, want the just-inserted ->%d", e.Src, it.Dst(), e.Dst)
	}
	return nil
}

// neighbors lists src's visible out-neighbors with the plain iterator,
// independently of the traversal engine and the analytics views.
func neighbors(snap *core.Snapshot, src core.VertexID) []core.VertexID {
	var out []core.VertexID
	it := snap.Neighbors(src, lbLabel)
	for it.Next() {
		out = append(out, it.Dst())
	}
	return out
}

// refTwoHop is the naive two-hop Dedup traversal: nested Neighbors loops
// with a set per hop.
func refTwoHop(snap *core.Snapshot, src core.VertexID) []core.VertexID {
	hop1 := map[core.VertexID]bool{}
	for _, v := range neighbors(snap, src) {
		hop1[v] = true
	}
	hop2 := map[core.VertexID]bool{}
	for u := range hop1 {
		for _, v := range neighbors(snap, u) {
			hop2[v] = true
		}
	}
	out := make([]core.VertexID, 0, len(hop2))
	for v := range hop2 {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// checkTwoHop compares a two-hop Dedup traversal's result with the
// reference on the same pinned snapshot.
func checkTwoHop(snap *core.Snapshot, src core.VertexID, got []core.VertexID) error {
	want := refTwoHop(snap, src)
	g := slices.Clone(got)
	slices.Sort(g)
	if !slices.Equal(g, want) {
		return fmt.Errorf("two-hop traversal from %d at epoch %d: %d vertices, reference has %d",
			src, snap.ReadEpoch(), len(got), len(want))
	}
	return nil
}

// checkBFS compares BFS distances over vertices [0, n) with a naive
// queue-based BFS on the same pinned snapshot.
func checkBFS(snap *core.Snapshot, n int64, src core.VertexID, dist []int64) error {
	want := make([]int64, n)
	for i := range want {
		want[i] = -1
	}
	want[src] = 0
	queue := []core.VertexID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range neighbors(snap, u) {
			if int64(v) < n && want[v] < 0 {
				want[v] = want[u] + 1
				queue = append(queue, v)
			}
		}
	}
	if len(dist) != len(want) {
		return fmt.Errorf("BFS from %d: %d distances, want %d", src, len(dist), len(want))
	}
	for v := range want {
		if dist[v] != want[v] {
			return fmt.Errorf("BFS from %d at epoch %d: vertex %d at distance %d, reference %d",
				src, snap.ReadEpoch(), v, dist[v], want[v])
		}
	}
	return nil
}
