package core

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// buildSocial builds a small two-label graph:
//
//	friends (L0): 0-1, 0-2, 1-3, 2-3, 2-4, 3-5  (both directions)
//	likes   (L1): 5 -> 4
func buildSocial(t testing.TB) *Graph {
	t.Helper()
	g := openMem(t)
	pairs := [][2]VertexID{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 5}}
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < 6; i++ {
			tx.AddVertex(nil)
		}
		for _, p := range pairs {
			tx.InsertEdge(p[0], 0, p[1], nil)
			tx.InsertEdge(p[1], 0, p[0], nil)
		}
		tx.InsertEdge(5, 1, 4, nil)
	})
	return g
}

// naiveTraverse is the reference every executor variant is checked
// against, sharing no code with the executor: the traversal's steps in
// written order as explicit nested Reader.Neighbors loops, a map for
// Dedup (per hop), and Limit as a prefix of the final frontier.
// MaxFrontier is not modelled.
func naiveTraverse(r Reader, t *Traversal) []VertexID {
	frontier := append([]VertexID(nil), t.src...)
	for _, st := range t.steps {
		var next []VertexID
		switch st.kind {
		case stepOut:
			seen := map[VertexID]bool{}
			for _, v := range frontier {
				it := r.Neighbors(v, st.label)
				for it.Next() {
					d := it.Dst()
					if t.dedup {
						if seen[d] {
							continue
						}
						seen[d] = true
					}
					next = append(next, d)
				}
			}
		case stepFilter:
			for _, v := range frontier {
				if st.filter(r, v) {
					next = append(next, v)
				}
			}
		case stepFilterDst:
			for _, v := range frontier {
				if st.keep(v) {
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	if t.limit > 0 && len(frontier) > t.limit {
		frontier = frontier[:t.limit]
	}
	return frontier
}

func sameIDs(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTraversalTwoHopMatchesHandRolled is the acceptance check: the
// builder's two-hop result is identical (content and order) to the
// hand-rolled nested-loop scan, on both Reader implementations.
func TestTraversalTwoHopMatchesHandRolled(t *testing.T) {
	g := buildSocial(t)
	ctx := context.Background()

	tx, _ := g.BeginRead()
	defer tx.Commit()
	snap, _ := g.Snapshot()
	defer snap.Release()

	for name, r := range map[string]Reader{"tx": tx, "snapshot": snap} {
		want := naiveTraverse(r, Traverse(0).Out(0).Out(0))
		got, err := Traverse(0).Out(0).Out(0).Run(ctx, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameIDs(got, want) {
			t.Errorf("%s: builder %v != hand-rolled %v", name, got, want)
		}
		if len(got) == 0 {
			t.Errorf("%s: two-hop from a connected vertex returned nothing", name)
		}
	}
}

func TestTraversalFilter(t *testing.T) {
	g := buildSocial(t)
	ctx := context.Background()
	tx, _ := g.BeginRead()
	defer tx.Commit()

	// Friends-of-friends of 0 that are not 0 and not already friends of 0.
	direct := map[VertexID]bool{}
	it := tx.Neighbors(0, 0)
	for it.Next() {
		direct[it.Dst()] = true
	}
	got, err := Traverse(0).Out(0).Out(0).
		Filter(func(r Reader, v VertexID) bool { return v != 0 && !direct[v] }).
		Dedup().
		Run(ctx, tx)
	if err != nil {
		t.Fatal(err)
	}
	// 0's friends: 1,2. Their friends: 0,3 / 0,3,4. Excluding 0,1,2: {3,4}.
	want := map[VertexID]bool{3: true, 4: true}
	if len(got) != len(want) {
		t.Fatalf("recommendations = %v, want {3,4}", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("recommendations = %v, want {3,4}", got)
		}
	}

	// Filter receives the executing reader: keep only vertices that have a
	// likes edge (L1) — uses r inside the predicate.
	got, err = Traverse(0).Out(0).Out(0).Out(0).
		Filter(func(r Reader, v VertexID) bool { return r.Degree(v, 1) > 0 }).
		Dedup().
		Run(ctx, tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("reader-aware filter = %v, want [5]", got)
	}
}

func TestTraversalLimit(t *testing.T) {
	g := buildSocial(t)
	ctx := context.Background()
	tx, _ := g.BeginRead()
	defer tx.Commit()

	full, err := Traverse(0).Out(0).Out(0).Run(ctx, tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 3 {
		t.Fatalf("fixture too small: %v", full)
	}
	limited, err := Traverse(0).Out(0).Out(0).Limit(2).Run(ctx, tx)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(limited, full[:2]) {
		t.Fatalf("Limit(2) = %v, want prefix %v of %v", limited, full[:2], full)
	}

	// Limit after a trailing filter still caps the result.
	f, err := Traverse(0).Out(0).Out(0).
		Filter(func(Reader, VertexID) bool { return true }).
		Limit(1).Run(ctx, tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 1 {
		t.Fatalf("Limit(1) after filter = %v", f)
	}
}

func TestTraversalDedupAndMultiplicity(t *testing.T) {
	g := buildSocial(t)
	ctx := context.Background()
	tx, _ := g.BeginRead()
	defer tx.Commit()

	plain, _ := Traverse(0).Out(0).Out(0).Run(ctx, tx)
	deduped, _ := Traverse(0).Out(0).Out(0).Dedup().Run(ctx, tx)
	if len(deduped) >= len(plain) {
		t.Fatalf("dedup did not shrink: plain %v, deduped %v", plain, deduped)
	}
	seen := map[VertexID]int{}
	for _, v := range deduped {
		seen[v]++
		if seen[v] > 1 {
			t.Fatalf("dedup emitted %d twice: %v", v, deduped)
		}
	}
}

func TestTraversalOwnWritesInTx(t *testing.T) {
	// Run inside a write transaction: the traversal sees the transaction's
	// uncommitted edges, because it reads through the same Reader.
	g := buildSocial(t)
	ctx := context.Background()
	tx, err := g.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if err := tx.InsertEdge(4, 0, 5, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Traverse(2).Out(0).Out(0).Dedup().Run(ctx, tx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range got {
		if v == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("traversal in a write tx missed its own 4->5 edge: %v", got)
	}
}

func TestTraversalCancellation(t *testing.T) {
	g := buildSocial(t)
	tx, _ := g.BeginRead()
	defer tx.Commit()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Traverse(0).Out(0).Run(ctx, tx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled traversal err = %v", err)
	}
}

// TestTraversalCancelInsideAdjacencyList: a hop over one huge adjacency
// list must notice cancellation mid-list, on the one-worker path of a
// Snapshot and on a Tx alike — here ctx is cancelled by the first call of
// the fused FilterDst predicate, before the scan has produced anything.
func TestTraversalCancelInsideAdjacencyList(t *testing.T) {
	const hubEdges = 20_000
	g := openMem(t)
	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i <= hubEdges; i++ {
			tx.AddVertex(nil)
		}
	})
	for lo := 1; lo <= hubEdges; lo += 4096 {
		mustCommit(t, g, func(tx *Tx) {
			for d := lo; d < min(lo+4096, hubEdges+1); d++ {
				tx.InsertEdge(0, 0, VertexID(d), nil)
			}
		})
	}
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	tx, err := g.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()

	for name, r := range map[string]Reader{"snapshot": snap, "tx": tx} {
		ctx, cancel := context.WithCancel(context.Background())
		res, err := Traverse(0).Out(0).
			FilterDst(func(VertexID) bool { cancel(); return true }).
			Parallel(1).Run(ctx, r)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled mid-list traversal returned %d results, err = %v", name, len(res), err)
		}
	}
}

func TestTraversalAsOfTimeTravel(t *testing.T) {
	g, err := Open(Options{HistoryRetention: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()

	mustCommit(t, g, func(tx *Tx) {
		for i := 0; i < 4; i++ {
			tx.AddVertex(nil)
		}
		tx.InsertEdge(0, 0, 1, nil)
		tx.InsertEdge(1, 0, 2, nil)
	})
	before := g.ReadEpoch()
	mustCommit(t, g, func(tx *Tx) {
		tx.InsertEdge(1, 0, 3, nil)
		if err := tx.DeleteEdge(1, 0, 2); err != nil {
			t.Fatal(err)
		}
	})

	// Two-hop from 0 as of "before": {2}. Today: {3}.
	old, err := Traverse(0).Out(0).Out(0).AsOf(before).RunGraph(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 1 || old[0] != 2 {
		t.Fatalf("AsOf(before) = %v, want [2]", old)
	}
	now, err := Traverse(0).Out(0).Out(0).RunGraph(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(now) != 1 || now[0] != 3 {
		t.Fatalf("latest = %v, want [3]", now)
	}

	// Run against a matching reader is allowed; a mismatched one refused.
	snap, err := g.SnapshotAt(before)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	viaRun, err := Traverse(0).Out(0).Out(0).AsOf(before).Run(ctx, snap)
	if err != nil || !sameIDs(viaRun, old) {
		t.Fatalf("Run on matching snapshot = %v, %v", viaRun, err)
	}
	tx, _ := g.BeginRead()
	defer tx.Commit()
	if _, err := Traverse(0).Out(0).AsOf(before).Run(ctx, tx); !errors.Is(err, ErrAsOfMismatch) {
		t.Fatalf("Run on mismatched reader err = %v, want ErrAsOfMismatch", err)
	}
}

func TestTraversalAsOfHistoryGone(t *testing.T) {
	g, err := Open(Options{HistoryRetention: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()
	mustCommit(t, g, func(tx *Tx) { tx.AddVertex(nil) })
	early := g.ReadEpoch()
	for i := 0; i < 5; i++ {
		mustCommit(t, g, func(tx *Tx) { tx.InsertEdge(0, 0, 0, nil) })
	}
	if _, err := Traverse(0).Out(0).AsOf(early).RunGraph(ctx, g); !errors.Is(err, ErrHistoryGone) {
		t.Fatalf("AsOf outside retention err = %v, want ErrHistoryGone", err)
	}
}

func TestTraversalMaxFrontier(t *testing.T) {
	g := buildSocial(t)
	ctx := context.Background()
	tx, _ := g.BeginRead()
	defer tx.Commit()

	// Unbounded two-hop yields several results; a 2-wide frontier bound
	// must refuse the same walk.
	full, err := Traverse(0).Out(0).Out(0).Run(ctx, tx)
	if err != nil || len(full) <= 2 {
		t.Fatalf("fixture: %v, %v", full, err)
	}
	if _, err := Traverse(0).Out(0).Out(0).MaxFrontier(2).Run(ctx, tx); !errors.Is(err, ErrFrontierTooLarge) {
		t.Fatalf("MaxFrontier(2) err = %v, want ErrFrontierTooLarge", err)
	}
	// A bound the walk fits under changes nothing.
	got, err := Traverse(0).Out(0).Out(0).MaxFrontier(100).Run(ctx, tx)
	if err != nil || !sameIDs(got, full) {
		t.Fatalf("MaxFrontier(100) = %v, %v", got, err)
	}
}

// TestTraversalConcurrentUnderChurn runs the same traversal from many
// goroutines over one shared Snapshot (Snapshots are concurrency-safe
// Readers) while writers churn the graph: every run must return the
// pinned epoch's answer, bit-for-bit.
func TestTraversalConcurrentUnderChurn(t *testing.T) {
	g := buildSocial(t)
	ctx := context.Background()
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	tr := Traverse(0).Out(0).Out(0)
	want, err := tr.Run(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // churn
		defer wg.Done()
		for i := VertexID(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mustCommit(t, g, func(tx *Tx) {
				tx.InsertEdge(i%6, 0, (i+1)%6, nil)
			})
		}
	}()
	var readers sync.WaitGroup
	for w := 0; w < 8; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				got, err := tr.Run(ctx, snap)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameIDs(got, want) {
					t.Errorf("traversal drifted under churn: %v != %v", got, want)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

func TestTraversalEdgeCases(t *testing.T) {
	g := buildSocial(t)
	ctx := context.Background()
	tx, _ := g.BeginRead()
	defer tx.Commit()

	// No steps: the traversal is its sources.
	got, err := Traverse(3, 1).Run(ctx, tx)
	if err != nil || !sameIDs(got, []VertexID{3, 1}) {
		t.Fatalf("no-step traversal = %v, %v", got, err)
	}
	// No sources: empty.
	if got, err := Traverse().Out(0).Run(ctx, tx); err != nil || len(got) != 0 {
		t.Fatalf("no-source traversal = %v, %v", got, err)
	}
	// Hop over an absent label: empty.
	if got, err := Traverse(0).Out(99).Run(ctx, tx); err != nil || len(got) != 0 {
		t.Fatalf("absent-label traversal = %v, %v", got, err)
	}
	// A built traversal is reusable.
	tr := Traverse(0).Out(0)
	a, _ := tr.Run(ctx, tx)
	b, _ := tr.Run(ctx, tx)
	if !sameIDs(a, b) {
		t.Fatalf("re-run differs: %v vs %v", a, b)
	}
}
