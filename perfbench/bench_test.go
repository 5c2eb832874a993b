package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"livegraph/internal/analytics"
	"livegraph/internal/core"
	"livegraph/internal/disk"
	"livegraph/internal/workload/kron"
	"livegraph/internal/workload/linkbench"
)

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks that the last line names every metric of BENCHMARK.json with its
// unit, and that the run was correct.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(workloadNames(), ","); got != strings.Join(names, ",") {
		t.Fatalf("workloads %s, BENCHMARK.json lists %s", got, strings.Join(names, ","))
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			t.Run(w.name+map[bool]string{false: "/e2e", true: "/traced"}[trace], func(t *testing.T) {
				w.scale = 10
				cfg := config{workload: w, seed: 3, seconds: 1.5, trace: trace, dataDir: t.TempDir()}
				var out, errb bytes.Buffer
				if code := runWorkload(context.Background(), cfg, &out, &errb); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				want := bj.EndToEnd
				if trace {
					want = bj.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// smallGraph loads a 64-vertex Kronecker graph into g.
func smallGraph(t *testing.T, g *core.Graph) baseGraph {
	t.Helper()
	bg := genGraph(6, 9)
	if err := loadBase(g, bg); err != nil {
		t.Fatal(err)
	}
	return bg
}

func TestGeneratedWritesStayApart(t *testing.T) {
	bg := genGraph(8, 3)
	// ADD_LINK destinations: distinct across phases, at or above 2^scale,
	// and dense.
	seen := map[int64]bool{}
	next := bg.n
	for phase := 0; phase < 4; phase++ {
		for _, o := range genOps(linkbench.DFLT, bg, 3, phase, 500, next) {
			if o.op != linkbench.OpAddLink {
				continue
			}
			if o.dst < next || o.dst >= next+500 || seen[o.dst] {
				t.Fatalf("phase %d: ADD_LINK destination %d outside [%d,%d) or repeated", phase, o.dst, next, next+500)
			}
			seen[o.dst] = true
		}
		next += 500
	}
	// fresh-olap inserts: never an existing edge, never repeated.
	added := map[kron.Edge]bool{}
	n := 0
	for round := 0; round < 3; round++ {
		for _, e := range genInserts(bg, 3, round, 400, added) {
			if bg.has(e) {
				t.Fatalf("insert %v is a base edge", e)
			}
			n++
		}
	}
	if len(added) != n {
		t.Fatalf("%d inserts, %d distinct", n, len(added))
	}
}

func TestCommitCheckRejectsMismatch(t *testing.T) {
	for _, c := range []struct {
		acked, failed, committed int64
		ok                       bool
	}{
		{10, 0, 10, true},
		{10, 0, 9, false},
		{10, 0, 11, false},
		{10, 2, 12, true},
		{10, 2, 13, false},
	} {
		if err := commitsMatch(c.acked, c.failed, c.committed); (err == nil) != c.ok {
			t.Errorf("commitsMatch(%d, %d, %d) = %v, want ok=%t", c.acked, c.failed, c.committed, err, c.ok)
		}
	}
}

func TestDurableCheckRejectsMissingLink(t *testing.T) {
	dir := t.TempDir()
	g, err := core.Open(core.Options{Dir: dir, Backend: disk.NewReal()})
	if err != nil {
		t.Fatal(err)
	}
	bg := smallGraph(t, g)
	added := kron.Edge{Src: 1, Dst: bg.n + 5}
	epoch, err := insertEdge(g, added, basePayload(added.Dst))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := checkDurable(dir, []kron.Edge{added}, epoch); err != nil {
		t.Fatalf("correct state rejected: %v", err)
	}
	if _, err := checkDurable(dir, []kron.Edge{added, {Src: 2, Dst: bg.n + 6}}, epoch); err == nil {
		t.Error("a link that was never written passed the check")
	}
	if _, err := checkDurable(dir, []kron.Edge{added}, epoch+1); err == nil {
		t.Error("an acknowledged epoch past the recovered one passed the check")
	}
	wrong := kron.Edge{Src: added.Src, Dst: added.Dst}
	g, err = core.Open(core.Options{Dir: dir, Backend: disk.NewReal()})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	tx, _ := g.Begin()
	tx.AddEdge(core.VertexID(wrong.Src), lbLabel, core.VertexID(wrong.Dst), basePayload(0))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := durableMatch(g, []kron.Edge{added}, epoch); err == nil {
		t.Error("a link with the wrong payload passed the check")
	}
}

func TestTraversalAndBFSChecksRejectWrongAnswers(t *testing.T) {
	g, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	bg := smallGraph(t, g)
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	src := core.VertexID(bg.edges[0].Src)
	got, err := core.Traverse(src).Out(lbLabel).Out(lbLabel).Dedup().Run(context.Background(), snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("test graph too sparse: empty two-hop result")
	}
	if err := checkTwoHop(snap, src, got); err != nil {
		t.Fatalf("correct traversal rejected: %v", err)
	}
	if err := checkTwoHop(snap, src, got[1:]); err == nil {
		t.Error("a traversal missing a vertex passed the check")
	}
	if err := checkTwoHop(snap, src, append(append([]core.VertexID(nil), got...), got[0])); err == nil {
		t.Error("a traversal with a duplicate passed the check")
	}

	view := boundedView{analytics.SnapshotView{Snap: snap, Label: lbLabel}, snap.NumVertices()}
	dist := analytics.BFSDir(view, int64(src), 0, core.DirectionAuto)
	if err := checkBFS(snap, view.n, src, dist); err != nil {
		t.Fatalf("correct BFS rejected: %v", err)
	}
	for v := range dist {
		if dist[v] > 0 {
			dist[v]++
			break
		}
	}
	if err := checkBFS(snap, view.n, src, dist); err == nil {
		t.Error("a BFS with a wrong distance passed the check")
	}
}

func TestReadBackRejectsStaleRead(t *testing.T) {
	g, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	smallGraph(t, g)
	e := kron.Edge{Src: 3, Dst: 7}
	if _, err := insertEdge(g, e, basePayload(99)); err != nil {
		t.Fatal(err)
	}
	if err := readBack(g, e, basePayload(99)); err != nil {
		t.Fatalf("fresh insert rejected: %v", err)
	}
	if err := readBack(g, kron.Edge{Src: 3, Dst: 8}, basePayload(99)); err == nil {
		t.Error("an insert that is not the newest link passed the check")
	}
	if err := readBack(g, e, basePayload(98)); err == nil {
		t.Error("a link with the wrong payload passed the check")
	}
}
