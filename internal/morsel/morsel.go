// Package morsel is the shared work-distribution core of the parallel
// execution engine: it splits an index space into fixed-size morsels that
// workers claim dynamically from an atomic cursor, in the style of
// morsel-driven parallelism (Leis et al., SIGMOD 2014).
//
// Dynamic claiming is what distinguishes the engine from a static range
// split: on power-law graphs one morsel can hide a hub vertex with a
// thousand-entry adjacency list, and under out-of-core simulation a morsel
// can stall on page faults. With static partitioning the unlucky worker
// finishes last while the rest idle; with a cursor, finished workers
// immediately claim the next morsel, so the schedule load-balances itself.
// Run is the one worker pool: the traversal engine and maintenance
// (internal/core) and the analytics kernels (internal/analytics) all
// dispatch through it, and their sequential paths are its one-worker case.
package morsel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// DefaultSize is the default morsel width in items. Small enough that a
// skewed frontier still splits into enough morsels to balance, large
// enough that the claim (one atomic add) is noise against the work.
const DefaultSize = 64

// SizeFor picks an adaptive morsel width for n items over a pool of the
// given width: at most max (clamped to DefaultSize when max <= 0), shrunk
// until the space splits into about four morsels per worker, floored at
// min. Oversplitting costs one atomic claim per extra morsel — noise —
// while undersplitting idles workers whenever per-item cost balloons, so
// the adaptive default errs toward fine.
func SizeFor(n, workers, min, max int) int {
	if max <= 0 || max > DefaultSize {
		max = DefaultSize
	}
	if min < 1 {
		min = 1
	}
	size := max
	if workers < 1 {
		workers = 1
	}
	if target := n / (4 * workers); target < size {
		size = target
	}
	if size < min {
		size = min
	}
	return size
}

// Cursor deals morsels of [0,n) to concurrent claimants.
type Cursor struct {
	n, size int64
	next    atomic.Int64
}

// NewCursor returns a cursor over n items in morsels of the given size
// (DefaultSize if size <= 0).
func NewCursor(n, size int) *Cursor {
	if size <= 0 {
		size = DefaultSize
	}
	return &Cursor{n: int64(n), size: int64(size)}
}

// Count returns how many morsels the cursor deals in total.
func (c *Cursor) Count() int {
	return int((c.n + c.size - 1) / c.size)
}

// Next claims the next unclaimed morsel, returning its index and item
// range [lo, hi); ok is false when the space is exhausted.
func (c *Cursor) Next() (m, lo, hi int, ok bool) {
	i := c.next.Add(1) - 1
	l := i * c.size
	if l >= c.n {
		return 0, 0, 0, false
	}
	h := l + c.size
	if h > c.n {
		h = c.n
	}
	return int(i), int(l), int(h), true
}

// Workers clamps a requested worker-pool width to the number of morsels a
// cursor deals — spawning more workers than morsels only burns goroutines.
func (c *Cursor) Workers(requested int) int {
	if m := c.Count(); requested > m {
		return m
	}
	return requested
}

// Stop, returned by a Run body, ends the run early without an error: no
// worker claims another morsel, and Run returns nil unless some other
// body failed.
var Stop = errors.New("morsel: stop")

// Run executes body over [0,n) in morsels of size items (DefaultSize when
// size <= 0), on up to workers workers claiming morsels from one cursor.
// body gets its worker index w in [0, workers) for per-worker state, the
// morsel index m, and the item range [lo, hi).
//
// Worker 0 is the calling goroutine, so with workers <= 1 (or a single
// morsel) Run is plain sequential code: no goroutine is started and
// morsels run in index order.
//
// The first error a body returns stops every worker from claiming another
// morsel and is Run's result. ctx is polled before every claim, and a
// cancelled ctx ends the run with ctx.Err(); a body that can run long
// polls ctx itself.
func Run(ctx context.Context, n, size, workers int, body func(w, m, lo, hi int) error) error {
	if size <= 0 {
		size = DefaultSize
	}
	if workers > 1 && n > size {
		return runPool(ctx, NewCursor(n, size), workers, body)
	}
	for m, lo := 0, 0; lo < n; m, lo = m+1, lo+size {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := body(0, m, lo, min(lo+size, n)); err != nil {
			if errors.Is(err, Stop) {
				return nil
			}
			return err
		}
	}
	return nil
}

// runPool is Run's multi-worker case: workers-1 goroutines plus the
// caller, joined before it returns.
func runPool(ctx context.Context, cur *Cursor, workers int, body func(w, m, lo, hi int) error) error {
	var (
		stop  atomic.Bool
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	work := func(w int) {
		for !stop.Load() {
			err := ctx.Err()
			if err == nil {
				m, lo, hi, ok := cur.Next()
				if !ok {
					return
				}
				err = body(w, m, lo, hi)
			}
			if err != nil {
				if !errors.Is(err, Stop) {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
				stop.Store(true)
				return
			}
		}
	}
	workers = cur.Workers(workers)
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	return first
}
