package morsel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCursorCoversExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, size int }{
		{0, 64}, {1, 64}, {63, 64}, {64, 64}, {65, 64}, {1000, 64}, {1000, 1}, {7, 3},
	} {
		c := NewCursor(tc.n, tc.size)
		covered := make([]bool, tc.n)
		morsels := 0
		for {
			m, lo, hi, ok := c.Next()
			if !ok {
				break
			}
			morsels++
			if hi <= lo || hi > tc.n {
				t.Fatalf("n=%d size=%d: bad range [%d,%d)", tc.n, tc.size, lo, hi)
			}
			_ = m
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Fatalf("n=%d size=%d: item %d dealt twice", tc.n, tc.size, i)
				}
				covered[i] = true
			}
		}
		if morsels != c.Count() {
			t.Fatalf("n=%d size=%d: dealt %d morsels, Count()=%d", tc.n, tc.size, morsels, c.Count())
		}
		for i, ok := range covered {
			if !ok {
				t.Fatalf("n=%d size=%d: item %d never dealt", tc.n, tc.size, i)
			}
		}
	}
}

func TestCursorConcurrent(t *testing.T) {
	const n = 100_000
	c := NewCursor(n, 17)
	var total, claims [8]int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				_, lo, hi, ok := c.Next()
				if !ok {
					return
				}
				total[w] += int64(hi - lo)
				claims[w]++
			}
		}(w)
	}
	wg.Wait()
	var sum int64
	for _, s := range total {
		sum += s
	}
	if sum != n {
		t.Fatalf("workers covered %d items, want %d", sum, n)
	}
}

func TestWorkersClamp(t *testing.T) {
	c := NewCursor(100, 64) // 2 morsels
	if got := c.Workers(8); got != 2 {
		t.Fatalf("Workers(8) over 2 morsels = %d", got)
	}
	if got := c.Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
}

func TestRunCoversExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, tc := range []struct{ n, size int }{{0, 16}, {1, 16}, {100, 16}, {1000, 7}, {5000, 64}} {
			hits := make([]atomic.Int32, tc.n)
			err := Run(context.Background(), tc.n, tc.size, workers, func(w, m, lo, hi int) error {
				if w < 0 || w >= workers {
					t.Errorf("worker index %d outside [0,%d)", w, workers)
				}
				if lo != m*tc.size || hi > tc.n || hi <= lo {
					t.Errorf("morsel %d has range [%d,%d)", m, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, tc.n, err)
			}
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d size=%d: item %d covered %d times", workers, tc.n, tc.size, i, c)
				}
			}
		}
	}
}

// TestRunOneWorkerIsSequential: with one worker every morsel runs on the
// calling goroutine, in index order.
func TestRunOneWorkerIsSequential(t *testing.T) {
	caller := goid()
	var order []int
	err := Run(context.Background(), 100, 8, 1, func(w, m, lo, hi int) error {
		if id := goid(); id != caller {
			t.Errorf("morsel %d ran on goroutine %s, caller is %s", m, id, caller)
		}
		order = append(order, m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 13 {
		t.Fatalf("ran %d morsels, want 13", len(order))
	}
	for i, m := range order {
		if m != i {
			t.Fatalf("morsel order %v, want ascending", order)
		}
	}
}

// goid parses the current goroutine's ID out of its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestRunFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		var after atomic.Int64
		var failed atomic.Bool
		err := Run(context.Background(), 10_000, 1, workers, func(w, m, lo, hi int) error {
			if failed.Load() {
				after.Add(1)
			}
			if m == 10 {
				failed.Store(true)
				return boom
			}
			if m > 10 && m%7 == 0 {
				return fmt.Errorf("later error at %d", m)
			}
			return nil
		})
		if workers == 1 && (err != boom || after.Load() != 0) {
			t.Fatalf("workers=1: err = %v after %d further morsels, want the first error and none", err, after.Load())
		}
		if err == nil {
			t.Fatalf("workers=%d: error swallowed", workers)
		}
		// Workers race the stop flag for a few morsels at most; the
		// bulk of the space is never claimed.
		if n := after.Load(); n > 1000 {
			t.Fatalf("workers=%d: %d morsels ran after the failure", workers, n)
		}
	}
}

func TestRunStopEndsWithoutError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := Run(context.Background(), 100_000, 1, workers, func(w, m, lo, hi int) error {
			ran.Add(1)
			if m == 3 {
				return Stop
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: Stop surfaced as %v", workers, err)
		}
		if n := ran.Load(); n > 1000 || (workers == 1 && n != 4) {
			t.Fatalf("workers=%d: %d morsels ran, Stop did not halt the pool", workers, n)
		}
	}
}

func TestRunCancelledContext(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := false
		err := Run(ctx, 100, 10, workers, func(w, m, lo, hi int) error {
			ran = true
			return nil
		})
		if !errors.Is(err, context.Canceled) || ran {
			t.Fatalf("workers=%d: err = %v, body ran = %v; want context.Canceled before any morsel", workers, err, ran)
		}

		// Cancelled mid-run: the pool stops claiming and reports ctx.Err().
		ctx, cancel = context.WithCancel(context.Background())
		var claimed atomic.Int64
		err = Run(ctx, 100_000, 1, workers, func(w, m, lo, hi int) error {
			if claimed.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: mid-run cancel err = %v", workers, err)
		}
		if n := claimed.Load(); n > 500 || (workers == 1 && n != 5) {
			t.Fatalf("workers=%d: %d morsels claimed after cancel", workers, n)
		}
	}
}
