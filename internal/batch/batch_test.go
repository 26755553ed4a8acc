package batch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// indices returns the items 0, 1, …, n-1.
func indices(n int) []int {
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	return items
}

func square(_ context.Context, i int) (int, error) { return i * i, nil }

func TestRunOrdersResults(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{0, 1, 2, 7, 64} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			out, err := Map(context.Background(), indices(50), square, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestRunEmpty(t *testing.T) {
	t.Parallel()
	out, err := Map(context.Background(), nil, square, Options{Workers: 4})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
}

func TestRunAggregatesErrorsInOrder(t *testing.T) {
	t.Parallel()
	out, err := Map(context.Background(), indices(10), func(_ context.Context, i int) (int, error) {
		if i%3 == 0 {
			return 0, fmt.Errorf("boom %d", i)
		}
		return i, nil
	}, Options{Workers: 4})
	if err == nil {
		t.Fatal("want aggregated error")
	}
	// Index-ordered aggregation keeps the message deterministic across
	// worker counts and schedules.
	msg := err.Error()
	last := -1
	for _, frag := range []string{"job 0", "job 3", "job 6", "job 9"} {
		at := strings.Index(msg, frag)
		if at < 0 {
			t.Fatalf("error %q missing %q", msg, frag)
		}
		if at < last {
			t.Fatalf("error fragments out of order in %q", msg)
		}
		last = at
	}
	// Successful slots survive a partial failure.
	if out[1] != 1 || out[4] != 4 {
		t.Fatalf("successful results clobbered: %v", out)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	t.Parallel()
	out, err := Map(context.Background(), indices(2), func(_ context.Context, i int) (int, error) {
		if i == 1 {
			panic("kaboom")
		}
		return 1, nil
	}, Options{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "job 1 panicked: kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	if out[0] != 1 {
		t.Fatal("healthy job result lost")
	}
}

// A pool of one starts no goroutine: it runs its jobs in index order on
// the caller's, still recovering panics and reporting progress. Not
// parallel, so no other test's goroutines come or go while it counts.
func TestRunOneWorkerRunsOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	var order []int
	progress := 0
	out, err := Map(context.Background(), []int{0, 1, 2, 3}, func(_ context.Context, i int) (int, error) {
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("job %d saw %d goroutines, %d before the batch", i, n, before)
		}
		order = append(order, i)
		if i == 2 {
			panic("kaboom")
		}
		return i * i, nil
	}, Options{Workers: 1, OnProgress: func(done, _ int) { progress = done }})
	if err == nil || !strings.Contains(err.Error(), "job 2 panicked: kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) || !reflect.DeepEqual(out, []int{0, 1, 0, 9}) {
		t.Fatalf("ran %v, returned %v; want jobs in order and results 0 1 0 9", order, out)
	}
	if progress != 4 {
		t.Fatalf("progress reached %d of 4", progress)
	}
}

func TestRunHonoursCancelledContext(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := Map(ctx, indices(8), func(context.Context, int) (int, error) { ran.Add(1); return 0, nil }, Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran under a cancelled context", ran.Load())
	}
}

func TestRunProgress(t *testing.T) {
	t.Parallel()
	// Callbacks are serialised and monotone, so plain ints suffice.
	var calls, lastDone, sawTotal int
	_, err := Map(context.Background(), indices(20), square, Options{
		Workers: 4,
		OnProgress: func(done, total int) {
			if done != lastDone+1 {
				t.Errorf("progress went %d -> %d, want monotone +1", lastDone, done)
			}
			calls++
			lastDone, sawTotal = done, total
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 20 || lastDone != 20 || sawTotal != 20 {
		t.Fatalf("progress calls=%d last=%d/%d, want 20 ending 20/20", calls, lastDone, sawTotal)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	t.Parallel()
	items := []string{"a", "bb", "ccc", "dddd"}
	out, err := Map(context.Background(), items,
		func(_ context.Context, s string) (int, error) { return len(s), nil },
		Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []int{1, 2, 3, 4}) {
		t.Fatalf("Map out = %v", out)
	}
}

func TestSeedDeterministicAndDecorrelated(t *testing.T) {
	t.Parallel()
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := Seed(42, i)
		if s2 := Seed(42, i); s2 != s {
			t.Fatalf("Seed(42,%d) unstable: %d vs %d", i, s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("Seed collision: indices %d and %d both map to %d", prev, i, s)
		}
		seen[s] = i
	}
	if Seed(1, 0) == Seed(2, 0) {
		t.Fatal("base seed ignored")
	}
}
