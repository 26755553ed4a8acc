// Package batch is a worker-pool execution engine for embarrassingly
// parallel simulation workloads: parameter sweeps, figure regeneration,
// Monte-Carlo repetitions. It guarantees deterministic output — results
// are collected in job order and error aggregation is index-ordered — so
// a batch produces bit-identical results regardless of worker count.
//
// Jobs must be independent: they may not share mutable state, and any
// randomness must come from a per-job seed (see Seed) rather than a
// shared generator.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tunes a batch run.
type Options struct {
	// Workers is the number of concurrent goroutines; <= 0 selects
	// runtime.GOMAXPROCS(0). A pool of one runs its jobs in order on
	// the caller's goroutine.
	Workers int
	// OnProgress, when non-nil, is called after every executed job with
	// the number of completed jobs and the total; jobs skipped because
	// the context was cancelled are not counted, so a cancelled batch
	// never reports completed == total. Calls are serialised and the
	// completed count is monotone, but completions do not follow job
	// order.
	OnProgress func(completed, total int)
}

func (o Options) workers(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// join aggregates per-job errors in index order; an empty batch fails
// only on a cancelled context.
func join(ctx context.Context, errs []error) error {
	if len(errs) == 0 {
		return ctx.Err()
	}
	return errors.Join(errs...)
}

// run executes n jobs given as one indexed function on a worker pool,
// returning each job's result and error in its slot.
func run[T any](ctx context.Context, n int, job func(ctx context.Context, i int) (T, error), opts Options) ([]T, []error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	errs := make([]error, n)
	workers := opts.workers(n)

	var next atomic.Int64
	var progressMu sync.Mutex
	completed := 0
	report := func() {
		if opts.OnProgress == nil {
			return
		}
		// Increment under the same mutex that serialises the callback so
		// counts are monotone and the completed == total call is last.
		progressMu.Lock()
		completed++
		opts.OnProgress(completed, n)
		progressMu.Unlock()
	}

	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				// Skipped, not completed: no progress report — a
				// cancelled batch must not claim to reach total.
				errs[i] = fmt.Errorf("batch: job %d not started: %w", i, err)
				continue
			}
			out[i], errs[i] = runJob(ctx, job, i)
			report()
		}
	}
	if workers == 1 {
		// A pool of one runs on the caller's goroutine: starting a
		// goroutine wakes an idle OS thread, a hand-off whose cost
		// depends on how busy the host is.
		work()
		return out, errs
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return out, errs
}

// runJob executes one job, converting a panic into an error so a single
// bad parameter combination cannot take down a whole sweep.
func runJob[T any](ctx context.Context, job func(ctx context.Context, i int) (T, error), i int) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batch: job %d panicked: %v", i, r)
		}
	}()
	out, err = job(ctx, i)
	if err != nil {
		err = fmt.Errorf("batch: job %d: %w", i, err)
	}
	return out, err
}

// Map runs fn over items on a worker pool and returns the results in
// input order: out[i] = fn(items[i]), whatever the interleaving. The
// context is the batch context; jobs that run long should poll ctx.Err()
// and abandon work once cancelled.
//
// Every job is attempted (no fail-fast) unless the context is cancelled,
// in which case unstarted jobs fail with the context error. All failures
// are aggregated with errors.Join in job-index order, so the returned
// error is deterministic too. On error the result slice is still
// returned; slots whose job failed hold the zero value. Workers index
// into items, so Map allocates no per-item job and copies no item to the
// heap.
func Map[In, Out any](ctx context.Context, items []In, fn func(ctx context.Context, item In) (Out, error), opts Options) ([]Out, error) {
	out, errs := MapEach(ctx, items, fn, opts)
	return out, join(ctx, errs)
}

// MapEach is Map returning each item's error in its slot (errs[i] is
// the error Map would join in place i, nil for a success) rather than
// joined, for callers that merge several batches in an order of their
// own. An empty items returns nil errs.
func MapEach[In, Out any](ctx context.Context, items []In, fn func(ctx context.Context, item In) (Out, error), opts Options) (out []Out, errs []error) {
	return run(ctx, len(items), func(ctx context.Context, i int) (Out, error) { return fn(ctx, items[i]) }, opts)
}

// Seed derives a deterministic per-job seed from a base seed and a job
// index via a splitmix64 step, so parallel jobs get decorrelated streams
// while the whole batch remains reproducible from the base seed alone.
func Seed(base int64, index int) int64 {
	z := uint64(base) + uint64(index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
