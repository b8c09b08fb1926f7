// Package par is the shared worker pool of the acquisition pipeline's
// parallel loops: bounded fan-out over an indexed task list with
// deterministic result collection and first-error cancellation.
//
// Two loops use it: the per-family MML significance scan
// (mml.ScanOrderParallel), which on two CPUs measurably slows discovery
// when run serially, and the queries of a batch (query.AnswerBatch), which
// on two CPUs answers a batch that misses the engine memo faster fanned
// out than in order (the measurement is cited at its doc comment).
// Each shares the same shape: n independent tasks, each writing its
// result into slot i of a pre-allocated slice, reduced afterwards in index
// order. Do runs exactly that shape. Because workers only ever write their
// own slot and the caller reduces in index order, the observable result is
// bit-identical to the sequential loop regardless of how the scheduler
// interleaves the workers; only wall time changes.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob against a task count: knob <= 0
// asks for GOMAXPROCS (the "use the machine" default every parallel knob
// in this module shares), and the result never exceeds tasks — spawning
// more goroutines than tasks only adds scheduling noise.
func Workers(knob, tasks int) int {
	w := knob
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Do runs fn(i) for every i in [0, n) on a pool of at most workers
// goroutines and returns the lowest-index error, or nil when every task
// succeeded. workers <= 0 uses GOMAXPROCS; workers == 1 (or n < 2) runs
// the plain sequential loop on the calling goroutine — byte-for-byte
// today's serial path, no goroutines spawned.
//
// Tasks are claimed in index order. After the first failure, workers stop
// claiming new indices (in-flight tasks finish), so a failing run does
// not grind through the remaining work. Every index below a claimed index
// has itself been claimed, which makes the returned error deterministic
// for deterministic fn: the lowest failing index is always evaluated, and
// its error is the one returned — the same error the sequential loop
// stops on.
//
// fn must be safe to call from multiple goroutines for distinct i; Do
// itself performs no synchronization beyond the claim counter, so tasks
// must not share mutable state unless they partition it by index. Do
// returns only after every started task has finished, so the caller may
// read all result slots immediately — a happens-before edge is
// established between each fn return and Do's return.
func Do(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
